// Package bto implements basic timestamp ordering (paper §2.4): every page
// carries a read timestamp and a write timestamp, and conflicting accesses
// must occur in timestamp order. Out-of-order accesses abort the
// transaction, except write-write conflicts where the Thomas write rule
// applies. Writers buffer updates privately; granted writes are queued on
// the page in timestamp order without blocking the writer and become
// visible when the writer commits. Reads that would see a pending
// (uncommitted) earlier write must block until that write resolves, so
// readers never read dirty data.
package bto

import (
	"ddbm/internal/cc"
	"ddbm/internal/db"
)

// Algorithm builds BTO managers. No global machinery: a blocked reader
// waits only on writers, and writers never block, so BTO cannot deadlock.
type Algorithm struct{}

// New creates the algorithm.
func New() *Algorithm { return &Algorithm{} }

// Kind reports cc.BTO.
func (a *Algorithm) Kind() cc.Kind { return cc.BTO }

// NewManager creates the per-node manager.
func (a *Algorithm) NewManager(env cc.Env) cc.Manager {
	return &manager{
		env:     env,
		pages:   make(map[db.PageID]*pageState),
		cohorts: make(map[*cc.CohortMeta]*cohortState),
		reads:   make(map[*cc.CohortMeta]*blockedRead),
	}
}

// StartGlobal is a no-op.
func (a *Algorithm) StartGlobal(g cc.GlobalEnv) {}

type pendingWrite struct {
	ts int64
	co *cc.CohortMeta
}

type blockedRead struct {
	ts   int64
	co   *cc.CohortMeta
	page db.PageID
}

type pageState struct {
	rts     int64          // largest timestamp of any granted read
	wts     int64          // timestamp of the current committed version
	pending []pendingWrite // uncommitted granted writes, ascending ts
	blocked []*blockedRead // readers waiting for earlier pending writes
}

// earliestPendingBelow reports whether any pending write has a timestamp
// smaller than ts (such a write must resolve before a read at ts may see
// the page).
func (ps *pageState) pendingBelow(ts int64) bool {
	return len(ps.pending) > 0 && ps.pending[0].ts < ts
}

type cohortState struct {
	writes []db.PageID // pages with a pending write by this cohort
}

type manager struct {
	env     cc.Env
	pages   map[db.PageID]*pageState
	cohorts map[*cc.CohortMeta]*cohortState
	// reads indexes every entry of the pages' blocked lists by its reader
	// (a cohort blocks on at most one read, the page it is accessing).
	// Abort finds the read here: the cohort's Waiting flag is no witness,
	// since a node crash clears it (CohortMeta.CrashReset) before the
	// sweep aborts the cohort.
	reads map[*cc.CohortMeta]*blockedRead
}

func (m *manager) Kind() cc.Kind { return cc.BTO }

// TableSize and BlockedCount are the probe sampler's gauges (obs layer):
// pages with timestamp state, and readers blocked behind pending writes.
func (m *manager) TableSize() int { return len(m.pages) }

func (m *manager) BlockedCount() int { return len(m.reads) }

func (m *manager) page(p db.PageID) *pageState {
	ps := m.pages[p]
	if ps == nil {
		ps = &pageState{}
		m.pages[p] = ps
	}
	return ps
}

func (m *manager) cohort(co *cc.CohortMeta) *cohortState {
	cs := m.cohorts[co]
	if cs == nil {
		cs = &cohortState{}
		m.cohorts[co] = cs
	}
	return cs
}

func (m *manager) Access(co *cc.CohortMeta, page db.PageID, write bool) cc.Outcome {
	if co.Txn.AbortRequested {
		return cc.Aborted
	}
	ts := co.Txn.AttemptTS
	ps := m.page(page)

	if write {
		if ts < ps.rts {
			// A later read already saw the old version.
			co.Txn.NoteCause(m.env.Node, cc.CauseBTOTooLate)
			return cc.Aborted
		}
		if ts < ps.wts {
			// Thomas write rule: a later write is already in place; this
			// write can be skipped entirely.
			return cc.Granted
		}
		cs := m.cohort(co)
		// Insertion point: first pending write at or above ts (the pending
		// list is kept sorted by timestamp). An open-coded binary search —
		// sort.Search's closure would be this function's only allocation.
		lo, hi := 0, len(ps.pending)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if ps.pending[mid].ts < ts {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		i := lo
		if i < len(ps.pending) && ps.pending[i].co == co {
			return cc.Granted // idempotent re-write by the same cohort
		}
		ps.pending = append(ps.pending, pendingWrite{})
		copy(ps.pending[i+1:], ps.pending[i:])
		ps.pending[i] = pendingWrite{ts: ts, co: co}
		cs.writes = append(cs.writes, page)
		return cc.Granted
	}

	// Read.
	if ts < ps.wts {
		// Too late: a newer version is already committed.
		co.Txn.NoteCause(m.env.Node, cc.CauseBTOTooLate)
		return cc.Aborted
	}
	if ps.pendingBelow(ts) {
		br := &blockedRead{ts: ts, co: co, page: page}
		m.reads[co] = br
		ps.blocked = append(ps.blocked, br)
		out := co.Block()
		// On Granted the waker already updated rts; on Aborted the waker
		// (resolve or the abort protocol) already removed our entry.
		return out
	}
	if ts > ps.rts {
		ps.rts = ts
	}
	return cc.Granted
}

func (m *manager) Prepare(co *cc.CohortMeta) bool { return true }

// Commit installs the cohort's pending writes (making them the committed
// version) and re-evaluates blocked readers on the affected pages.
func (m *manager) Commit(co *cc.CohortMeta) {
	cs := m.cohorts[co]
	if cs == nil {
		return
	}
	delete(m.cohorts, co)
	for _, page := range cs.writes {
		ps := m.pages[page]
		for i, pw := range ps.pending {
			if pw.co == co {
				ps.pending = append(ps.pending[:i], ps.pending[i+1:]...)
				if pw.ts > ps.wts {
					ps.wts = pw.ts
				}
				break
			}
		}
		m.resolveBlocked(page, ps)
	}
	// A blocked read never belongs to a committing cohort: commit requires
	// all of the transaction's cohorts to have finished their work phase.
}

// Abort discards the cohort's pending writes, removes its blocked read (a
// cohort blocks on at most one, the page it is accessing), and re-evaluates
// waiters. A waiting owner is woken with Aborted; a crashed one, no longer
// waiting, just loses the read. Idempotent.
func (m *manager) Abort(co *cc.CohortMeta) {
	if cs := m.cohorts[co]; cs != nil {
		delete(m.cohorts, co)
		for _, page := range cs.writes {
			ps := m.pages[page]
			for i, pw := range ps.pending {
				if pw.co == co {
					ps.pending = append(ps.pending[:i], ps.pending[i+1:]...)
					break
				}
			}
			m.resolveBlocked(page, ps)
		}
	}
	br := m.reads[co]
	if br == nil {
		return
	}
	delete(m.reads, co)
	ps := m.pages[br.page]
	for i, b := range ps.blocked {
		if b == br {
			ps.blocked = append(ps.blocked[:i], ps.blocked[i+1:]...)
			break
		}
	}
	if co.Waiting() {
		co.Deny()
	}
}

// resolveBlocked wakes blocked readers whose awaited pending writes have all
// resolved, granting or (if the committed version passed them by) aborting.
func (m *manager) resolveBlocked(page db.PageID, ps *pageState) {
	if len(ps.blocked) == 0 {
		return
	}
	kept := ps.blocked[:0]
	var grant, deny []*blockedRead
	for _, br := range ps.blocked {
		switch {
		case br.ts < ps.wts:
			deny = append(deny, br)
		case !ps.pendingBelow(br.ts):
			grant = append(grant, br)
		default:
			kept = append(kept, br)
		}
	}
	for i := len(kept); i < len(ps.blocked); i++ {
		ps.blocked[i] = nil
	}
	ps.blocked = kept
	for _, br := range grant {
		if br.ts > ps.rts {
			ps.rts = br.ts
		}
		delete(m.reads, br.co)
		br.co.Grant()
	}
	for _, br := range deny {
		// The read it was waiting to perform is now too late: a newer
		// version committed while it was blocked.
		delete(m.reads, br.co)
		br.co.Txn.NoteCause(m.env.Node, cc.CauseBTOTooLate)
		br.co.Deny()
	}
}

// Quiesced reports whether the node holds no pending writes or blocked
// reads — the end-of-run invariant.
func (m *manager) Quiesced() bool {
	if len(m.cohorts) != 0 {
		return false
	}
	for _, ps := range m.pages {
		if len(ps.pending) != 0 || len(ps.blocked) != 0 {
			return false
		}
	}
	return true
}
