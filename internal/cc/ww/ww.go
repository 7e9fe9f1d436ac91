// Package ww implements the distributed wound-wait locking algorithm of
// Rosenkrantz, Stearns and Lewis (paper §2.3). It uses the same lock table
// as 2PL but prevents deadlock with startup timestamps: when a cohort of an
// older transaction would wait for a younger one, the younger transaction
// is "wounded" (aborted) — unless it is already in the second phase of its
// commit protocol, in which case the wound is ignored. Younger transactions
// simply wait for older ones.
package ww

import (
	"ddbm/internal/cc"
	"ddbm/internal/db"
)

// Algorithm builds wound-wait managers. It needs no global machinery:
// timestamps prevent deadlock entirely.
type Algorithm struct{}

// New creates the algorithm.
func New() *Algorithm { return &Algorithm{} }

// Kind reports cc.WoundWait.
func (a *Algorithm) Kind() cc.Kind { return cc.WoundWait }

// NewManager creates the per-node manager.
func (a *Algorithm) NewManager(env cc.Env) cc.Manager {
	return &manager{env: env, lt: cc.NewLockTable()}
}

// StartGlobal is a no-op: wound-wait cannot deadlock.
func (a *Algorithm) StartGlobal(g cc.GlobalEnv) {}

type manager struct {
	env    cc.Env
	lt     *cc.LockTable
	wounds int64
}

func (m *manager) Kind() cc.Kind { return cc.WoundWait }

// Wounds returns how many wound aborts this node issued (metrics/tests).
func (m *manager) Wounds() int64 { return m.wounds }

// LockTable exposes the underlying table for invariant checks in tests.
func (m *manager) LockTable() *cc.LockTable { return m.lt }

// TableSize and BlockedCount are the probe sampler's gauges (obs layer).
func (m *manager) TableSize() int    { return m.lt.Size() }
func (m *manager) BlockedCount() int { return m.lt.WaiterCount() }

func (m *manager) Access(co *cc.CohortMeta, page db.PageID, write bool) cc.Outcome {
	if co.Txn.AbortRequested {
		return cc.Aborted
	}
	mode := cc.LockS
	if write {
		mode = cc.LockX
	}
	granted, conflicts := m.lt.Lock(co, page, mode)
	if granted {
		return cc.Granted
	}
	// Wound every younger transaction standing in our way; then wait. A
	// younger requester just waits. Wounds on transactions past the commit
	// decision are refused by RequestAbort ("the wound is not fatal").
	for _, other := range conflicts {
		if other.Txn != co.Txn && other.Txn.TS > co.Txn.TS && other.Txn.Abortable() {
			if other.Txn.RequestAbort(m.env.Node, "wounded", cc.CauseWound) {
				m.wounds++
			}
		}
	}
	if co.Txn.AbortRequested {
		// An abort raced in (e.g. a wound from another node processed
		// synchronously): don't park on a doomed request.
		m.lt.RemoveWaiter(co)
		return cc.Aborted
	}
	return co.Block()
}

func (m *manager) Prepare(co *cc.CohortMeta) bool { return true }

func (m *manager) Commit(co *cc.CohortMeta) {
	m.lt.ReleaseAll(co)
}

func (m *manager) Abort(co *cc.CohortMeta) {
	m.lt.ReleaseAll(co)
	if co.Waiting() {
		co.Deny()
	}
}
