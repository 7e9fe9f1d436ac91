// Package twopl implements distributed two-phase locking (paper §2.2):
// dynamic S/X page locks with read-to-write upgrades, blocking on conflict,
// local deadlock detection whenever a cohort blocks, and a rotating "Snoop"
// detector that periodically gathers the waits-for graphs of every node to
// resolve global deadlocks. Deadlocks are broken by aborting the most
// recently started transaction in the cycle.
package twopl

import (
	"ddbm/internal/cc"
	"ddbm/internal/db"
	"ddbm/internal/sim"
)

// Algorithm builds 2PL managers and the global Snoop detector.
type Algorithm struct {
	// DetectionIntervalMs is how long each node holds the Snoop role before
	// gathering waits-for information (paper Table 4: 1 second).
	DetectionIntervalMs float64
	// WaitTimeoutMs, when positive, switches deadlock handling to the
	// timeout scheme discussed in the paper's footnote 2 ([Jenq89]): no
	// detection runs at all; a cohort whose lock wait exceeds the timeout
	// aborts its transaction. The paper's configuration uses detection
	// (timeout 0).
	WaitTimeoutMs float64
	// Optimistic makes this O2PL ([Care88]): managers report cc.O2PL and
	// the transaction manager defers all write-lock requests to the first
	// phase of commit (via PrepareDeferred). Locking mechanics, deadlock
	// detection and the Snoop are identical to 2PL.
	Optimistic bool
	// MaxTxns and MaxLocksPerCohort, when positive, pre-size every
	// manager's lock table, detection scratch and the Snoop's gather
	// buffers for MaxTxns concurrently active transaction attempts each
	// holding at most MaxLocksPerCohort locks per node. All of those
	// buffers are self-amortising, but their growth chases high-water
	// records (widest conflict set, biggest waits-for graph) that arrive
	// too rarely for a warmup to retire deterministically; pre-sizing from
	// the machine's concurrency bound makes the steady state
	// allocation-free outright. Zero leaves the buffers to grow on demand.
	MaxTxns           int
	MaxLocksPerCohort int
}

// NewO2PL creates the O2PL variant: read locks at access time, write locks
// deferred to the first phase of the commit protocol.
func NewO2PL(detectionIntervalMs float64) *Algorithm {
	return &Algorithm{DetectionIntervalMs: detectionIntervalMs, Optimistic: true}
}

// New creates the algorithm with the given global detection interval and
// detection-based deadlock handling.
func New(detectionIntervalMs float64) *Algorithm {
	return &Algorithm{DetectionIntervalMs: detectionIntervalMs}
}

// NewWithTimeout creates the timeout-based variant: waits longer than
// waitTimeoutMs abort the waiter instead of running deadlock detection.
func NewWithTimeout(waitTimeoutMs float64) *Algorithm {
	return &Algorithm{WaitTimeoutMs: waitTimeoutMs}
}

// Kind reports cc.TwoPL, or cc.O2PL for the optimistic variant.
func (a *Algorithm) Kind() cc.Kind {
	if a.Optimistic {
		return cc.O2PL
	}
	return cc.TwoPL
}

// maxEdges bounds one node's waits-for graph: at most MaxTxns waiting
// cohorts, each blocked by at most MaxTxns others.
func (a *Algorithm) maxEdges() int { return a.MaxTxns * a.MaxTxns }

// NewManager creates the per-node lock manager.
func (a *Algorithm) NewManager(env cc.Env) cc.Manager {
	m := &manager{env: env, kind: a.Kind(), lt: cc.NewLockTable(), timeout: a.WaitTimeoutMs,
		waitSeq: make(map[*cc.CohortMeta]int64)}
	if a.MaxTxns > 0 {
		m.lt.Reserve(a.MaxTxns, max(1, a.MaxLocksPerCohort))
		m.det.Reserve(a.MaxTxns, a.maxEdges())
		m.edgeBuf = make([]cc.Edge, 0, a.maxEdges())
	}
	return m
}

type manager struct {
	env      cc.Env
	kind     cc.Kind
	lt       *cc.LockTable
	timeout  float64 // 0: detection; >0: timeout scheme
	waitSeq  map[*cc.CohortMeta]int64
	timeouts int64
	// edgeBuf backs the waits-for snapshot local detection takes on every
	// block; the detector consumes it synchronously, so one buffer and one
	// detector per manager make the block path allocation-free.
	edgeBuf []cc.Edge
	det     cc.Detector
}

// Timeouts returns how many lock-wait timeouts this node fired (only in
// timeout mode).
func (m *manager) Timeouts() int64 { return m.timeouts }

func (m *manager) Kind() cc.Kind { return m.kind }

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
	granted, _ := m.lt.Lock(co, page, mode)
	if granted {
		return cc.Granted
	}
	if m.timeout > 0 {
		// Timeout scheme: no detection; if this wait outlives the timeout,
		// abort the waiter. The sequence number guards against a stale
		// timer firing during a later, different wait.
		m.waitSeq[co]++
		seq := m.waitSeq[co]
		m.env.Sim.After(m.timeout, func() {
			if co.Waiting() && m.waitSeq[co] == seq {
				if co.Txn.RequestAbort(m.env.Node, "lock timeout", cc.CauseLockTimeout) {
					m.timeouts++
				}
			}
		})
		return co.Block()
	}
	// Local deadlock detection occurs whenever a cohort blocks.
	m.edgeBuf = m.lt.AppendWaitsForEdges(m.env.Node, m.edgeBuf[:0])
	for _, v := range m.det.FindVictims(m.edgeBuf) {
		v.RequestAbort(m.env.Node, "local deadlock", cc.CauseLocalDeadlock)
	}
	if co.Txn.AbortRequested {
		// We were chosen as the victim (or were already dying): don't park —
		// withdraw the queued request and fail the access immediately.
		m.lt.RemoveWaiter(co)
		return cc.Aborted
	}
	return co.Block()
}

func (m *manager) Prepare(co *cc.CohortMeta) bool { return true }

func (m *manager) Commit(co *cc.CohortMeta) {
	m.lt.ReleaseAll(co)
	delete(m.waitSeq, co)
}

func (m *manager) Abort(co *cc.CohortMeta) {
	m.lt.ReleaseAll(co)
	if co.Waiting() {
		co.Deny()
	}
	delete(m.waitSeq, co)
}

// PrepareDeferred acquires the deferred remote-copy write locks during the
// first phase of commit ([Care89], paper footnote 13). It runs as its own
// continuation at this node, taking over the cohort's Wake (the work phase
// has finished), and may wait on each lock like any other request —
// including becoming a deadlock victim, in which case it reports a no vote.
func (m *manager) PrepareDeferred(co *cc.CohortMeta, pages []db.PageID, done func(ok bool)) {
	s := m.env.Sim
	i, woken, blockedAt := 0, false, sim.Time(0)
	var step func()
	step = func() {
		for ; i < len(pages); i++ {
			out := cc.Blocked
			if woken {
				woken, out = false, co.Verdict()
				if co.OnBlocked != nil {
					co.OnBlocked(co, s.Now()-blockedAt)
				}
			} else if out = m.Access(co, pages[i], true); out == cc.Blocked {
				woken, blockedAt = true, s.Now()
				return
			}
			if out == cc.Aborted {
				done(false)
				return
			}
		}
		done(true)
	}
	co.Wake = func() { s.Schedule(s.Now(), step) }
	s.Schedule(s.Now(), step)
}

// snoopNode is the Snoop's per-node state: the node's manager and the
// reused buffer its waits-for snapshot is collected into. The buffer is
// refilled at most once per round and its reply copies it out on
// delivery, so reuse cannot alias live data.
type snoopNode struct {
	mgr   *manager
	edges []cc.Edge
}

// StartGlobal launches the Snoop, a chain of continuations starting at
// the current instant: each node in turn waits DetectionIntervalMs,
// gathers waits-for edges from all other nodes via real (CPU-costed)
// messages, resolves global cycles, and passes the role to the next node
// round-robin.
//
// The request and reply continuations for every (snoop node, polled node)
// pair are bound once at startup and each node's snapshot lives in a
// reused buffer, so the rounds themselves — which run for the whole
// simulation at the detection interval — are allocation-free in steady
// state.
func (a *Algorithm) StartGlobal(g cc.GlobalEnv) {
	if a.WaitTimeoutMs > 0 {
		return // timeout scheme: no Snoop
	}
	n := g.NumProcNodes()
	if n < 2 {
		return // local detection already sees the whole graph
	}
	s := g.Sim()
	nodes := make([]snoopNode, n)
	for o := range nodes {
		nodes[o].mgr = g.ManagerAt(o).(*manager)
	}
	// A round collects the snoop node's own edges into all, then each
	// reply appends its node's snapshot in delivery order and counts
	// pending down; a reply that finds the Snoop waiting schedules collect.
	var (
		all                  []cc.Edge
		pending              int
		waiting              bool
		node                 int         // the node holding the Snoop role
		det                  cc.Detector // reused across rounds; victims are consumed before the next one
		wait, round, collect func()
	)
	requests := make([][]func(), n)
	for at := 0; at < n; at++ {
		requests[at] = make([]func(), n)
		for o := 0; o < n; o++ {
			if o == at {
				continue
			}
			at, o, nd := at, o, &nodes[o]
			reply := func() {
				all = append(all, nd.edges...)
				pending--
				if waiting {
					waiting = false
					s.Schedule(s.Now(), collect)
				}
			}
			requests[at][o] = func() {
				nd.edges = nd.mgr.lt.AppendWaitsForEdges(o, nd.edges[:0])
				g.SendControl(o, at, reply)
			}
		}
	}
	if a.MaxTxns > 0 {
		e := a.maxEdges()
		for o := range nodes {
			nodes[o].edges = make([]cc.Edge, 0, e)
		}
		all = make([]cc.Edge, 0, n*e)
		det.Reserve(a.MaxTxns, n*e)
	}
	wait = func() { s.After(a.DetectionIntervalMs, round) }
	round = func() {
		for o := 0; o < n; o++ {
			if o == node {
				continue
			}
			pending++
			g.SendControl(node, o, requests[node][o])
		}
		all = nodes[node].mgr.lt.AppendWaitsForEdges(node, all[:0])
		collect()
	}
	collect = func() {
		if pending > 0 {
			waiting = true
			return
		}
		for _, v := range det.FindVictims(all) {
			v.RequestAbort(node, "global deadlock", cc.CauseGlobalDeadlock)
		}
		node = (node + 1) % n
		wait()
	}
	s.Schedule(s.Now(), wait)
}
