package core

import (
	"ddbm/internal/audit"
	"ddbm/internal/cc"
	"ddbm/internal/commit"
	"ddbm/internal/obs"
	"ddbm/internal/resource"
	"ddbm/internal/sim"
	"ddbm/internal/workload"
)

// Message tags for the typed network envelopes of the work phase. Every
// message a cohort node sends to the coordinator travels through the
// network with full CPU costs; its delivery settles the coordinator's wait
// on the attempt's commit.Txn (Report or Fail). Tag namespaces are
// per-handler: cohortRun handles the cohort tags, attemptState handles the
// notice tag.
const (
	tagCohortLoad      = iota // host → node: pay startup CPU, start the cohort's work phase
	tagCohortDone             // node → host: the cohort's work phase is done
	tagCohortSelfAbort        // node → host: concurrency control rejected the cohort
	tagAbortNotice            // → host: a manager or the failure detector demands the abort
	tagCohortInquiry          // node → host: recovery asks the coordinator for the outcome
	tagCohortDecision         // host → node: the coordinator's answer to an inquiry
)

// Cohort life-cycle phases tracked by the fault layer (cohortRun.phase;
// maintained only while fault injection is on). A crash sweep uses the
// phase to decide what a cohort left behind: a pending startup job
// (loaded), a work phase whose pending continuation must be dropped
// (running), released resources (exited), or — when in doubt — locks
// that must survive until recovery resolves them (resident).
const (
	phaseIdle uint8 = iota
	phaseLoaded
	phaseRunning
	phaseExited
	phaseResident
	phaseGone
)

// attemptState is the complete per-attempt transaction state: the shared
// metadata, the protocol-layer Txn (which holds the coordinator's wait)
// and Env, and the cohort runs. Attempt states are free-listed on the
// Machine and recycled by quiescence: every in-flight reference to the
// attempt — a message envelope, a log-force continuation, a running cohort
// work phase — holds one count, and the state returns to the pool only when
// the count drains to zero, so stragglers (late votes after an early abort return,
// phase-two deliveries after Commit returns, cohorts still winding down
// after an abort) never touch recycled memory.
type attemptState struct {
	m    *Machine
	meta cc.TxnMeta
	env  protocolEnv
	txn  commit.Txn
	runs []*cohortRun
	// plan is the attempt's share of the transaction plan; the generator
	// reference is released when the attempt recycles, so the plan's
	// buffers outlive every straggler that reads them (InstallCommit).
	plan *workload.TxnPlan
	refs int
	// bd is the owning terminal's breakdown ledger (nil when accounting
	// is off): the coordinator-timeline account this attempt spends into.
	bd *obs.Ledger

	onAbortFn func(fromNode int, reason string) // a.onAbort, bound once

	// liveIdx is the attempt's slot in the fault layer's live-attempt
	// registry. Maintained only when faults are on.
	liveIdx int
}

// cohortRun is the coordinator's handle on one cohort of one attempt: the
// core-side work-phase state plus the embedded protocol-layer Cohort. Its
// network messages and continuations are pre-bound, so loading and
// running a cohort allocates nothing in steady state.
type cohortRun struct {
	idx     int
	attempt int // attempt number, tagging this cohort's trace spans
	plan    *workload.CohortPlan
	meta    cc.CohortMeta
	proto   commit.Cohort
	// reads records audit observations (only when auditing is enabled).
	reads []audit.ReadObs

	a *attemptState
	m *Machine

	startFn func() // c.start, bound once
	stepFn  func() // c.step, bound once
	wakeFn  func() // c.wake, bound once

	// Work-phase state (see step). upgrade marks the CC request as an
	// updated page's write request; next is the scheduled step, nil while
	// the cohort waits on a resource or the lock manager.
	pc        uint8
	upgrade   bool
	i         int // current access
	verdict   cc.Outcome
	blockedAt sim.Time
	spanAt    sim.Time
	spanned   bool       // false for a cohort that starts already aborted
	next      *sim.Event //ddbmlint:allow event-retention nilled when it fires (step) and canceled only while pending (crash sweep)

	// Fault-layer state (zero/idle unless fault injection is on): the
	// life-cycle phase and the cohort's slot in its node's crash
	// registry; inDoubtAt stamps the open in-doubt window; recWait is
	// the node recovery's continuation across a 2PC inquiry round-trip
	// and inqCommit carries the answer back.
	phase     uint8
	regIdx    int
	inDoubtAt sim.Time
	recWait   func()
	inqCommit bool

	// bd points at bdStore while breakdown accounting is on (nil
	// otherwise): the cohort's mini-ledger, tiling load-send to
	// done-delivery on the cohort's own timeline. The coordinator folds
	// the critical cohort's account into the attempt ledger. diskSvc is
	// the ReadAsync scratch slot for the service/queue split.
	bd      *obs.Ledger
	bdStore obs.Ledger
	diskSvc float64
}

// acquireAttempt takes an attempt state from the free list (or grows the
// pool) and resets it for one attempt: fresh metadata with a new attempt
// timestamp, an empty cohort list and coordinator wait, and one reference
// held by the coordinator.
//
//ddbmlint:hotpath per-attempt state acquisition pinned by TestTxnPathAllocFree
func (m *Machine) acquireAttempt(id, origTS int64, attemptNo int, plan *workload.TxnPlan, ld *obs.Ledger) *attemptState {
	var a *attemptState
	if k := len(m.attemptFree); k > 0 {
		a = m.attemptFree[k-1]
		m.attemptFree[k-1] = nil
		m.attemptFree = m.attemptFree[:k-1]
	} else {
		a = &attemptState{m: m} //ddbmlint:allow hotpath-alloc pool growth: one state per high-water concurrent attempt
		a.onAbortFn = a.onAbort
		a.env.m = m
		a.env.a = a
	}
	a.meta = cc.TxnMeta{ID: id, TS: origTS, AttemptTS: m.nextTS(), OnAbort: a.onAbortFn}
	a.plan = plan
	a.bd = ld
	m.gen.Retain(plan)
	a.refs = 1
	if m.ft != nil {
		m.ft.attemptLive(a)
	}
	a.env.txn, a.env.attempt, a.env.phaseAt = id, attemptNo, 0
	a.env.prepared = false
	a.env.runs = nil
	a.txn.Reset(&a.meta)
	a.runs = a.runs[:0]
	return a
}

// retain adds one in-flight reference to the attempt.
//
//ddbmlint:hotpath reference count on every attempt message
func (a *attemptState) retain() { a.refs++ }

// release drops one reference; at zero the attempt has quiesced — no
// envelope, continuation or process can reach it — so its plan reference
// is returned to the generator and the state pushed back on the machine's
// free list.
//
//ddbmlint:hotpath reference count on every attempt message
func (a *attemptState) release() {
	a.refs--
	if a.refs > 0 {
		return
	}
	if a.refs < 0 {
		panic("core: attempt reference count underflow")
	}
	a.m.gen.Release(a.plan)
	a.plan = nil
	if a.m.ft != nil {
		a.m.ft.attemptGone(a)
	}
	a.m.attemptFree = append(a.m.attemptFree, a) //ddbmlint:allow hotpath-alloc free-list push; capacity reaches the concurrent-attempt high-water mark
}

// onAbort is the pre-bound cc.TxnMeta.OnAbort hook: a manager at fromNode
// demands the attempt abort, and the notice travels to the coordinator
// with full message costs. The reason is already recorded on the metadata.
//
//ddbmlint:hotpath wound/deadlock abort notification
func (a *attemptState) onAbort(fromNode int, _ string) {
	a.retain()
	a.m.net.Send(fromNode, a.m.hostID, a, tagAbortNotice)
}

// HandleMsg delivers the attempt's abort or crash notice: it fails the
// coordinator's wait.
//
//ddbmlint:hotpath abort-notice delivery
func (a *attemptState) HandleMsg(int) {
	a.txn.Fail(-1)
	a.release()
}

// MsgDropped releases the reference an attempt-level notice held when the
// fault layer discards it (its sender node crashed mid-flight); the
// coordinator learns of the crash from failure detection instead.
func (a *attemptState) MsgDropped(int) { a.release() }

// sendCrashNotice wakes a coordinator whose attempt can no longer be
// aborted through RequestAbort (the manager-side abort was already spent
// or refused) but which may be parked waiting on a dead node: the notice
// is a host-local self-send, exempt from fault handling.
func (a *attemptState) sendCrashNotice() {
	a.retain()
	a.m.net.Send(a.m.hostID, a.m.hostID, a, tagAbortNotice)
}

// addCohort appends one cohort run to the attempt, reusing the pooled
// cohortRun (and its embedded protocol Cohort) at that position.
//
//ddbmlint:hotpath per-attempt cohort setup pinned by TestTxnPathAllocFree
func (a *attemptState) addCohort(cp *workload.CohortPlan, attemptNo int) *cohortRun {
	n := len(a.runs)
	if n < cap(a.runs) {
		a.runs = a.runs[:n+1]
		if a.runs[n] == nil {
			a.runs[n] = newCohortRun(a)
		}
	} else {
		a.runs = append(a.runs, newCohortRun(a)) //ddbmlint:allow hotpath-alloc pool growth: one run per high-water cohort slot
	}
	c := a.runs[n]
	c.idx, c.attempt, c.plan = n, attemptNo, cp
	c.reads = c.reads[:0]
	c.bd = nil
	if a.bd != nil {
		c.bd = &c.bdStore
	}
	c.phase, c.regIdx = phaseIdle, 0
	c.inDoubtAt, c.recWait, c.inqCommit = 0, nil, false
	c.meta = cc.CohortMeta{Txn: &a.meta, Node: cp.Node, Wake: c.wakeFn, OnBlocked: a.m.blockedFn}
	if tr := a.m.tracer; tr != nil {
		// Record each blocking episode as a cc-wait span before the stats
		// tally. The closure exists only on the traced path, so the
		// disabled path keeps the allocation-free pre-bound method value
		// above.
		m, node, id, attempt := a.m, cp.Node, a.meta.ID, attemptNo
		c.meta.OnBlocked = func(co *cc.CohortMeta, d sim.Time) { //ddbmlint:allow hotpath-alloc traced path only; the untraced path uses the pre-bound blockedFn
			if d > 0 {
				tr.Complete(obs.KindCCWait, "cc-wait", node, id, attempt, m.sim.Now()-d)
			}
			m.onBlocked(co, d)
		}
	}
	c.proto.Meta = &c.meta
	a.txn.Attach(&c.proto)
	c.proto.ReadOnly = cp.NumWrites() == 0
	a.m.appendDeferred(&c.proto.Deferred, cp)
	return c
}

// newCohortRun makes a pooled cohort run with its continuations bound.
func newCohortRun(a *attemptState) *cohortRun {
	c := &cohortRun{a: a, m: a.m} //ddbmlint:allow hotpath-alloc pool growth: one run per high-water cohort slot
	c.startFn = c.start
	c.stepFn = c.step
	c.wakeFn = c.wake
	return c
}

// serializationStamp is the stamp the algorithm promises equivalence to:
// the attempt timestamp for BTO, the certification timestamp for OPT, and
// the commit-decision order for the strict locking algorithms (whose
// prepare phase may block under deferred write locks, reordering decisions
// relative to CommitTS).
func (m *Machine) serializationStamp(meta *cc.TxnMeta) int64 {
	switch m.cfg.Algorithm {
	case cc.BTO:
		return meta.AttemptTS
	case cc.OPT:
		return meta.CommitTS
	default:
		return meta.DecisionTS
	}
}

// terminal models one terminal: think, submit a transaction, wait for it to
// complete successfully, repeat (paper §3.2). The transaction plan is
// acquired from the generator's free list and released when the
// transaction commits (the attempts' own references keep it alive past
// any stragglers).
func (m *Machine) terminal(p *sim.Proc, termID int) {
	rel := termID % m.cfg.NumRelations
	class := m.gen.ClassOfTerminal(termID, m.cfg.NumTerminals)
	ld := m.bd.ledger(termID)      // nil when breakdown accounting is off
	classIdx := m.bd.class(termID) // histogram row for this terminal
	rng := m.sim.Rand()
	for {
		p.Delay(sim.Exponential(rng, m.cfg.ThinkTimeMs))
		plan := m.gen.AcquireClassPlan(rng, rel, class)
		m.runTransaction(p, plan, ld, classIdx)
		m.gen.Release(plan)
	}
}

// runTransaction drives a transaction to successful commit, rerunning after
// each abort with a delay of one average response time (paper §3.3,
// [Agra87a]). The terminal process acts as the coordinator, which runs at
// the host node.
//
//ddbmlint:hotpath transaction driver pinned by TestTxnPathAllocFree
func (m *Machine) runTransaction(p *sim.Proc, plan *workload.TxnPlan, ld *obs.Ledger, class int) {
	id := m.nextTxnID()
	origTS := m.nextTS() // original startup timestamp, kept across restarts
	origin := m.sim.Now()
	ld.StartAt(origin)
	m.stats.txnStarted(origin)
	m.lifecycle(TxnSubmitted, id, 1, "")
	restarts := 0
	for {
		if m.ft != nil {
			m.ft.holdForHost(p)
		}
		attemptNo := restarts + 1
		m.lifecycle(TxnAttemptStarted, id, attemptNo, "")
		// The attempt span is ended explicitly, never deferred: terminals
		// killed at simulation shutdown must not record a half-finished
		// attempt (see obs.Span.End).
		sp := m.tracer.Begin(obs.KindTxn, "attempt", m.hostID, id, attemptNo)
		committed, reason := m.attempt(p, id, origTS, attemptNo, plan, ld)
		sp.End()
		if committed {
			break
		}
		m.lifecycle(TxnAttemptAborted, id, attemptNo, reason)
		m.stats.txnAborted()
		restarts++
		p.Delay(m.stats.avgResponse(m.cfg.InitialRestartDelayMs))
		ld.Spend(m.sim.Now(), obs.PhaseRestart)
	}
	m.lifecycle(TxnCommitted, id, restarts+1, "")
	resp := m.sim.Now() - origin
	m.stats.txnCommitted(m.sim.Now(), resp, restarts)
	m.bd.noteCommit(class, ld, m.stats.measuring)
	if m.bdCheck != nil && ld != nil {
		m.bdCheck(ld, resp) //ddbmlint:allow hotpath-alloc reconciliation test seam; nil outside tests
	}
}

// attempt executes one try of the transaction: load cohorts (sequentially
// or in parallel), wait for their work phases, then hand the attempt to
// the configured commit protocol (centralized 2PC by default). It reports
// whether the attempt committed and, if not, why it aborted.
//
//ddbmlint:hotpath attempt execution pinned by TestTxnPathAllocFree
func (m *Machine) attempt(p *sim.Proc, id, origTS int64, attemptNo int, plan *workload.TxnPlan, ld *obs.Ledger) (bool, string) {
	cfg := &m.cfg
	a := m.acquireAttempt(id, origTS, attemptNo, plan, ld)

	// Coordinator process startup at the host.
	m.cpus[m.hostID].Use(p, cfg.InstPerStartup)
	a.bd.SpendSplit(m.sim.Now(), cfg.InstPerStartup/m.cpus[m.hostID].Rate(),
		obs.PhaseCPUService, obs.PhaseCPUQueue)

	for i := range plan.Cohorts {
		a.addCohort(&plan.Cohorts[i], attemptNo)
	}
	a.env.runs = a.runs

	loaded := 0
	if cfg.ExecPattern == Sequential || plan.Sequential {
		for _, c := range a.runs {
			if m.ft != nil && m.ft.inj.Down(c.meta.Node) {
				// Fail fast: a cohort's node is known dead, so the attempt
				// aborts instead of loading into the void. Re-checked per
				// load — a node can crash while an earlier cohort runs.
				m.ft.markCrashAbort(&a.meta)
				return a.abort(p, loaded)
			}
			m.loadCohort(c)
			loaded++
			ok, crit := a.txn.Collect(p, 1)
			a.foldWork(crit)
			if !ok {
				return a.abort(p, loaded)
			}
		}
	} else {
		// One down check covers the whole parallel fan-out: no simulated
		// time passes between the loads, so a node up here is up for every
		// send below.
		if m.ft != nil && m.ft.anyPlanNodeDown(a) {
			m.ft.markCrashAbort(&a.meta)
			return a.abort(p, 0)
		}
		for _, c := range a.runs {
			m.loadCohort(c)
			loaded++
		}
		ok, crit := a.txn.Collect(p, loaded)
		a.foldWork(crit)
		if !ok {
			return a.abort(p, loaded)
		}
	}
	if a.meta.AbortRequested {
		return a.abort(p, len(a.runs))
	}

	a.env.phaseAt = m.sim.Now()
	if !m.proto.Commit(p, &a.env, &a.txn) { //ddbmlint:allow hotpath-alloc Protocol dispatch; the twoPC implementation carries its own hotpath pins
		return a.abort(p, len(a.runs))
	}
	// Commit resolution: from the logged decision (Decided advanced the
	// ledger cursor and phaseAt) to the protocol's return — zero for the
	// asynchronous phase-two fan-out. Nil-safe no-ops when disabled.
	a.bd.Spend(m.sim.Now(), obs.PhaseResolve)
	m.tracer.Complete(obs.KindCommitPhase, "resolve", m.hostID, id, attemptNo, a.env.phaseAt)
	a.release()
	return true, ""
}

// foldWork merges the reporting cohort's breakdown mini-ledger into the
// attempt ledger at the coordinator, attributing the wait since the
// cohorts were loaded. The critical cohort's account tiles the interval
// exactly (its last entry is the done-report transit, ending at this
// delivery); a fold with no reporting cohort (crit < 0, an abort notice)
// sweeps the interval into the residue phase.
//
//ddbmlint:hotpath work-phase breakdown fold pinned by TestTxnPathAllocFree
func (a *attemptState) foldWork(crit int) {
	if a.bd == nil {
		return
	}
	var from *obs.Ledger
	if crit >= 0 {
		from = a.runs[crit].bd
	}
	a.bd.Fold(a.m.sim.Now(), from, obs.PhaseResidue)
}

// loadCohort sends the "load cohort" message; at the destination the
// process-startup CPU cost is paid and the cohort's work phase begins.
// The reference taken here is held until the work phase exits, so an
// attempt never recycles under a cohort that is still winding down.
//
//ddbmlint:hotpath cohort load pinned by TestTxnPathAllocFree
func (m *Machine) loadCohort(c *cohortRun) {
	c.a.retain()
	c.bd.StartAt(m.sim.Now())
	m.net.Send(m.hostID, c.meta.Node, c, tagCohortLoad)
}

// HandleMsg dispatches one delivered work-phase envelope for this cohort:
// the load step at its node, or its completion/self-abort report into the
// coordinator's wait at the host. Host-bound deliveries release the
// reference their envelope held; the load step passes its reference to the
// cohort's work phase.
//
//ddbmlint:hotpath work-phase message dispatch pinned by TestTxnPathAllocFree
func (c *cohortRun) HandleMsg(tag int) {
	switch tag {
	case tagCohortLoad:
		c.bd.Spend(c.m.sim.Now(), obs.PhaseNetTransit)
		if c.m.ft != nil {
			c.m.ft.register(c)
		}
		c.m.cpus[c.meta.Node].UseAsync(c.m.cfg.InstPerStartup, c.startFn)
	case tagCohortDone:
		c.bd.Spend(c.m.sim.Now(), obs.PhaseNetTransit)
		c.a.txn.Report(c.idx)
		c.a.release()
	case tagCohortSelfAbort:
		c.bd.Spend(c.m.sim.Now(), obs.PhaseNetTransit)
		c.a.txn.Fail(c.idx)
		c.a.release()
	case tagCohortInquiry:
		// At the host: a restarted node asks for this in-doubt cohort's
		// outcome; answer from the decision registry (no record ⇒ abort).
		// Answering abort binds the coordinator: no record means the
		// transaction has not reached its commit point (the decision and
		// its registry record land in one synchronous stretch), so a
		// still-undecided coordinator is aborted here rather than left
		// able to commit a transaction whose cohort just rolled back.
		committed := c.m.ft.reg.Lookup(c.meta.Txn.AttemptTS)
		if !committed {
			c.meta.Txn.RequestAbort(c.m.hostID, "node crash", cc.CauseNodeCrash)
		}
		c.inqCommit = committed
		c.a.retain()
		c.m.net.Send(c.m.hostID, c.meta.Node, c, tagCohortDecision)
		c.a.release()
	case tagCohortDecision:
		// Back at the node: resume the node's recovery.
		c.m.sim.Schedule(c.m.sim.Now(), c.recWait)
		c.recWait = nil
		c.a.release()
	}
}

// MsgDropped releases the reference a work-phase envelope held when the
// fault layer discards it at a crashed node. A dropped load means the
// cohort never starts (the coordinator aborts via failure detection); a
// dropped report means its news died with the node.
func (c *cohortRun) MsgDropped(int) { c.a.release() }

// start begins the cohort's work phase once the startup CPU cost is paid.
//
//ddbmlint:hotpath cohort work-phase start pinned by TestTxnPathAllocFree
func (c *cohortRun) start() {
	c.bd.SpendSplit(c.m.sim.Now(), c.m.cfg.InstPerStartup/c.m.cpus[c.meta.Node].Rate(),
		obs.PhaseCPUService, obs.PhaseCPUQueue)
	c.pc, c.i = stepStart, 0
	c.wake()
	if c.m.ft != nil {
		// Running from here, not from the first step: a crash landing in
		// between must still find the step's event to cancel.
		c.phase = phaseRunning
	}
}

// wake schedules the cohort's next step at the current instant, behind
// the events already due now: CPU, disk and lock completions call it
// rather than step itself.
//
//ddbmlint:hotpath cohort continuation pinned by TestTxnPathAllocFree
func (c *cohortRun) wake() { c.next = c.m.sim.Schedule(c.m.sim.Now(), c.stepFn) }

// Resume points of the cohort work phase (cohortRun.pc), named for what
// has just finished when step runs.
const (
	stepStart  uint8 = iota // nothing yet: the work phase begins
	stepAccess              // the previous access: start access i
	stepCC                  // the CC request's CPU: ask the manager
	stepCCDone              // the manager's answer (c.verdict), or its wait
	stepRead                // the page read
	stepPage                // the page's CPU
	stepWrite               // the update's CPU
)

// step runs a cohort's work phase from its resume point until it waits on
// the CPU, a disk or the lock manager, or exits. For each access: a
// concurrency control request, a disk read, and page-processing CPU; for
// updates, a second (write) concurrency control request — the update
// itself is buffered until commit. The cohort stops silently if its
// transaction is already being aborted (the abort protocol handles
// cleanup), and reports conflicts it loses to the coordinator. Every exit
// path releases the reference loadCohort took.
//
//ddbmlint:hotpath cohort work phase pinned by TestTxnPathAllocFree
func (c *cohortRun) step() {
	c.next = nil
	m, cfg, now := c.m, &c.m.cfg, c.m.sim.Now()
	cpu := m.cpus[c.meta.Node]
	for {
		var a *workload.Access
		if c.i < len(c.plan.Accesses) {
			a = &c.plan.Accesses[c.i]
		}
		switch c.pc {
		case stepStart:
			if m.activeCohorts != nil {
				m.activeCohorts[c.meta.Node]++
			}
			c.spanAt, c.spanned = now, !c.meta.Txn.AbortRequested
			c.pc = stepAccess
			fallthrough
		case stepAccess:
			if a == nil || c.meta.Txn.AbortRequested {
				c.finish(a == nil)
				return
			}
			// A write to a non-primary copy is a write permission request
			// only (read-one/write-all); the copy is installed at commit.
			// In deferred mode the request moves to the prepare phase.
			if a.Remote && (cfg.DeferRemoteWriteLocks || cfg.Algorithm == cc.O2PL) {
				c.i++
				continue
			}
			c.upgrade = false
			if c.useCPU(cpu, cfg.InstPerCCReq, stepCC) {
				return
			}
			fallthrough
		case stepCC:
			c.bd.SpendSplit(now, cfg.InstPerCCReq/cpu.Rate(), obs.PhaseCPUService, obs.PhaseCPUQueue)
			c.verdict = m.mgrs[c.meta.Node].Access(&c.meta, a.Page, a.Remote || c.upgrade || c.writeFirst(a)) //ddbmlint:allow hotpath-alloc cc.Manager dispatch; managers are audited by their own alloc pins
			c.pc = stepCCDone
			if c.verdict == cc.Blocked {
				c.blockedAt = now
				return
			}
			fallthrough
		case stepCCDone:
			if c.verdict == cc.Blocked {
				c.verdict = c.meta.Verdict()
				c.meta.OnBlocked(&c.meta, now-c.blockedAt) //ddbmlint:allow hotpath-alloc pre-bound observer; the untraced path uses the method value bound at machine construction
			}
			c.bd.Spend(now, obs.PhaseLockBlocked)
			if c.verdict == cc.Aborted {
				m.reportSelfAbort(c)
				c.finish(false)
				return
			}
			if a.Remote {
				c.i++
				c.pc = stepAccess
				continue
			}
			if c.upgrade {
				if c.useCPU(cpu, a.WriteInst, stepWrite) {
					return
				}
				continue
			}
			if m.rec != nil {
				c.reads = append(c.reads, audit.ReadObs{Page: a.Page, Saw: m.rec.ObserveRead(a.Page, c.meta.Node)}) //ddbmlint:allow hotpath-alloc audit-only path; auditing is off in measured runs
			}
			c.pc = stepRead
			m.disks[c.meta.Node].ReadAsync(&c.diskSvc, c.wakeFn)
			return
		case stepRead:
			c.bd.SpendSplit(now, c.diskSvc, obs.PhaseDiskService, obs.PhaseDiskQueue)
			if c.useCPU(cpu, a.Inst, stepPage) {
				return
			}
			fallthrough
		case stepPage:
			c.bd.SpendSplit(now, a.Inst/cpu.Rate(), obs.PhaseCPUService, obs.PhaseCPUQueue)
			if !a.Write {
				c.i++
				c.pc = stepAccess
				continue
			}
			if c.meta.Txn.AbortRequested {
				c.finish(false)
				return
			}
			if !c.writeFirst(a) && cfg.Algorithm != cc.O2PL {
				c.upgrade = true
				if c.useCPU(cpu, cfg.InstPerCCReq, stepCC) {
					return
				}
				continue
			}
			// Processing the page "when writing it" (Table 2); the update
			// itself stays buffered until commit.
			if c.useCPU(cpu, a.WriteInst, stepWrite) {
				return
			}
			fallthrough
		case stepWrite:
			c.bd.SpendSplit(now, a.WriteInst/cpu.Rate(), obs.PhaseCPUService, obs.PhaseCPUQueue)
			c.i++
			c.pc = stepAccess
		}
	}
}

// useCPU moves the work phase to resume point next, submits the cohort's
// processor-sharing work and reports whether the cohort now waits for it;
// zero-cost work takes no event.
//
//ddbmlint:hotpath cohort CPU request pinned by TestTxnPathAllocFree
func (c *cohortRun) useCPU(cpu *resource.CPU, inst float64, next uint8) bool {
	c.pc = next
	if inst <= 0 {
		return false
	}
	cpu.UseAsync(inst, c.wakeFn)
	return true
}

// writeFirst reports whether the cohort claims write permission at the
// page's first access. For pages the transaction will update, the locking
// algorithms can claim it up front (the update set is known) or
// read-then-convert (§2.2 literally); timestamp algorithms always see the
// read first so their read rules apply.
func (c *cohortRun) writeFirst(a *workload.Access) bool {
	return a.Write && !c.m.cfg.UpgradeWriteLocks && locksUpFront(c.m.cfg.Algorithm)
}

// finish ends the work phase, on every exit path: it closes the
// observability state and passes the reference loadCohort took to the
// done report of a completed phase, or drops it. A cohort whose work
// phase started after its attempt was aborted records no span: it would
// lie past the attempt's end.
//
//ddbmlint:hotpath cohort exit pinned by TestTxnPathAllocFree
func (c *cohortRun) finish(completed bool) {
	m := c.m
	if m.activeCohorts != nil {
		m.activeCohorts[c.meta.Node]--
	}
	if m.ft != nil {
		c.phase = phaseExited
	}
	if c.spanned {
		m.tracer.Complete(obs.KindCohort, "cohort", c.meta.Node, c.meta.Txn.ID, c.attempt, c.spanAt)
	}
	if completed {
		m.net.Send(c.meta.Node, m.hostID, c, tagCohortDone)
		return
	}
	c.a.release()
}

// locksUpFront reports whether the algorithm can usefully claim write
// permission at first access: only the locking algorithms distinguish the
// request modes before commit. BTO must see the read first (its read rule
// orders the read against pending writes), and OPT/NO_DC grant everything
// anyway, so they always use the read-then-write sequence.
func locksUpFront(k cc.Kind) bool { return k == cc.TwoPL || k == cc.WoundWait }

// reportSelfAbort tells the coordinator this cohort's access was rejected
// by concurrency control. If the attempt is already being aborted the
// coordinator knows, so nothing is sent.
//
//ddbmlint:hotpath cc-reject report pinned by TestTxnPathAllocFree
func (m *Machine) reportSelfAbort(c *cohortRun) {
	m.tracer.Instant("cc-reject", c.meta.Node, c.meta.Txn.ID, c.attempt, "")
	if c.meta.Txn.AbortRequested {
		return
	}
	c.a.retain()
	m.net.Send(c.meta.Node, m.hostID, c, tagCohortSelfAbort)
}
