package commit

import (
	"testing"

	"ddbm/internal/cc"
	"ddbm/internal/db"
	"ddbm/internal/network"
	"ddbm/internal/sim"
)

// fakeMgr is a minimal cc.Manager: every access granted, Prepare votes as
// configured, and commit/abort calls are counted per cohort.
type fakeMgr struct {
	prepareOK bool
	onPrepare func() // runs before the vote is computed
	prepares  int
	commits   int
	aborts    int
}

func (f *fakeMgr) Kind() cc.Kind                                               { return cc.NoDC }
func (f *fakeMgr) Access(co *cc.CohortMeta, page db.PageID, w bool) cc.Outcome { return cc.Granted }
func (f *fakeMgr) Prepare(co *cc.CohortMeta) bool {
	f.prepares++
	if f.onPrepare != nil {
		f.onPrepare()
	}
	return f.prepareOK
}
func (f *fakeMgr) Commit(co *cc.CohortMeta) { f.commits++ }
func (f *fakeMgr) Abort(co *cc.CohortMeta)  { f.aborts++ }
func (f *fakeMgr) PrepareDeferred(co *cc.CohortMeta, pages []db.PageID, done func(ok bool)) {
	done(f.prepareOK)
}

// testEnv is a mock Env over a real simulator: message sends deliver after
// zero delay (or route's, when set), log forces take one simulated
// millisecond, and every call is counted.
type testEnv struct {
	s    *sim.Sim
	host int
	mgrs []*fakeMgr // indexed by node; host has no manager
	// route, when set, takes over delivery of every protocol envelope
	// after it is counted.
	route func(to int, h network.Handler, tag int)

	logging     bool
	ts          int64
	sends       int
	forces      int
	abortForces int
	installs    []int
	records     int
	prepared    int
	decided     []bool
	refs        int // Retain/Release balance; must drain to zero
}

func newTestEnv(nodes int, logging bool) *testEnv {
	e := &testEnv{s: sim.New(1), host: nodes, logging: logging}
	for i := 0; i < nodes; i++ {
		e.mgrs = append(e.mgrs, &fakeMgr{prepareOK: true})
	}
	return e
}

func (e *testEnv) Host() int { return e.host }
func (e *testEnv) Send(from, to int, h network.Handler, tag int) {
	e.sends++
	if e.route != nil && h != nil {
		e.route(to, h, tag)
		return
	}
	e.s.After(0, func() {
		if h != nil {
			h.HandleMsg(tag)
		}
	})
}
func (e *testEnv) Retain()                     { e.refs++ }
func (e *testEnv) Release()                    { e.refs-- }
func (e *testEnv) Manager(node int) cc.Manager { return e.mgrs[node] }
func (e *testEnv) NextTS() int64               { e.ts++; return e.ts }
func (e *testEnv) Logging() bool               { return e.logging }
func (e *testEnv) ForceLog(p *sim.Proc, abortPath bool) {
	e.countForce(abortPath)
	p.Delay(1)
}
func (e *testEnv) ForceLogAsync(node int, abortPath bool, done func()) {
	e.countForce(abortPath)
	e.s.After(1, done)
}
func (e *testEnv) countForce(abortPath bool) {
	e.forces++
	if abortPath {
		e.abortForces++
	}
}
func (e *testEnv) InstallCommit(c *Cohort) { e.installs = append(e.installs, c.Idx) }
func (e *testEnv) RecordCommit()           { e.records++ }
func (e *testEnv) Prepared()               { e.prepared++ }
func (e *testEnv) Decided(committed bool)  { e.decided = append(e.decided, committed) }

// The fault hooks are no-ops in the fault-free protocol tests.
func (e *testEnv) CohortInDoubt(c *Cohort)                  {}
func (e *testEnv) CohortResolved(c *Cohort, committed bool) {}
func (e *testEnv) Down(node int) bool                       { return false }

// newTxn builds a transaction with one cohort per node; readOnly marks
// which cohorts carry no updates.
func (e *testEnv) newTxn(readOnly ...bool) *Txn {
	meta := &cc.TxnMeta{ID: 1, TS: 1, AttemptTS: 1}
	t := &Txn{}
	t.Reset(meta)
	for i := range e.mgrs {
		c := &Cohort{Meta: &cc.CohortMeta{Txn: meta, Node: i}}
		t.Attach(c)
		c.ReadOnly = i < len(readOnly) && readOnly[i]
	}
	return t
}

// runCommit drives Protocol.Commit (and, on failure, Abort — mirroring the
// transaction manager) inside a simulated coordinator process.
func runCommit(t *testing.T, k Kind, env *testEnv, txn *Txn) bool {
	t.Helper()
	proto, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	committed := false
	env.s.Spawn("coordinator", func(p *sim.Proc) {
		committed = proto.Commit(p, env, txn)
		if !committed {
			txn.Meta.AbortRequested = true
			proto.Abort(p, env, txn, len(txn.Cohorts))
		}
	})
	env.s.Run(1000)
	if env.refs != 0 {
		t.Errorf("attempt references leaked: Retain/Release balance = %d after the run drained", env.refs)
	}
	return committed
}

// runAbort drives only the abort path for a fully loaded transaction.
func runAbort(t *testing.T, k Kind, env *testEnv, txn *Txn) {
	t.Helper()
	proto, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	env.s.Spawn("coordinator", func(p *sim.Proc) {
		txn.Meta.AbortRequested = true
		proto.Abort(p, env, txn, len(txn.Cohorts))
	})
	env.s.Run(1000)
	if env.refs != 0 {
		t.Errorf("attempt references leaked: Retain/Release balance = %d after the run drained", env.refs)
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip of %v failed: %v, %v", k, got, err)
		}
	}
	if _, err := ParseKind("3PC"); err == nil {
		t.Error("ParseKind accepted an unknown protocol")
	}
	if Kinds()[0] != CentralizedTwoPC {
		t.Error("the default protocol must lead the Kinds list")
	}
	if Kind(0) != CentralizedTwoPC {
		t.Error("the zero Kind must be the centralized default (golden-config compatibility)")
	}
	if _, err := New(Kind(42)); err == nil {
		t.Error("New accepted an unknown kind")
	}
}

// TestCentralizedCommitCosts pins the centralized protocol's per-commit
// costs for an N-cohort update transaction with logging: 4N messages after
// the work phase (prepare, vote, commit, ack) and N+1 forces (one prepare
// record per cohort plus the coordinator's commit record).
func TestCentralizedCommitCosts(t *testing.T) {
	env := newTestEnv(3, true)
	txn := env.newTxn()
	if !runCommit(t, CentralizedTwoPC, env, txn) {
		t.Fatal("uncontested commit failed")
	}
	if env.sends != 4*3 {
		t.Errorf("sends = %d, want 12", env.sends)
	}
	if env.forces != 3+1 || env.abortForces != 0 {
		t.Errorf("forces = %d (%d abort), want 4 (0 abort)", env.forces, env.abortForces)
	}
	if env.prepared != 1 || len(env.decided) != 1 || !env.decided[0] || env.records != 1 {
		t.Errorf("observations: prepared=%d decided=%v records=%d", env.prepared, env.decided, env.records)
	}
	if len(env.installs) != 3 {
		t.Errorf("installs = %v, want all three cohorts", env.installs)
	}
	for i, m := range env.mgrs {
		if m.prepares != 1 || m.commits != 1 || m.aborts != 0 {
			t.Errorf("node %d: prepares=%d commits=%d aborts=%d", i, m.prepares, m.commits, m.aborts)
		}
	}
	if txn.Meta.State != cc.Committing {
		t.Errorf("state = %v, want Committing", txn.Meta.State)
	}
}

// TestLoggingOffNoForces: with logging unmodeled no protocol forces
// anything, on either path.
func TestLoggingOffNoForces(t *testing.T) {
	for _, k := range Kinds() {
		env := newTestEnv(2, false)
		if !runCommit(t, k, env, env.newTxn()) {
			t.Fatalf("%v: commit failed", k)
		}
		env2 := newTestEnv(2, false)
		runAbort(t, k, env2, env2.newTxn())
		if env.forces != 0 || env2.forces != 0 {
			t.Errorf("%v: forces commit=%d abort=%d, want 0", k, env.forces, env2.forces)
		}
	}
}

// TestReadOnlyShortCircuit: under the presumed variants a read-only cohort
// votes READ — it commits locally at prepare time, forces nothing, and
// receives no phase-two message; the update cohort still pays full price.
func TestReadOnlyShortCircuit(t *testing.T) {
	for _, k := range []Kind{PresumedAbort, PresumedCommit} {
		env := newTestEnv(2, true)
		txn := env.newTxn(true, false) // cohort 0 read-only, cohort 1 updates
		if !runCommit(t, k, env, txn) {
			t.Fatalf("%v: commit failed", k)
		}
		ro := env.mgrs[0]
		if ro.prepares != 1 {
			t.Errorf("%v: read-only cohort must still run its local first phase (certification)", k)
		}
		if ro.commits != 1 {
			t.Errorf("%v: read-only cohort not released at vote time", k)
		}
		if got := len(env.installs); got != 1 || env.installs[0] != 1 {
			t.Errorf("%v: installs = %v, want only the update cohort", k, env.installs)
		}
		// Prepare forces: none for the READ voter, one for the update
		// cohort; plus the decision force and, for PC, the collecting
		// record.
		wantForces := 2
		if k == PresumedCommit {
			wantForces = 3
		}
		if env.forces != wantForces {
			t.Errorf("%v: forces = %d, want %d", k, env.forces, wantForces)
		}
		// Messages: 2 prepares + 2 votes + 1 commit, plus the commit ack
		// only under presumed abort.
		wantSends := 5
		if k == PresumedAbort {
			wantSends = 6
		}
		if env.sends != wantSends {
			t.Errorf("%v: sends = %d, want %d", k, env.sends, wantSends)
		}
	}
}

// TestFullyReadOnlyTransaction: when every cohort votes READ the presumed
// protocols have no phase two and presumed abort forces nothing at all
// (presumed commit already paid its collecting record).
func TestFullyReadOnlyTransaction(t *testing.T) {
	for _, k := range []Kind{PresumedAbort, PresumedCommit} {
		env := newTestEnv(2, true)
		txn := env.newTxn(true, true)
		if !runCommit(t, k, env, txn) {
			t.Fatalf("%v: commit failed", k)
		}
		if env.sends != 4 { // 2 prepares + 2 READ votes, nothing after
			t.Errorf("%v: sends = %d, want 4", k, env.sends)
		}
		wantForces := 0
		if k == PresumedCommit {
			wantForces = 1 // the collecting record
		}
		if env.forces != wantForces {
			t.Errorf("%v: forces = %d, want %d", k, env.forces, wantForces)
		}
		for i, m := range env.mgrs {
			if m.commits != 1 {
				t.Errorf("%v: node %d never released", k, i)
			}
		}
		if len(env.installs) != 0 {
			t.Errorf("%v: installs = %v for a read-only transaction", k, env.installs)
		}
	}
}

// TestDeferredSuppressesShortCircuit: when any cohort still has write
// permissions to acquire in the prepare phase, the transaction's lock
// point has not passed, so no cohort may release early — the READ vote is
// suppressed for the whole transaction.
func TestDeferredSuppressesShortCircuit(t *testing.T) {
	env := newTestEnv(2, false)
	txn := env.newTxn(true, false)
	txn.Cohorts[1].Deferred = []db.PageID{{File: 1, Page: 1}}
	if !runCommit(t, PresumedAbort, env, txn) {
		t.Fatal("commit failed")
	}
	if env.mgrs[0].commits != 1 {
		t.Fatal("read-only cohort never committed")
	}
	// The read-only cohort must have been committed by a phase-two
	// message, not at vote time: both cohorts get commit messages and both
	// acknowledge (presumed abort acks commits), after 2 prepares + 2
	// votes.
	if env.sends != 8 {
		t.Errorf("sends = %d, want 8 (no cohort short-circuited)", env.sends)
	}
}

// TestVoteNoAborts: a no vote fails the commit and the abort path cleans
// up every cohort exactly once.
func TestVoteNoAborts(t *testing.T) {
	for _, k := range Kinds() {
		env := newTestEnv(3, true)
		env.mgrs[1].prepareOK = false
		txn := env.newTxn()
		if runCommit(t, k, env, txn) {
			t.Fatalf("%v: committed despite a no vote", k)
		}
		for i, m := range env.mgrs {
			if m.aborts != 1 {
				t.Errorf("%v: node %d aborts = %d, want 1", k, i, m.aborts)
			}
			if m.commits != 0 {
				t.Errorf("%v: node %d committed during a failed attempt", k, i)
			}
		}
		if txn.Meta.State != cc.Finished {
			t.Errorf("%v: state = %v, want Finished", k, txn.Meta.State)
		}
		if env.records != 0 || len(env.installs) != 0 {
			t.Errorf("%v: auditor or installs reached on the abort path", k)
		}
	}
}

// TestAbortSignalDuringVotes: an abort notice that arrives while votes are
// being collected fails the prepare phase immediately.
func TestAbortSignalDuringVotes(t *testing.T) {
	for _, k := range Kinds() {
		env := newTestEnv(2, false)
		txn := env.newTxn()
		// Delivered at the first cohort's prepare, with the vote wait open.
		env.mgrs[0].onPrepare = func() { txn.Fail(-1) }
		if runCommit(t, k, env, txn) {
			t.Fatalf("%v: committed past an abort signal", k)
		}
		if env.prepared != 0 {
			t.Errorf("%v: prepare phase completed past an abort signal", k)
		}
	}
}

// TestAbortRacedBehindLastVote: an abort requested after the votes are in
// but before the decision (e.g. while the commit record is being forced)
// must win — the attempt aborts.
func TestAbortRacedBehindLastVote(t *testing.T) {
	for _, k := range Kinds() {
		env := newTestEnv(2, true)
		txn := env.newTxn()
		// The last cohort's prepare sneaks the abort request in: it is
		// observed only after vote collection, at the pre-decision checks.
		env.mgrs[1].onPrepare = func() { txn.Meta.AbortRequested = true }
		if runCommit(t, k, env, txn) {
			t.Fatalf("%v: committed despite a pre-decision abort request", k)
		}
		if txn.Meta.State != cc.Finished {
			t.Errorf("%v: state = %v, want Finished", k, txn.Meta.State)
		}
	}
}

// TestAbortPathCosts pins the abort fan-out per variant for N loaded
// cohorts with logging: centralized sends 2N (abort + ack) and forces
// nothing; presumed abort sends N and forces nothing; presumed commit
// sends 2N and forces N abort records, all attributed to the abort path.
func TestAbortPathCosts(t *testing.T) {
	const n = 3
	cases := []struct {
		kind        Kind
		sends       int
		abortForces int
	}{
		{CentralizedTwoPC, 2 * n, 0},
		{PresumedAbort, n, 0},
		{PresumedCommit, 2 * n, n},
	}
	for _, tc := range cases {
		env := newTestEnv(n, true)
		txn := env.newTxn()
		runAbort(t, tc.kind, env, txn)
		if env.sends != tc.sends {
			t.Errorf("%v: sends = %d, want %d", tc.kind, env.sends, tc.sends)
		}
		if env.forces != tc.abortForces || env.abortForces != tc.abortForces {
			t.Errorf("%v: forces = %d (%d abort), want %d", tc.kind, env.forces, env.abortForces, tc.abortForces)
		}
		for i, m := range env.mgrs {
			if m.aborts != 1 {
				t.Errorf("%v: node %d aborts = %d, want 1", tc.kind, i, m.aborts)
			}
		}
		if txn.Meta.State != cc.Finished {
			t.Errorf("%v: state = %v, want Finished", tc.kind, txn.Meta.State)
		}
		if len(env.decided) != 1 || env.decided[0] {
			t.Errorf("%v: decided = %v, want one abort decision", tc.kind, env.decided)
		}
	}
}

// TestPartialLoadAbort: aborting with only some cohorts loaded must fan
// out to exactly the loaded prefix.
func TestPartialLoadAbort(t *testing.T) {
	env := newTestEnv(3, false)
	txn := env.newTxn()
	proto, err := New(CentralizedTwoPC)
	if err != nil {
		t.Fatal(err)
	}
	env.s.Spawn("coordinator", func(p *sim.Proc) {
		txn.Meta.AbortRequested = true
		proto.Abort(p, env, txn, 2)
	})
	env.s.Run(1000)
	if env.mgrs[0].aborts != 1 || env.mgrs[1].aborts != 1 || env.mgrs[2].aborts != 0 {
		t.Errorf("abort fan-out hit the wrong cohorts: %d/%d/%d",
			env.mgrs[0].aborts, env.mgrs[1].aborts, env.mgrs[2].aborts)
	}
	if env.sends != 4 {
		t.Errorf("sends = %d, want 4 (two aborts + two acks)", env.sends)
	}
}

// collect runs one Collect in a coordinator process spawned at time 0 and
// returns its outcome and the instant it returned.
func collect(s *sim.Sim, txn *Txn, n int) (ok *bool, crit *int, at *sim.Time) {
	ok, crit, at = new(bool), new(int), new(sim.Time)
	s.Spawn("coordinator", func(p *sim.Proc) {
		*ok, *crit = txn.Collect(p, n)
		*at = s.Now()
	})
	return ok, crit, at
}

// TestNoticeAfterLastVoteDoesNotFailVotes: the wait settles in delivery
// order. An abort notice delivered in the same instant as the last YES
// vote, right after it, finds the wait already settled; it does not fail
// it, and the vote wait reports the last voter as critical.
func TestNoticeAfterLastVoteDoesNotFailVotes(t *testing.T) {
	env := newTestEnv(2, false)
	txn := env.newTxn()
	ok, crit, at := collect(env.s, txn, 2)
	env.s.After(1, func() { txn.Report(0) })
	env.s.After(2, func() {
		txn.Report(1)
		txn.Fail(-1)
	})
	env.s.Run(100)
	if !*ok || *crit != 1 || *at != 2 {
		t.Errorf("Collect = (%v, %d) at %v, want (true, 1) at 2", *ok, *crit, *at)
	}
	// The reverse order fails the wait on the notice.
	env = newTestEnv(2, false)
	txn = env.newTxn()
	ok, crit, _ = collect(env.s, txn, 2)
	env.s.After(1, func() { txn.Report(0) })
	env.s.After(2, func() {
		txn.Fail(-1)
		txn.Report(1)
	})
	env.s.Run(100)
	if *ok || *crit != -1 {
		t.Errorf("Collect = (%v, %d), want (false, -1)", *ok, *crit)
	}
}

// TestNoticeAfterSettleFailsNextCollect: an abort signal delivered after a
// work-phase wait settled is held, and the next Collect fails on it at
// once, reporting the signalling cohort, without parking. A wait of zero
// reports returns at once and leaves the signal held.
func TestNoticeAfterSettleFailsNextCollect(t *testing.T) {
	env := newTestEnv(2, false)
	txn := env.newTxn()
	var (
		first, zero, second bool
		crit                int
		at                  sim.Time
	)
	env.s.Spawn("coordinator", func(p *sim.Proc) {
		first, _ = txn.Collect(p, 1)
		p.Delay(5)
		zero, _ = txn.Collect(p, 0)
		second, crit = txn.Collect(p, 2)
		at = env.s.Now()
	})
	env.s.After(1, func() {
		txn.Report(0)
		txn.Fail(1) // a self-abort right behind the settling report
	})
	env.s.After(3, func() { txn.Fail(-1) }) // a second signal: the first stays held
	env.s.Run(100)
	if !first || !zero {
		t.Errorf("first wait ok = %v, zero wait ok = %v; want both true", first, zero)
	}
	if second || crit != 1 || at != 6 {
		t.Errorf("next Collect = (%v, %d) at %v, want (false, 1) at 6", second, crit, at)
	}
}

// TestCollectBurstResumesOnce: every delivery resumes a parked
// coordinator, but a burst of deliveries in one instant resumes it once,
// and a wait that is not yet settled parks it again.
func TestCollectBurstResumesOnce(t *testing.T) {
	env := newTestEnv(3, false)
	txn := env.newTxn()
	ok, crit, at := collect(env.s, txn, 3)
	env.s.After(1, func() {
		txn.Report(0)
		txn.Report(1)
	})
	env.s.After(2, func() { txn.Report(2) })
	env.s.Run(100)
	if !*ok || *crit != 2 || *at != 2 {
		t.Errorf("Collect = (%v, %d) at %v, want (true, 2) at 2", *ok, *crit, *at)
	}
	// Events: the spawn, two deliveries, and one resume per delivery.
	if got := env.s.EventsDispatched(); got != 5 {
		t.Errorf("events dispatched = %d, want 5", got)
	}
}

// abortWith runs the centralized abort path over every cohort in a
// coordinator process and returns the instant the coordinator forgot the
// attempt (-1 if it never did).
func abortWith(t *testing.T, env *testEnv, txn *Txn) sim.Time {
	t.Helper()
	proto, err := New(CentralizedTwoPC)
	if err != nil {
		t.Fatal(err)
	}
	done := sim.Time(-1)
	env.s.Spawn("coordinator", func(p *sim.Proc) {
		txn.Meta.AbortRequested = true
		proto.Abort(p, env, txn, len(txn.Cohorts))
		done = env.s.Now()
	})
	env.s.Run(1000)
	if env.refs != 0 {
		t.Errorf("attempt references leaked: Retain/Release balance = %d after the run drained", env.refs)
	}
	return done
}

// TestMarkDeadAckCountsOnce: a cohort marked dead while its abort ack is
// outstanding is acknowledged synthetically; its real ack, arriving later,
// counts nothing, so the coordinator still waits for the other cohort.
func TestMarkDeadAckCountsOnce(t *testing.T) {
	env := newTestEnv(2, false)
	txn := env.newTxn()
	// Aborts reach node 0 at 1 and node 1 at 10; acks take 1.
	env.route = func(to int, h network.Handler, tag int) {
		d := 1.0
		if tag == tagAbort && to == 1 {
			d = 10
		}
		env.s.After(d, func() { h.HandleMsg(tag) })
	}
	env.s.After(1.5, func() { txn.Cohorts[0].MarkDead() })
	if done := abortWith(t, env, txn); done != 11 {
		t.Errorf("coordinator forgot the attempt at %v, want 11 (cohort 1's ack)", done)
	}
	if !txn.Cohorts[0].Dead() || env.mgrs[0].aborts != 1 || env.mgrs[1].aborts != 1 {
		t.Errorf("dead = %v, aborts = %d/%d", txn.Cohorts[0].Dead(), env.mgrs[0].aborts, env.mgrs[1].aborts)
	}
}

// TestDroppedAbortEndsAckWait: an abort envelope discarded at a crashed
// node is acknowledged in its place, so the coordinator's ack wait ends
// without the node ever seeing the abort.
func TestDroppedAbortEndsAckWait(t *testing.T) {
	env := newTestEnv(2, false)
	txn := env.newTxn()
	env.route = func(to int, h network.Handler, tag int) {
		if tag == tagAbort && to == 1 {
			env.s.After(3, func() { h.(network.DropHandler).MsgDropped(tag) })
			return
		}
		env.s.After(1, func() { h.HandleMsg(tag) })
	}
	if done := abortWith(t, env, txn); done != 3 {
		t.Errorf("coordinator forgot the attempt at %v, want 3 (the drop)", done)
	}
	if env.mgrs[0].aborts != 1 || env.mgrs[1].aborts != 0 {
		t.Errorf("aborts = %d/%d, want 1/0", env.mgrs[0].aborts, env.mgrs[1].aborts)
	}
	if txn.Meta.State != cc.Finished {
		t.Errorf("state = %v, want Finished", txn.Meta.State)
	}
}
