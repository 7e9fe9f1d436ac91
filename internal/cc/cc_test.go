package cc

import (
	"testing"

	"ddbm/internal/sim"
)

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		TwoPL: "2PL", WoundWait: "WW", BTO: "BTO", OPT: "OPT", NoDC: "NO_DC",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(k), k.String(), want)
		}
		parsed, err := ParseKind(want)
		if err != nil || parsed != k {
			t.Errorf("ParseKind(%q) = %v, %v", want, parsed, err)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("ParseKind accepted garbage")
	}
}

func TestKindsOrder(t *testing.T) {
	ks := Kinds()
	if len(ks) != 5 {
		t.Fatalf("Kinds() has %d entries", len(ks))
	}
	// Paper presentation order: 2PL, BTO, WW, OPT, then the baseline.
	want := []Kind{TwoPL, BTO, WoundWait, OPT, NoDC}
	for i := range want {
		if ks[i] != want[i] {
			t.Fatalf("Kinds() = %v", ks)
		}
	}
}

func TestRequestAbortIdempotent(t *testing.T) {
	calls := 0
	m := &TxnMeta{ID: 1, TS: 1}
	m.OnAbort = func(fromNode int, reason string) { calls++ }
	if !m.RequestAbort(3, "first", CauseWound) {
		t.Error("first abort request refused")
	}
	if !m.RequestAbort(4, "second", CauseLocalDeadlock) {
		t.Error("repeat abort request should report accepted")
	}
	if calls != 1 {
		t.Errorf("OnAbort called %d times, want 1", calls)
	}
	if m.AbortReason != "first" {
		t.Errorf("reason %q, want the first one", m.AbortReason)
	}
	if m.AbortCause != CauseWound || m.AbortNode != 3 {
		t.Errorf("cause %v at node %d, want the first one (wound at 3)", m.AbortCause, m.AbortNode)
	}
}

func TestNoteCauseFirstWins(t *testing.T) {
	m := &TxnMeta{ID: 1}
	m.NoteCause(2, CauseBTOTooLate)
	m.NoteCause(5, CauseCoordinator)
	if m.AbortCause != CauseBTOTooLate || m.AbortNode != 2 {
		t.Errorf("cause %v at node %d, want bto-too-late at 2", m.AbortCause, m.AbortNode)
	}
	if m.AbortRequested {
		t.Error("NoteCause must not request the abort itself")
	}
}

func TestRequestAbortRefusedAfterCommitDecision(t *testing.T) {
	m := &TxnMeta{ID: 1, TS: 1, State: Committing}
	called := false
	m.OnAbort = func(int, string) { called = true }
	if m.RequestAbort(0, "wound", CauseWound) {
		t.Error("wound in commit phase two must be refused (not fatal)")
	}
	if called || m.AbortRequested {
		t.Error("refused abort mutated the transaction")
	}
}

func TestRequestAbortAllowedWhilePreparing(t *testing.T) {
	m := &TxnMeta{ID: 1, TS: 1, State: Preparing}
	if !m.RequestAbort(0, "wound", CauseWound) {
		t.Error("abort during phase one must be accepted")
	}
}

func TestAbortable(t *testing.T) {
	m := &TxnMeta{}
	if !m.Abortable() {
		t.Error("fresh txn should be abortable")
	}
	m.State = Committing
	if m.Abortable() {
		t.Error("committing txn should not be abortable")
	}
	m2 := &TxnMeta{AbortRequested: true}
	if m2.Abortable() {
		t.Error("already-aborting txn should not be abortable")
	}
}

// await drives Access-style waits from a test process: it stands in for
// the owner's continuation (parks on Blocked, resumes on Wake, reports the
// episode to OnBlocked) and returns the final verdict. The manager
// packages use cctest.Await, which this package cannot import.
func await(p *sim.Proc, co *CohortMeta, out Outcome) Outcome {
	if out != Blocked {
		return out
	}
	at := p.Sim().Now()
	co.Wake = p.Resume
	p.Suspend()
	if co.OnBlocked != nil {
		co.OnBlocked(co, p.Sim().Now()-at)
	}
	return co.Verdict()
}

// wakeCounter returns a cohort whose Wake schedules one continuation event
// that counts its firings, the way an owner's pre-bound wake does.
func wakeCounter(s *sim.Sim) (*CohortMeta, *int) {
	fired := 0
	co := &CohortMeta{Txn: &TxnMeta{ID: 1}}
	co.Wake = func() { s.Schedule(s.Now(), func() { fired++ }) }
	return co, &fired
}

func TestCohortBlockGrant(t *testing.T) {
	s := sim.New(1)
	co, fired := wakeCounter(s)
	if out := co.Block(); out != Blocked {
		t.Fatalf("Block with no verdict returned %v, want blocked", out)
	}
	if !co.Waiting() {
		t.Error("cohort not marked waiting")
	}
	s.Schedule(15, co.Grant)
	s.Run(100)
	if *fired != 1 {
		t.Errorf("grant after waiting ran %d continuations, want exactly 1", *fired)
	}
	// One event for the grant, one for the continuation it scheduled.
	if n := s.EventsDispatched(); n != 2 {
		t.Errorf("%d events dispatched, want 2", n)
	}
	if co.Verdict() != Granted {
		t.Errorf("verdict %v, want granted", co.Verdict())
	}
	if co.Waiting() {
		t.Error("cohort still waiting after grant")
	}
}

func TestCohortBlockDeny(t *testing.T) {
	s := sim.New(1)
	var out Outcome
	s.Spawn("cohort", func(p *sim.Proc) {
		co := &CohortMeta{Txn: &TxnMeta{ID: 1}}
		s.Schedule(5, co.Deny)
		out = await(p, co, co.Block())
	})
	s.Run(100)
	if out != Aborted {
		t.Errorf("outcome %v, want aborted", out)
	}
}

func TestGrantBeforeBlockPreResolves(t *testing.T) {
	// A queued request can be granted synchronously (its blocker releases
	// before the requester waits); Block must then return the verdict
	// without an event.
	s := sim.New(1)
	co, fired := wakeCounter(s)
	co.Grant() // verdict arrives before Block
	if out := co.Block(); out != Granted {
		t.Errorf("outcome %v, want granted", out)
	}
	if co.Waiting() {
		t.Error("pre-resolved Block left the cohort waiting")
	}
	s.Run(10)
	if *fired != 0 || s.EventsDispatched() != 0 {
		t.Errorf("pre-resolved Block woke %d continuations over %d events, want none", *fired, s.EventsDispatched())
	}
}

func TestDenyBeforeBlockPreResolves(t *testing.T) {
	s := sim.New(1)
	co, fired := wakeCounter(s)
	co.Deny()
	if out := co.Block(); out != Aborted {
		t.Errorf("outcome %v, want aborted", out)
	}
	s.Run(10)
	if *fired != 0 {
		t.Errorf("pre-resolved Block woke %d continuations, want none", *fired)
	}
}

// TestDenyAfterCrashResetWakesNothing: a crash drops a waiting cohort's
// continuation and clears its wait; a Deny from the sweep's cleanup must
// not wake the dropped continuation.
func TestDenyAfterCrashResetWakesNothing(t *testing.T) {
	s := sim.New(1)
	co, fired := wakeCounter(s)
	co.Block()
	co.CrashReset()
	if co.Waiting() {
		t.Error("cohort still waiting after CrashReset")
	}
	co.Deny()
	s.Run(10)
	if *fired != 0 || s.EventsDispatched() != 0 {
		t.Errorf("Deny after CrashReset woke %d continuations over %d events, want none", *fired, s.EventsDispatched())
	}
}

func TestOutcomeString(t *testing.T) {
	if Granted.String() != "granted" || Aborted.String() != "aborted" || Blocked.String() != "blocked" {
		t.Error("outcome strings wrong")
	}
}
