package twopl

import (
	"testing"

	"ddbm/internal/cc"
	"ddbm/internal/cc/cctest"
	"ddbm/internal/db"
	"ddbm/internal/sim"
)

func TestTimeoutBreaksDeadlock(t *testing.T) {
	s := sim.New(1)
	alg := NewWithTimeout(100)
	m := alg.NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	alg.StartGlobal(nil) // must be a nil-safe no-op in timeout mode

	a := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	b := &cc.CohortMeta{Txn: newTxn(2), Node: 0}
	for _, co := range []*cc.CohortMeta{a, b} {
		co := co
		co.Txn.OnAbort = func(int, string) {
			s.After(1, func() { m.Abort(co) })
		}
	}
	out := map[int64]cc.Outcome{}
	s.Spawn("a", func(p *sim.Proc) {
		cctest.Await(p, a, m.Access(a, pg(1), true))
		p.Delay(10)
		out[1] = cctest.Await(p, a, m.Access(a, pg(2), true))
		if out[1] == cc.Granted {
			a.Txn.State = cc.Committing
			m.Commit(a)
		}
	})
	s.Spawn("b", func(p *sim.Proc) {
		p.Delay(1)
		cctest.Await(p, b, m.Access(b, pg(2), true))
		p.Delay(10)
		out[2] = cctest.Await(p, b, m.Access(b, pg(1), true))
	})
	s.Run(10000)
	// Both wait; both time out around t=110-111 (no detection picks a
	// single victim in the pure timeout scheme) — the essential behaviour
	// is that neither waits forever.
	if out[1] != cc.Aborted && out[2] != cc.Aborted {
		t.Fatalf("deadlock survived the timeout: %v", out)
	}
	if m.Timeouts() == 0 {
		t.Fatal("no timeout recorded")
	}
}

func TestTimeoutNotFiredOnShortWait(t *testing.T) {
	s := sim.New(1)
	m := NewWithTimeout(1000).NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	holder := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	waiter := &cc.CohortMeta{Txn: newTxn(2), Node: 0}
	waiter.Txn.OnAbort = func(int, string) { t.Error("short wait aborted") }
	var out cc.Outcome
	s.Spawn("holder", func(p *sim.Proc) {
		cctest.Await(p, holder, m.Access(holder, pg(1), true))
		p.Delay(50) // well under the timeout
		holder.Txn.State = cc.Committing
		m.Commit(holder)
	})
	s.Spawn("waiter", func(p *sim.Proc) {
		p.Delay(1)
		out = cctest.Await(p, waiter, m.Access(waiter, pg(1), true))
		if out == cc.Granted {
			waiter.Txn.State = cc.Committing
			m.Commit(waiter)
		}
	})
	s.Run(10000)
	if out != cc.Granted {
		t.Fatalf("waiter outcome %v", out)
	}
	if m.Timeouts() != 0 {
		t.Fatal("timeout fired for a wait shorter than the limit")
	}
}

func TestPrepareDeferredAcquiresAndVotes(t *testing.T) {
	s := sim.New(1)
	m := New(1000).NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	co := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	voted := false
	var vote bool
	m.PrepareDeferred(co, []db.PageID{pg(1), pg(2)}, func(ok bool) {
		voted = true
		vote = ok
	})
	s.Run(100)
	if !voted || !vote {
		t.Fatalf("deferred prepare voted=%v ok=%v", voted, vote)
	}
	if mode, held := m.lt.Holds(co, pg(1)); !held || mode != cc.LockX {
		t.Fatal("deferred prepare did not take the X lock")
	}
	co.Txn.State = cc.Committing
	m.Commit(co)
	if !m.lt.Empty() {
		t.Fatal("locks leaked after commit")
	}
}

func TestPrepareDeferredDeadlockVictimVotesNo(t *testing.T) {
	// Two transactions defer write locks on each other's pages: their
	// prepare phases deadlock; local detection kills the younger, which
	// votes no; the older votes yes.
	s := sim.New(1)
	m := New(1000).NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	old := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	young := &cc.CohortMeta{Txn: newTxn(2), Node: 0}
	for _, co := range []*cc.CohortMeta{old, young} {
		co := co
		co.Txn.OnAbort = func(int, string) {
			s.After(1, func() { m.Abort(co) })
		}
	}
	votes := map[int64]bool{}
	// Work phase: each transaction already holds one page...
	s.Spawn("setup", func(p *sim.Proc) {
		cctest.Await(p, old, m.Access(old, pg(1), true))
		cctest.Await(p, young, m.Access(young, pg(2), true))
		old.Txn.State = cc.Preparing
		young.Txn.State = cc.Preparing
		// ...and each defers its write lock on the other's page: a cycle
		// that only forms during the prepare phase.
		m.PrepareDeferred(old, []db.PageID{pg(2)}, func(ok bool) { votes[1] = ok })
		m.PrepareDeferred(young, []db.PageID{pg(1)}, func(ok bool) { votes[2] = ok })
	})
	s.Run(10000)
	if len(votes) != 2 {
		t.Fatalf("votes %v: a deferred prepare never completed", votes)
	}
	if !votes[1] || votes[2] {
		t.Fatalf("votes %v, want old=yes young=no", votes)
	}
}

func TestPrepareDeferredAbortedTxnVotesNoImmediately(t *testing.T) {
	s := sim.New(1)
	m := New(1000).NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	co := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	co.Txn.AbortRequested = true
	var vote bool
	voted := false
	m.PrepareDeferred(co, []db.PageID{pg(1)}, func(ok bool) { voted = true; vote = ok })
	s.Run(100)
	if !voted || vote {
		t.Fatalf("aborting txn deferred prepare: voted=%v vote=%v, want no", voted, vote)
	}
	if !m.lt.Empty() {
		t.Fatal("aborting deferred prepare took locks")
	}
}

func TestStaleTimerDoesNotAbortLaterWait(t *testing.T) {
	// Wait 1 resolves quickly; its timer fires while the cohort is in a
	// *different* wait that has not exceeded the timeout. The stale timer
	// must not abort it.
	s := sim.New(1)
	m := NewWithTimeout(100).NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	h1 := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	h2 := &cc.CohortMeta{Txn: newTxn(2), Node: 0}
	w := &cc.CohortMeta{Txn: newTxn(3), Node: 0}
	w.Txn.OnAbort = func(int, string) { t.Error("stale timer aborted a healthy wait") }
	s.Spawn("h1", func(p *sim.Proc) {
		cctest.Await(p, h1, m.Access(h1, pg(1), true))
		p.Delay(50)
		h1.Txn.State = cc.Committing
		m.Commit(h1) // releases pg1 at t=50, waiter 1st wait lasted 49ms
	})
	s.Spawn("h2", func(p *sim.Proc) {
		cctest.Await(p, h2, m.Access(h2, pg(2), true))
		p.Delay(130)
		h2.Txn.State = cc.Committing
		m.Commit(h2) // releases pg2 at t=130; waiter's 2nd wait = 80ms < 100
	})
	var out cc.Outcome
	s.Spawn("w", func(p *sim.Proc) {
		p.Delay(1)
		if cctest.Await(p, w, m.Access(w, pg(1), true)) != cc.Granted { // waits 1..50
			t.Error("first wait failed")
			return
		}
		out = cctest.Await(p, w, m.Access(w, pg(2), true)) // waits 50..130; stale timer fires ~101
	})
	s.Run(10000)
	if out != cc.Granted {
		t.Fatalf("second wait outcome %v, want granted", out)
	}
	if m.Timeouts() != 0 {
		t.Fatalf("%d timeouts fired", m.Timeouts())
	}
}

func TestPrepareDeferredUpgradesHeldReadLock(t *testing.T) {
	// O2PL's common case: the cohort read the page (S) during its work
	// phase and upgrades to X at prepare.
	s := sim.New(1)
	m := NewO2PL(1000).NewManager(cc.Env{Sim: s, Node: 0}).(*manager)
	if m.Kind() != cc.O2PL {
		t.Fatal("manager kind not O2PL")
	}
	co := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	other := &cc.CohortMeta{Txn: newTxn(2), Node: 0}
	other.Txn.OnAbort = func(int, string) { s.After(1, func() { m.Abort(other) }) }
	var vote bool
	s.Spawn("setup", func(p *sim.Proc) {
		if cctest.Await(p, co, m.Access(co, pg(1), false)) != cc.Granted {
			t.Error("read rejected")
			return
		}
		if cctest.Await(p, other, m.Access(other, pg(1), false)) != cc.Granted {
			t.Error("second read rejected")
			return
		}
		co.Txn.State = cc.Preparing
		m.PrepareDeferred(co, []db.PageID{pg(1)}, func(ok bool) { vote = ok })
		// The upgrade waits for the other reader; release it shortly.
		p.Delay(10)
		other.Txn.State = cc.Committing
		m.Commit(other)
	})
	s.Run(1000)
	if !vote {
		t.Fatal("upgrade-at-prepare never granted")
	}
	if mode, held := m.lt.Holds(co, pg(1)); !held || mode != cc.LockX {
		t.Fatal("upgrade did not leave an X lock")
	}
}
