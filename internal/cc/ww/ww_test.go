package ww

import (
	"testing"

	"ddbm/internal/cc"
	"ddbm/internal/cc/cctest"
	"ddbm/internal/db"
	"ddbm/internal/sim"
)

func pg(n int) db.PageID { return db.PageID{File: 0, Page: n} }

func newTxn(id int64) *cc.TxnMeta { return &cc.TxnMeta{ID: id, TS: id} }

func TestKindAndGlobal(t *testing.T) {
	a := New()
	if a.Kind() != cc.WoundWait {
		t.Fatal("wrong kind")
	}
	a.StartGlobal(nil) // must be a no-op, nil-safe
	m := a.NewManager(cc.Env{Sim: sim.New(1), Node: 0})
	if m.Kind() != cc.WoundWait {
		t.Fatal("manager wrong kind")
	}
}

func TestOlderWoundsYounger(t *testing.T) {
	s := sim.New(1)
	mi := New().NewManager(cc.Env{Sim: s, Node: 0})
	m := mi.(*manager)
	young := &cc.CohortMeta{Txn: newTxn(5), Node: 0}
	old := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	wounded := false
	young.Txn.OnAbort = func(fromNode int, reason string) {
		wounded = true
		if reason != "wounded" {
			t.Errorf("reason %q", reason)
		}
		mi.Abort(young) // coordinator delivers the abort
	}
	var oldOut cc.Outcome
	var oldGrantedAt sim.Time
	s.Spawn("young", func(p *sim.Proc) {
		cctest.Await(p, young, mi.Access(young, pg(1), true))
	})
	s.Spawn("old", func(p *sim.Proc) {
		p.Delay(10)
		oldOut = cctest.Await(p, old, mi.Access(old, pg(1), true)) // older: wounds the holder, waits
		oldGrantedAt = s.Now()
	})
	s.Run(1000)
	if !wounded {
		t.Fatal("younger holder not wounded")
	}
	if oldOut != cc.Granted {
		t.Fatalf("old outcome %v, want granted", oldOut)
	}
	if oldGrantedAt != 10 {
		t.Fatalf("old granted at %v, want 10 (immediately after wound release)", oldGrantedAt)
	}
	if m.Wounds() != 1 {
		t.Fatalf("wound count %d, want 1", m.Wounds())
	}
}

func TestYoungerWaitsForOlder(t *testing.T) {
	s := sim.New(1)
	mi := New().NewManager(cc.Env{Sim: s, Node: 0})
	old := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	young := &cc.CohortMeta{Txn: newTxn(5), Node: 0}
	aborted := false
	old.Txn.OnAbort = func(int, string) { aborted = true }
	var youngOut cc.Outcome
	var youngAt sim.Time
	s.Spawn("old", func(p *sim.Proc) {
		cctest.Await(p, old, mi.Access(old, pg(1), true))
		p.Delay(30)
		old.Txn.State = cc.Committing
		mi.Commit(old)
	})
	s.Spawn("young", func(p *sim.Proc) {
		p.Delay(5)
		youngOut = cctest.Await(p, young, mi.Access(young, pg(1), true))
		youngAt = s.Now()
	})
	s.Run(1000)
	if aborted {
		t.Fatal("older holder was wounded by a younger requester")
	}
	if youngOut != cc.Granted || youngAt != 30 {
		t.Fatalf("young: %v at %v, want granted at 30", youngOut, youngAt)
	}
	if mi.(*manager).Wounds() != 0 {
		t.Fatal("wound counted for younger-waits case")
	}
}

func TestWoundIgnoredInSecondPhase(t *testing.T) {
	s := sim.New(1)
	mi := New().NewManager(cc.Env{Sim: s, Node: 0})
	young := &cc.CohortMeta{Txn: newTxn(5), Node: 0}
	old := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	young.Txn.OnAbort = func(int, string) {
		t.Error("wound delivered to committing transaction")
	}
	var oldAt sim.Time
	s.Spawn("young", func(p *sim.Proc) {
		cctest.Await(p, young, mi.Access(young, pg(1), true))
		young.Txn.State = cc.Committing // commit decision made
		p.Delay(40)
		mi.Commit(young)
	})
	s.Spawn("old", func(p *sim.Proc) {
		p.Delay(10)
		if cctest.Await(p, old, mi.Access(old, pg(1), true)) == cc.Granted {
			oldAt = s.Now()
		}
	})
	s.Run(1000)
	if oldAt != 40 {
		t.Fatalf("old granted at %v, want 40 (waited for the committing younger txn)", oldAt)
	}
	if mi.(*manager).Wounds() != 0 {
		t.Fatal("immune wound was counted")
	}
}

func TestSharedReadsNoWounds(t *testing.T) {
	s := sim.New(1)
	mi := New().NewManager(cc.Env{Sim: s, Node: 0})
	n := 0
	for i := 0; i < 4; i++ {
		co := &cc.CohortMeta{Txn: newTxn(int64(i + 1)), Node: 0}
		co.Txn.OnAbort = func(int, string) { t.Error("read sharing caused a wound") }
		s.Spawn("r", func(p *sim.Proc) {
			if cctest.Await(p, co, mi.Access(co, pg(1), false)) == cc.Granted {
				n++
			}
		})
	}
	s.Run(100)
	if n != 4 {
		t.Fatalf("%d readers granted, want 4", n)
	}
}

func TestUpgradeWoundsYoungerReader(t *testing.T) {
	// Old reads, young reads, old upgrades: the young reader (standing in
	// the way of the upgrade) gets wounded.
	s := sim.New(1)
	mi := New().NewManager(cc.Env{Sim: s, Node: 0})
	old := &cc.CohortMeta{Txn: newTxn(1), Node: 0}
	young := &cc.CohortMeta{Txn: newTxn(9), Node: 0}
	young.Txn.OnAbort = func(int, string) { mi.Abort(young) }
	var upOut cc.Outcome
	s.Spawn("old", func(p *sim.Proc) {
		cctest.Await(p, old, mi.Access(old, pg(1), false))
		p.Delay(10)
		upOut = cctest.Await(p, old, mi.Access(old, pg(1), true))
	})
	s.Spawn("young", func(p *sim.Proc) {
		p.Delay(1)
		cctest.Await(p, young, mi.Access(young, pg(1), false))
	})
	s.Run(1000)
	if upOut != cc.Granted {
		t.Fatalf("upgrade outcome %v, want granted after wound", upOut)
	}
	if !young.Txn.AbortRequested {
		t.Fatal("young reader not wounded by upgrade")
	}
}

func TestNoDeadlockEverProperty(t *testing.T) {
	// Wound-wait's invariant: the waits-for graph never contains a cycle,
	// because only younger-waits-for-older edges persist. Drive a random
	// workload and assert acyclicity throughout.
	s := sim.New(77)
	mi := New().NewManager(cc.Env{Sim: s, Node: 0})
	m := mi.(*manager)
	r := s.Rand()
	for i := 0; i < 16; i++ {
		id := int64(i + 1)
		co := &cc.CohortMeta{Txn: newTxn(id), Node: 0}
		co.Txn.OnAbort = func(int, string) {
			s.After(float64(r.Intn(3)), func() { mi.Abort(co) })
		}
		s.Spawn("w", func(p *sim.Proc) {
			for j := 0; j < 6; j++ {
				if co.Txn.AbortRequested {
					return
				}
				page := pg(r.Intn(3))
				write := r.Intn(2) == 0
				if cctest.Await(p, co, mi.Access(co, page, write)) == cc.Aborted {
					return
				}
				if cc.HasCycle(m.LockTable().AppendWaitsForEdges(0, nil)) {
					t.Error("wound-wait produced a waits-for cycle")
					return
				}
				p.Delay(float64(r.Intn(5)))
			}
			co.Txn.State = cc.Committing
			mi.Commit(co)
		})
	}
	s.Run(100000)
	if !m.LockTable().Empty() {
		// Cohorts killed at shutdown may hold locks; drain instead: this
		// check only fires if the run finished naturally above.
		t.Log("note: table not empty at cutoff (in-flight cohorts)")
	}
}
