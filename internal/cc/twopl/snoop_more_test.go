package twopl

import (
	"testing"

	"ddbm/internal/cc"
	"ddbm/internal/cc/cctest"
	"ddbm/internal/db"
	"ddbm/internal/sim"
)

// buildThreeNodeCycle sets up T1->T2->T3->T1 across three nodes: Ti holds
// page 0 at node i-1 and wants page 0 at node i mod 3.
func buildThreeNodeCycle(t *testing.T, s *sim.Sim, alg *Algorithm) (mgrs []cc.Manager, outs map[int64]cc.Outcome) {
	t.Helper()
	for n := 0; n < 3; n++ {
		mgrs = append(mgrs, alg.NewManager(cc.Env{Sim: s, Node: n}))
	}
	outs = map[int64]cc.Outcome{}
	page := db.PageID{File: 0, Page: 0}
	for i := 0; i < 3; i++ {
		i := i
		id := int64(i + 1)
		txn := &cc.TxnMeta{ID: id, TS: id}
		holdAt := i
		wantAt := (i + 1) % 3
		coHold := &cc.CohortMeta{Txn: txn, Node: holdAt}
		coWant := &cc.CohortMeta{Txn: txn, Node: wantAt}
		txn.OnAbort = func(int, string) {
			// Coordinator surrogate: deliver aborts everywhere.
			s.After(1, func() {
				for n, m := range mgrs {
					_ = n
					m.Abort(coHold)
					m.Abort(coWant)
				}
			})
		}
		s.Spawn("txn", func(p *sim.Proc) {
			if cctest.Await(p, coHold, mgrs[holdAt].Access(coHold, page, true)) != cc.Granted {
				outs[id] = cc.Aborted
				return
			}
			p.Delay(5)
			outs[id] = cctest.Await(p, coWant, mgrs[wantAt].Access(coWant, page, true))
			if outs[id] == cc.Granted {
				txn.State = cc.Committing
				mgrs[holdAt].Commit(coHold)
				mgrs[wantAt].Commit(coWant)
			}
		})
	}
	return mgrs, outs
}

func TestSnoopResolvesThreeNodeCycle(t *testing.T) {
	s := sim.New(1)
	alg := New(100)
	mgrs, outs := buildThreeNodeCycle(t, s, alg)
	g := &fakeGlobal{s: s, mgrs: mgrs}
	alg.StartGlobal(g)
	s.Run(20000)
	granted, aborted := 0, 0
	for _, o := range outs {
		if o == cc.Granted {
			granted++
		} else {
			aborted++
		}
	}
	// Exactly one victim breaks a 3-cycle; the two survivors complete.
	if aborted != 1 || granted != 2 {
		t.Fatalf("outcomes %v: want 1 aborted, 2 granted", outs)
	}
	if outs[3] != cc.Aborted {
		t.Fatalf("victim should be the youngest (T3): %v", outs)
	}
}

func TestTimeoutAlsoResolvesThreeNodeCycle(t *testing.T) {
	s := sim.New(1)
	alg := NewWithTimeout(200)
	_, outs := buildThreeNodeCycle(t, s, alg)
	// No snoop at all in timeout mode.
	s.Run(20000)
	aborted := 0
	for _, o := range outs {
		if o == cc.Aborted {
			aborted++
		}
	}
	if aborted == 0 {
		t.Fatalf("timeout mode left the 3-cycle standing: %v", outs)
	}
}

func TestSnoopRotates(t *testing.T) {
	// Track which node plays snoop over several rounds.
	s := sim.New(1)
	alg := New(50)
	var mgrs []cc.Manager
	for n := 0; n < 3; n++ {
		mgrs = append(mgrs, alg.NewManager(cc.Env{Sim: s, Node: n}))
	}
	g := &rotationTracker{fakeGlobal: fakeGlobal{s: s, mgrs: mgrs}}
	alg.StartGlobal(g)
	s.Run(1000)
	if len(g.snoopers) < 6 {
		t.Fatalf("only %d snoop rounds in 1 s at 50 ms interval", len(g.snoopers))
	}
	// Round-robin: consecutive rounds use consecutive nodes.
	for i := 1; i < len(g.snoopers); i++ {
		if g.snoopers[i] != (g.snoopers[i-1]+1)%3 {
			t.Fatalf("snoop did not rotate round-robin: %v", g.snoopers)
		}
	}
}

// rotationTracker records the "from" node of the first gather message of
// each round.
type rotationTracker struct {
	fakeGlobal
	snoopers []int
	lastFrom int
	count    int
}

func (g *rotationTracker) SendControl(from, to int, deliver func()) {
	// Each round sends 2 requests from the snooper (3 nodes - itself).
	if g.count%4 == 0 { // 2 requests + 2 replies per round
		g.snoopers = append(g.snoopers, from)
	}
	g.count++
	g.fakeGlobal.SendControl(from, to, deliver)
}
