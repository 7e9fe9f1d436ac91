package sim

import (
	"math"
	"testing"
)

// These tests pin the process lifecycle edges that the crash-fault layer
// relies on: killing a process before it starts, mid-body and from inside
// another process body, and a body panic followed by Shutdown.

// TestKillBeforeStartSkipsBody: a process killed while its start event is
// still pending never runs its body, whether its coroutine is fresh or
// reused from the idle pool, and it leaves the live set at once.
func TestKillBeforeStartSkipsBody(t *testing.T) {
	s := New(1)
	ran := 0
	body := func(p *Proc) { ran++ }
	fresh := s.SpawnAt(10, "fresh", body)
	s.Kill(fresh)
	if n := s.LiveProcs(); n != 0 {
		t.Fatalf("%d live processes after killing a fresh unstarted process, want 0", n)
	}

	// Finish one body so the next spawn reuses an idle coroutine, then
	// kill that one before it starts, from an event callback.
	s.Spawn("warm", body)
	s.Step(math.Inf(1))
	if ran != 1 {
		t.Fatalf("warm-up body ran %d times, want 1", ran)
	}
	var reused *Proc
	s.Schedule(5, func() {
		reused = s.SpawnAt(20, "reused", body)
		s.Kill(reused)
		if n := s.LiveProcs(); n != 0 {
			t.Errorf("%d live processes after killing a reused unstarted process, want 0", n)
		}
	})
	s.Run(100)
	if reused != fresh {
		t.Error("the killed process was not recycled for the next spawn")
	}
	if ran != 1 {
		t.Errorf("bodies ran %d times, want only the warm-up", ran)
	}
}

// TestKillParkedRunsDefersAndReuses: a process parked mid-body unwinds its
// defers when killed, and the next Spawn reuses its Proc and coroutine
// without allocating.
func TestKillParkedRunsDefersAndReuses(t *testing.T) {
	s := New(1)
	unwound := 0
	body := func(p *Proc) {
		defer func() { unwound++ }()
		p.Suspend()
		t.Error("a killed process continued past its blocking call")
	}
	victim := s.Spawn("victim", body)
	s.Step(math.Inf(1)) // start it; it parks in Suspend
	s.Kill(victim)
	if unwound != 1 || s.LiveProcs() != 0 {
		t.Fatalf("after Kill: %d defers ran, %d live processes; want 1 and 0", unwound, s.LiveProcs())
	}
	s.Kill(victim) // killing a finished process is a no-op

	var again *Proc
	allocs := testing.AllocsPerRun(100, func() {
		again = s.Spawn("again", body)
		s.Step(math.Inf(1))
		s.Kill(again)
	})
	if again != victim {
		t.Error("Spawn did not reuse the killed process")
	}
	if allocs != 0 {
		t.Errorf("spawn+start+kill of a pooled process allocates %v objects, want 0", allocs)
	}
	if unwound != 102 {
		t.Errorf("%d defers ran, want 102", unwound)
	}
}

// TestKillFromProcessBody: one process kills another mid-run, a switch
// from one coroutine straight into another. The victim's defers run
// before Kill returns, its pending Delay never fires, and control comes
// back to the killer, which carries on. (Crash handling in internal/core
// kills from event callbacks today; this pins the nested case.)
func TestKillFromProcessBody(t *testing.T) {
	s := New(1)
	var trace []string
	victim := s.Spawn("victim", func(p *Proc) {
		defer func() { trace = append(trace, "victim unwound") }()
		p.Delay(100)
		trace = append(trace, "victim woke")
	})
	s.Spawn("killer", func(p *Proc) {
		p.Delay(10)
		s.Kill(victim)
		trace = append(trace, "killer resumed")
		if n := s.LiveProcs(); n != 1 {
			t.Errorf("%d live processes after Kill, want only the killer", n)
		}
		p.Delay(200)
		trace = append(trace, "killer done")
	})
	s.Run(1000)
	want := []string{"victim unwound", "killer resumed", "killer done"}
	if len(trace) != len(want) {
		t.Fatalf("trace %q, want %q", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %q, want %q", trace, want)
		}
	}
}

// TestPanicThenShutdown: a panicking body surfaces from Run with its own
// value, and a later Shutdown still stops every other process, running
// the defers of those parked mid-body.
func TestPanicThenShutdown(t *testing.T) {
	s := New(1)
	unwound := false
	s.Spawn("bystander", func(p *Proc) {
		defer func() { unwound = true }()
		p.Suspend()
	})
	s.Spawn("bad", func(p *Proc) {
		p.Delay(1)
		panic("boom")
	})
	s.SpawnAt(50, "unstarted", func(p *Proc) { t.Error("an unstarted process ran at Shutdown") })
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Run(100)
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Run panicked with %v, want boom", got)
	}
	s.Shutdown()
	if n := s.LiveProcs(); n != 0 {
		t.Errorf("%d live processes after Shutdown, want 0", n)
	}
	if !unwound {
		t.Error("Shutdown did not unwind the parked bystander")
	}
}
