package sim

import "testing"

// TestPanicThenShutdown pins the process lifecycle edge Run's callers rely
// on when a body fails: the panic surfaces, and Shutdown still stops every
// other process.

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
