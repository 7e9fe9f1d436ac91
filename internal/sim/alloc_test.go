package sim

import (
	"math"
	"testing"
)

// These tests pin the kernel's steady-state allocation counts. They are the
// regression guard for the allocation-free hot path: a change that
// reintroduces a per-event or per-switch allocation (a closure in
// Delay/Resume, losing the event free-list)
// fails here before it shows up as a throughput regression.

// TestScheduleFireAllocFree: one schedule→dispatch cycle of a callback
// event reuses a free-listed Event and allocates nothing.
func TestScheduleFireAllocFree(t *testing.T) {
	s := New(1)
	fn := func() {}
	// Prime the free-list with one fired event.
	s.Schedule(s.Now(), fn)
	s.Step(math.MaxFloat64)
	allocs := testing.AllocsPerRun(200, func() {
		s.Schedule(s.Now(), fn)
		s.Step(math.MaxFloat64)
	})
	if allocs != 0 {
		t.Errorf("schedule+fire allocates %v objects per event, want 0", allocs)
	}
}

// TestScheduleCancelAllocFree: canceling returns the event to the
// free-list, so churning schedule/cancel (the CPU reschedule pattern)
// allocates nothing.
func TestScheduleCancelAllocFree(t *testing.T) {
	s := New(1)
	fn := func() {}
	s.Cancel(s.Schedule(10, fn))
	allocs := testing.AllocsPerRun(200, func() {
		s.Cancel(s.Schedule(10, fn))
	})
	if allocs != 0 {
		t.Errorf("schedule+cancel allocates %v objects per event, want 0", allocs)
	}
}

// TestDelayAllocFree: a full process switch (Delay, park, dispatch, resume)
// uses the process's embedded resume event and allocates nothing.
func TestDelayAllocFree(t *testing.T) {
	s := New(1)
	allocs := math.NaN()
	s.Spawn("p", func(p *Proc) {
		p.Delay(1)
		allocs = testing.AllocsPerRun(200, func() { p.Delay(1) })
	})
	s.Run(math.Inf(1))
	if allocs != 0 {
		t.Errorf("Delay allocates %v objects per switch, want 0", allocs)
	}
}

// TestSuspendResumeAllocFree: the Suspend/Resume rendezvous — the path
// every message wait rides — allocates nothing per cycle.
func TestSuspendResumeAllocFree(t *testing.T) {
	s := New(1)
	allocs := math.NaN()
	var sleeper *Proc
	sleeper = s.Spawn("sleeper", func(p *Proc) {
		for {
			p.Suspend()
		}
	})
	s.Spawn("driver", func(p *Proc) {
		sleeper.Resume()
		p.Delay(1)
		allocs = testing.AllocsPerRun(200, func() {
			sleeper.Resume()
			p.Delay(1)
		})
	})
	s.Run(math.Inf(1))
	if allocs != 0 {
		t.Errorf("Resume+Delay cycle allocates %v objects, want 0", allocs)
	}
}

// TestSameInstantAllocFree: events scheduled at the current instant ride
// the lane ring, and a canceled lane event is recycled when dispatch
// reaches it, so a same-instant burst with a cancel allocates nothing once
// the ring and the free-list have grown.
func TestSameInstantAllocFree(t *testing.T) {
	s := New(1)
	fn := func() {}
	fanOut := func() {
		s.After(0, fn)
		s.Cancel(s.After(0, fn))
		s.Schedule(s.Now(), fn)
	}
	burst := func() {
		s.Schedule(s.Now(), fanOut)
		for s.Step(math.MaxFloat64) {
		}
	}
	burst()
	allocs := testing.AllocsPerRun(200, burst)
	if allocs != 0 {
		t.Errorf("same-instant burst allocates %v objects, want 0", allocs)
	}
}

// TestRescheduleAllocFree: re-keying a pending completion in place (the
// CPU's pattern on every arrival and departure) allocates nothing.
func TestRescheduleAllocFree(t *testing.T) {
	s := New(1)
	fn := func() {}
	e := s.Schedule(10, fn)
	s.Schedule(20, fn)
	at := Time(10)
	allocs := testing.AllocsPerRun(200, func() {
		at += 0.5
		e = s.Reschedule(e, at)
	})
	if allocs != 0 {
		t.Errorf("Reschedule allocates %v objects per call, want 0", allocs)
	}
}
