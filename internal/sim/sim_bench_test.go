package sim

import "testing"

// BenchmarkEventThroughput measures raw event scheduling+dispatch rate.
func BenchmarkEventThroughput(b *testing.B) {
	s := New(1)
	var t Time
	var fire func()
	fire = func() {
		t++
		if t < Time(b.N) {
			s.Schedule(t, fire)
		}
	}
	s.Schedule(0, fire)
	b.ResetTimer()
	s.Run(Time(b.N) + 1)
}

// BenchmarkProcessSwitch measures the goroutine handoff cost of one
// Delay-resume cycle.
func BenchmarkProcessSwitch(b *testing.B) {
	s := New(1)
	s.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Delay(1)
		}
	})
	b.ResetTimer()
	s.Run(Time(b.N) + 2)
}

// BenchmarkSameInstant measures the same-instant lane: each event fires
// two more at the current instant, one of them canceled, so every
// dispatch takes the lane path and drops a canceled lane event. A fresh
// instant every 64 events keeps a few heap events in play.
func BenchmarkSameInstant(b *testing.B) {
	s := New(1)
	n := 0
	noop := func() {}
	var fire func()
	fire = func() {
		n++
		if n >= b.N {
			return
		}
		s.Cancel(s.After(0, noop))
		if n%64 == 0 {
			s.After(1, fire)
			return
		}
		s.After(0, fire)
	}
	s.Schedule(0, fire)
	b.ResetTimer()
	s.Run(Time(b.N) + 1)
}

// BenchmarkReschedule measures re-keying a pending event in place among a
// few dozen others, alternating earlier and later moves the way a CPU's
// completion moves as jobs arrive and leave.
func BenchmarkReschedule(b *testing.B) {
	s := New(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.Schedule(Time(1+i), fn)
	}
	e := s.Schedule(32, fn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e = s.Reschedule(e, Time(1+(i*37)%64)+0.5)
	}
}
