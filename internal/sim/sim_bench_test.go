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
