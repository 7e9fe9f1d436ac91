package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The kernel keeps pending events in two structures (the same-instant lane
// and the heap) and re-keys rescheduled heap events in place. These tests
// check that none of that shows: every call sequence dispatches in exactly
// the order of refSim, a sorted slice with stable insertion where Cancel
// removes and Reschedule is Cancel plus Schedule.

// kernel is the scheduling surface both implementations share. Handles are
// opaque: *Event for Sim, *refEvent for refSim.
type kernel interface {
	Now() Time
	schedule(at Time, fn func()) any
	after0(fn func()) any
	cancel(h any)
	reschedule(h any, at Time) any
	Step(end Time) bool
	run(end Time)
}

type simKernel struct{ *Sim }

func (k simKernel) schedule(at Time, fn func()) any { return k.Schedule(at, fn) }
func (k simKernel) after0(fn func()) any            { return k.After(0, fn) }
func (k simKernel) cancel(h any)                    { k.Cancel(h.(*Event)) }
func (k simKernel) reschedule(h any, at Time) any   { return k.Reschedule(h.(*Event), at) }
func (k simKernel) run(end Time)                    { k.Run(end) }

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

// refSim is the reference scheduler: one slice sorted by time, a new event
// inserted after every event at or before its time, so equal times keep
// scheduling order.
type refSim struct {
	now Time
	seq uint64
	q   []*refEvent
}

func (r *refSim) Now() Time { return r.now }

func (r *refSim) schedule(at Time, fn func()) any {
	if at < r.now {
		panic("refSim: schedule in the past")
	}
	r.seq++
	e := &refEvent{at: at, seq: r.seq, fn: fn}
	i := sort.Search(len(r.q), func(i int) bool { return r.q[i].at > at })
	r.q = slices.Insert(r.q, i, e)
	return e
}

func (r *refSim) after0(fn func()) any { return r.schedule(r.now, fn) }

func (r *refSim) cancel(h any) {
	if i := slices.Index(r.q, h.(*refEvent)); i >= 0 {
		r.q = slices.Delete(r.q, i, i+1)
	}
}

func (r *refSim) reschedule(h any, at Time) any {
	r.cancel(h)
	return r.schedule(at, h.(*refEvent).fn)
}

func (r *refSim) Step(end Time) bool {
	if len(r.q) == 0 || r.q[0].at >= end {
		return false
	}
	e := r.q[0]
	r.q = r.q[1:]
	r.now = e.at
	e.fn()
	return true
}

func (r *refSim) run(end Time) {
	for r.Step(end) {
	}
	if r.now < end {
		r.now = end
	}
}

// TestDispatchOrderCases pins hand-picked interleavings of the lane and the
// heap: each script runs on the kernel and must fire its events in the
// listed order, the order refSim gives too.
func TestDispatchOrderCases(t *testing.T) {
	cases := []struct {
		name   string
		script func(k kernel, fire func(string) func())
		want   []string
	}{
		{
			// B sits in the heap at t=5 with an earlier seq than C, which
			// A queues on the lane once the clock reaches 5.
			name: "heap event at now precedes lane",
			script: func(k kernel, fire func(string) func()) {
				k.schedule(5, func() {
					fire("A")()
					k.after0(fire("C"))
				})
				k.schedule(5, fire("B"))
				k.run(10)
			},
			want: []string{"A", "B", "C"},
		},
		{
			name: "same-instant burst is FIFO",
			script: func(k kernel, fire func(string) func()) {
				k.schedule(1, func() {
					fire("A")()
					k.after0(fire("B"))
					k.schedule(k.Now(), func() {
						fire("C")()
						k.after0(fire("E"))
					})
					k.after0(fire("D"))
				})
				k.run(2)
			},
			want: []string{"A", "B", "C", "D", "E"},
		},
		{
			name: "canceled lane event is skipped",
			script: func(k kernel, fire func(string) func()) {
				k.schedule(1, func() {
					fire("A")()
					b := k.after0(fire("B"))
					k.after0(fire("C"))
					k.cancel(b)
				})
				k.run(2)
			},
			want: []string{"A", "C"},
		},
		{
			// Moving a heap event to now takes a fresh seq: it fires after
			// lane events queued before the move.
			name: "reschedule onto now goes behind the lane",
			script: func(k kernel, fire func(string) func()) {
				var c any
				k.schedule(1, func() {
					fire("A")()
					k.after0(fire("B"))
					c = k.reschedule(c, k.Now())
				})
				c = k.schedule(3, fire("C"))
				k.run(4)
			},
			want: []string{"A", "B", "C"},
		},
		{
			name: "reschedule out of the lane and in place",
			script: func(k kernel, fire func(string) func()) {
				var b, d any
				k.schedule(1, func() {
					fire("A")()
					b = k.after0(fire("B"))
					b = k.reschedule(b, 2)
					d = k.reschedule(d, 1.5)
				})
				k.schedule(2, fire("C"))
				d = k.schedule(3, fire("D"))
				k.run(4)
			},
			want: []string{"A", "D", "C", "B"},
		},
		{
			// Run stops before events at or after end, lane events
			// included; a later Run resumes them in order.
			name: "run leaves same-instant events for the next run",
			script: func(k kernel, fire func(string) func()) {
				k.schedule(0, fire("A"))
				k.schedule(0, fire("B"))
				k.run(0)
				fire("-")()
				k.schedule(0, fire("C"))
				k.run(1)
			},
			want: []string{"-", "A", "B", "C"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range []kernel{simKernel{New(1)}, &refSim{}} {
				var got []string
				tc.script(k, func(name string) func() {
					return func() { got = append(got, name) }
				})
				if !slices.Equal(got, tc.want) {
					t.Errorf("%T: fired %v, want %v", k, got, tc.want)
				}
			}
		})
	}
}

// TestKernelMatchesReference drives the kernel and refSim with the same
// random program and requires identical dispatch: the same event at the
// same time, step for step. The program schedules at now (Schedule and
// After(0)) and in the near future, cancels and reschedules pending events
// from the top level and from inside callbacks, and advances with Step and
// with Run(end) that leaves events at or after end. Both runs draw from
// their own generator with the same seed, so they make the same choices
// for as long as they dispatch alike.
func TestKernelMatchesReference(t *testing.T) {
	cases := []struct {
		name    string
		horizon int     // future offsets are drawn from [0, horizon)
		nowP    float64 // chance a new event goes at the current instant
		cancelP float64
		reschP  float64
	}{
		{"same-instant bursts", 2, 0.6, 0.1, 0.1},
		{"cancel heavy", 4, 0.3, 0.5, 0.1},
		{"reschedule heavy", 4, 0.3, 0.1, 0.6},
		{"sparse future", 16, 0.1, 0.2, 0.2},
		{"everything", 3, 0.4, 0.3, 0.3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 40; seed++ {
				got := runProgram(simKernel{New(1)}, seed, tc.horizon, tc.nowP, tc.cancelP, tc.reschP)
				want := runProgram(&refSim{}, seed, tc.horizon, tc.nowP, tc.cancelP, tc.reschP)
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("seed %d: dispatch %d is %v, reference %v (of %d)", seed, i, at(got, i), at(want, i), len(want))
				}
			}
		})
	}
}

// fired is one dispatch: which event, at what time.
type fired struct {
	id  int
	now Time
}

func at(log []fired, i int) any {
	if i < len(log) {
		return log[i]
	}
	return "nothing"
}

func firstDiff(a, b []fired) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

// runProgram runs one random program on k and returns its dispatch log.
// Top-level control records a marker entry (id -1) so that where each Step
// or Run returned is compared too.
func runProgram(k kernel, seed int64, horizon int, nowP, cancelP, reschP float64) []fired {
	rng := rand.New(rand.NewSource(seed))
	var log []fired
	var live []int // ids of pending events, in a deterministic order
	handles := map[int]any{}
	next := 0
	const maxEvents = 400

	drop := func(id int) {
		i := slices.Index(live, id)
		live = slices.Delete(live, i, i+1)
		delete(handles, id)
	}
	offset := func() Time {
		if rng.Float64() < nowP {
			return 0
		}
		// Half-integer offsets too, so float keys are not all integral.
		return Time(rng.Intn(horizon)) + Time(rng.Intn(2))*0.5
	}
	var spawn func()
	act := func() {
		for n := rng.Intn(3); n > 0 && next < maxEvents; n-- {
			spawn()
		}
		if len(live) > 0 && rng.Float64() < cancelP {
			id := live[rng.Intn(len(live))]
			k.cancel(handles[id])
			drop(id)
		}
		if len(live) > 0 && rng.Float64() < reschP {
			id := live[rng.Intn(len(live))]
			handles[id] = k.reschedule(handles[id], k.Now()+offset())
		}
	}
	spawn = func() {
		id := next
		next++
		fn := func() {
			log = append(log, fired{id, k.Now()})
			drop(id)
			act()
		}
		var h any
		if d := offset(); d == 0 && rng.Intn(2) == 0 {
			h = k.after0(fn)
		} else {
			h = k.schedule(k.Now()+d, fn)
		}
		handles[id] = h
		live = append(live, id)
	}

	for i := 0; i < 5; i++ {
		spawn()
	}
	for round := 0; len(live) > 0 && round < 1000; round++ {
		act()
		switch end := k.Now() + Time(rng.Intn(3)); rng.Intn(3) {
		case 0:
			k.Step(end)
		case 1:
			k.Step(k.Now() + Time(horizon) + 1)
		default:
			k.run(end) // may leave events at or after end pending
		}
		log = append(log, fired{-1, k.Now()})
	}
	return log
}
