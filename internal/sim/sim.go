//go:build go1.23

// Package sim implements the discrete-event simulation kernel, the Go
// substitute for the DeNet simulation language in which the original
// Carey/Livny simulator was written.
//
// A Sim owns a virtual clock and an event queue. Events fire in (at, seq)
// order — time, then scheduling order — so events scheduled for the same
// instant fire in FIFO order, and all randomness flows through a single
// seeded source, so every run is fully deterministic. Most of the
// model runs as event callbacks: message delivery, resource completions,
// and every node-side activity (cohort work phases, lock waits, the 2PL
// Snoop, node recovery) as continuations that a completion schedules at
// the current instant.
//
// The coordinator side still runs as simulation "processes": coroutines
// that run strictly one at a time. The scheduler switches into a process
// and regains control when the process either finishes or blocks itself
// (Delay or Suspend). Each process is an iter.Pull coroutine, so a process
// switch is a direct goroutine-to-goroutine transfer that bypasses the Go
// scheduler. iter.Pull needs Go 1.23. The module's go directive stays at
// 1.22 so that modules requiring this one at go 1.22 build unchanged; the
// go1.23 build constraint raises this file's language version so go vet
// accepts the iter import.
//
// The event queue is two structures behind one order: a 4-ary heap keyed
// by (at, seq), and a FIFO lane for events scheduled at the current
// instant, which need no sifting because they arrive in seq order. Dispatch
// takes whichever of the two heads comes first. Reschedule re-keys a
// pending heap event in place instead of a cancel and a fresh schedule.
//
// The kernel hot path is allocation-free in steady state: fired and
// canceled callback events are recycled through a free-list, and every
// process embeds its own resume event, so Delay and Resume neither
// allocate an Event nor a closure. See DESIGN.md ("Kernel performance")
// for the invariants this preserves.
//
// There is no message queue: a process that waits for messages parks in
// Suspend on state it owns, and the event callback that delivers each
// message updates that state and calls Resume (see commit.Txn.Collect).
package sim

import (
	"fmt"
	"iter"
	"math/rand"
)

// Time is simulated time in milliseconds.
type Time = float64

// Event is a scheduled callback. It can be canceled before it fires.
//
// Recycling contract: once an event has fired or been canceled, its handle
// is dead — the simulator may reuse the struct for a later Schedule call.
// Holders must drop their reference after the event fires or after they
// cancel it (calling Cancel again on a dead handle before the simulator
// reuses it is still a harmless no-op), and must replace it with the handle
// Reschedule returns. All in-tree callers either discard the handle
// immediately or nil their reference on fire/cancel.
type Event struct {
	at   Time
	seq  uint64
	fn   func() // callback events; nil for process-resume events
	proc *Proc  // process-resume events fire by resuming this process
	// index is where the event waits: idle (-1) when not queued — fresh,
	// fired, or canceled out of the heap; inLane (-2) in the same-instant
	// lane, where a canceled event stays until dispatch reaches it; or its
	// heap slot (≥ 0).
	index    int
	canceled bool
}

// Event.index states other than a heap slot.
const (
	idle   = -1
	inLane = -2
)

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// At returns the simulated time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Sim is a discrete-event simulator instance.
type Sim struct {
	now    Time
	events eventQueue // events at a later instant than when they were queued
	// lane is a FIFO ring of the events scheduled at the current instant,
	// oldest at laneHead; len(lane) is zero or a power of two.
	lane       []*Event
	laneHead   int
	laneLen    int
	free       []*Event // recycled callback events
	seq        uint64
	dispatched uint64
	seed       int64
	rng        *rand.Rand
	procs      []*Proc // live processes, each at index Proc.slot
	stopped    bool
}

// New creates a simulator with the given random seed.
func New(seed int64) *Sim {
	return &Sim{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Seed returns the seed the simulator was created with.
func (s *Sim) Seed() int64 { return s.seed }

// Substream returns an independent deterministic random source derived from
// the simulator's seed, a stream name, and a numeric id. Substreams let a
// subsystem (the fault injector, for one) consume randomness without
// perturbing the main stream: the workload draws from Rand() in exactly the
// same order whether or not anyone draws from a substream. The derivation
// is a pure function of (seed, name, id), so runs stay reproducible.
func (s *Sim) Substream(name string, id int64) *rand.Rand {
	// FNV-1a over the name, then splitmix64-style finalization folding in
	// the seed and id — cheap, stateless, and well-spread for adjacent ids.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= uint64(s.seed) * 0x9e3779b97f4a7c15
	h ^= uint64(id) * 0xbf58476d1ce4e5b9
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return rand.New(rand.NewSource(int64(h)))
}

// Now returns the current simulated time in milliseconds.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source. It must only
// be used from simulation processes and event callbacks.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// EventsDispatched returns the number of events fired so far — the kernel's
// fundamental unit of work, used by the perf harness to report events/sec.
func (s *Sim) EventsDispatched() uint64 { return s.dispatched }

// allocEvent takes a recycled callback event from the free-list or makes a
// fresh one. Fields left over from a previous life are reset.
func (s *Sim) allocEvent() *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.canceled = false
		return e
	}
	return &Event{index: idle} //ddbmlint:allow hotpath-alloc event pool growth to the in-flight high-water mark
}

// releaseEvent returns a fired or canceled callback event to the free-list.
// Process-resume events are embedded in their Proc and never pass through
// here.
func (s *Sim) releaseEvent(e *Event) {
	e.fn = nil
	s.free = append(s.free, e) //ddbmlint:allow hotpath-alloc event free-list push; capacity reaches the in-flight high-water mark
}

// enqueue stamps the event with the next sequence number and queues it: at
// the current instant on the lane, later in the heap. The seq counter
// advances exactly once per scheduling call, in call order, which (together
// with the total (at, seq) dispatch order) makes event dispatch order a pure
// function of the call sequence. The lane needs no ordering work: the clock
// never passes a lane event, so all of them share at == now and arrive in
// seq order.
func (s *Sim) enqueue(e *Event, at Time) {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now)) //ddbmlint:allow hotpath-alloc kernel-bug panic path; the run is already dead
	}
	s.seq++
	e.at = at
	e.seq = s.seq
	if at != s.now {
		s.events.push(e)
		return
	}
	if s.laneLen == len(s.lane) {
		s.growLane()
	}
	s.lane[(s.laneHead+s.laneLen)&(len(s.lane)-1)] = e
	s.laneLen++
	e.index = inLane
}

// growLane doubles the lane ring (minimum 16 slots), unwrapping the queued
// events to the front of the new buffer.
func (s *Sim) growLane() {
	n := 2 * len(s.lane)
	if n == 0 {
		n = 16
	}
	buf := make([]*Event, n) //ddbmlint:allow hotpath-alloc same-instant lane growth to its high-water burst; 0 allocs/op pinned by TestSameInstantAllocFree
	for i := 0; i < s.laneLen; i++ {
		buf[i] = s.lane[(s.laneHead+i)&(len(s.lane)-1)]
	}
	s.lane = buf
	s.laneHead = 0
}

// Schedule registers fn to run at absolute time at. Scheduling in the past
// panics: it would silently reorder causality.
func (s *Sim) Schedule(at Time, fn func()) *Event {
	e := s.allocEvent()
	e.fn = fn
	s.enqueue(e, at)
	return e
}

// After registers fn to run d milliseconds from now.
func (s *Sim) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.Schedule(s.now+d, fn)
}

// scheduleProc queues p's embedded resume event: the closure- and
// allocation-free path behind Delay, Resume and SpawnAt.
// A process blocks in at most one place, so one embedded event suffices;
// scheduling it twice is a kernel-usage bug and panics loudly instead of
// corrupting the queue.
func (s *Sim) scheduleProc(at Time, p *Proc) {
	if p.ev.index != idle {
		panic(fmt.Sprintf("sim: process %q already has a pending resume", p.name)) //ddbmlint:allow hotpath-alloc kernel-bug panic path; the run is already dead
	}
	p.ev.canceled = false
	s.enqueue(&p.ev, at)
}

// Cancel removes a pending event. A heap event leaves the heap at once; a
// lane event is only marked, and dispatch drops (and recycles) it when it
// reaches the lane head — until then a process's canceled resume event
// still counts as pending for scheduleProc (nothing cancels one today).
// Canceling an already-fired or already-canceled event is a no-op (but see
// the recycling contract on Event: a dead handle must be dropped promptly).
func (s *Sim) Cancel(e *Event) {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	if e.index < 0 {
		return
	}
	s.events.remove(e.index)
	if e.proc == nil {
		s.releaseEvent(e)
	}
}

// Reschedule moves the pending callback event e to time at and returns the
// handle to hold from now on. It dispatches exactly as Cancel(e) followed by
// Schedule(at, fn) with e's callback would: it draws the next seq at the
// same point of the call sequence. A heap event moving to a later instant
// keeps its struct and is re-keyed in place, one sift instead of a removal,
// a free-list round trip and a push; any other event takes the cancel and
// schedule path, so the returned handle may differ from e.
func (s *Sim) Reschedule(e *Event, at Time) *Event {
	if e.canceled || e.fn == nil {
		panic("sim: Reschedule of a fired, canceled or process event")
	}
	if e.index >= 0 && at > s.now {
		s.seq++
		e.at = at
		e.seq = s.seq
		s.events.rekey(e.index)
		return e
	}
	fn := e.fn
	s.Cancel(e)
	return s.Schedule(at, fn)
}

// fire dispatches one popped event: callback events are recycled before
// their function runs (so a fn that schedules reuses the same struct),
// resume events hand control to their process.
func (s *Sim) fire(e *Event) {
	s.now = e.at
	s.dispatched++
	if p := e.proc; p != nil {
		s.resume(p)
		return
	}
	fn := e.fn
	s.releaseEvent(e)
	fn()
}

// take removes and returns the next live event if it fires before end, or
// returns nil. The next event is whichever of the lane head and the heap top
// comes first by (at, seq): the heap can still hold an event at now with an
// earlier seq, queued before the clock reached now. Canceled lane events are
// dropped here and recycled; canceled heap events already left the heap.
func (s *Sim) take(end Time) *Event {
	for s.laneLen > 0 {
		e := s.lane[s.laneHead]
		if s.events.len() > 0 {
			if top := s.events.min(); top.at < e.at || top.at == e.at && top.seq < e.seq {
				break
			}
		}
		if e.at >= end {
			return nil
		}
		s.lane[s.laneHead] = nil
		s.laneHead = (s.laneHead + 1) & (len(s.lane) - 1)
		s.laneLen--
		e.index = idle
		if !e.canceled {
			return e
		}
		if e.proc == nil {
			s.releaseEvent(e)
		}
	}
	if s.events.len() == 0 || s.events.min().at >= end {
		return nil
	}
	return s.events.pop()
}

// Run executes events until the clock reaches end (exclusive) or the event
// queue drains, then terminates all live processes. It returns the final
// simulated time.
func (s *Sim) Run(end Time) Time {
	for e := s.take(end); e != nil; e = s.take(end) {
		s.fire(e)
	}
	if s.now < end {
		s.now = end
	}
	s.Shutdown()
	return s.now
}

// Step executes the single next event if one exists before end; it reports
// whether an event fired. Useful for tests that need fine-grained control.
func (s *Sim) Step(end Time) bool {
	e := s.take(end)
	if e == nil {
		return false
	}
	s.fire(e)
	return true
}

// Shutdown stops every live process coroutine. A process parked mid-body
// unwinds through the stop sentinel, so its defers run; one that never
// started never runs its body. It is called automatically at the end of
// Run and is idempotent.
func (s *Sim) Shutdown() {
	if s.stopped {
		return
	}
	s.stopped = true
	// Index rather than range: a defer in an unwinding body may still
	// spawn, and that process must be stopped too.
	for i := 0; i < len(s.procs); i++ {
		p := s.procs[i]
		p.stop()
		p.done = true
	}
	clear(s.procs)
	s.procs = s.procs[:0]
}

// LiveProcs returns the number of processes that have been spawned but not
// yet finished. After Shutdown it reports the processes that leaked (should
// be 0).
func (s *Sim) LiveProcs() int { return len(s.procs) }

// stopSentinel is the panic value that unwinds a process body parked when
// Shutdown stops its coroutine.
type stopSentinel struct{}

// Proc is a simulation process: an iter.Pull coroutine interleaved with the
// scheduler so that exactly one process runs at any moment. Processes are
// long-lived (the terminals, which act as coordinators), so each Spawn
// makes a fresh coroutine.
type Proc struct {
	sim   *Sim
	name  string
	fn    func(p *Proc)           // the body
	next  func() (struct{}, bool) // switches into the coroutine until it blocks or finishes
	stop  func()                  // ends the coroutine for good
	yield func(struct{}) bool     // switches from the coroutine back to its resumer
	slot  int                     // index in Sim.procs while live
	done  bool
	// ev is the process's resume event, reused for every Delay/Resume/start
	// so process switching never allocates. A process is blocked in at most
	// one place at a time, so a single embedded event is always enough.
	ev Event
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sim returns the owning simulator.
func (p *Proc) Sim() *Sim { return p.sim }

// Spawn creates a process that starts running at the current simulated time
// (after the current event completes).
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.SpawnAt(s.now, name, fn)
}

// SpawnAt creates a process that starts running at time at.
func (s *Sim) SpawnAt(at Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, fn: fn, slot: len(s.procs)}
	p.ev.proc = p
	p.ev.index = idle
	p.next, p.stop = iter.Pull(p.run)
	s.procs = append(s.procs, p)
	s.scheduleProc(at, p)
	return p
}

// run is the process coroutine: the body, then retirement from the live
// set. The stop sentinel raised in a body parked at Shutdown is absorbed
// here; any other panic leaves the coroutine, and iter.Pull re-raises it in
// the resumer, so it surfaces in the Run caller.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopSentinel); !ok {
				panic(r)
			}
		}
	}()
	p.fn(p)
	p.finish()
}

// finish retires a completed body: the process leaves the live set by
// swap-remove.
func (p *Proc) finish() {
	s := p.sim
	p.done, p.fn = true, nil
	last := len(s.procs) - 1
	moved := s.procs[last]
	s.procs[p.slot], moved.slot = moved, p.slot
	s.procs[last] = nil
	s.procs = s.procs[:last]
}

// resume switches into p and returns when it blocks or finishes.
func (s *Sim) resume(p *Proc) {
	if p.done {
		return
	}
	p.next()
}

// block switches from the calling process back to its resumer until the
// scheduler resumes it. Shutdown's stop unwinds the body through the stop
// sentinel instead of returning.
func (p *Proc) block() {
	//ddbmlint:allow hotpath-alloc coroutine switch to the resumer; iter.Pull's yield allocates nothing (pinned by TestDelayAllocFree)
	if !p.yield(struct{}{}) {
		panic(stopSentinel{}) //ddbmlint:allow hotpath-alloc stop sentinel; raised only at Shutdown
	}
}

// Delay suspends the process for d milliseconds of simulated time. Even a
// zero delay yields through the event queue so that same-time events retain
// FIFO fairness.
func (p *Proc) Delay(d Time) {
	if d < 0 {
		d = 0
	}
	p.sim.scheduleProc(p.sim.now+d, p)
	p.block()
}

// Suspend parks the process until another process or event calls Resume.
func (p *Proc) Suspend() {
	p.block()
}

// Resume schedules p to continue at the current simulated time. It must only
// be called for a process parked in Suspend, typically by the event
// callback that delivers what the process waits for.
func (p *Proc) Resume() {
	p.sim.scheduleProc(p.sim.now, p)
}
