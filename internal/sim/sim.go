//go:build go1.23

// Package sim implements a process-oriented discrete-event simulation
// kernel, the Go substitute for the DeNet simulation language in which the
// original Carey/Livny simulator was written.
//
// A Sim owns a virtual clock and an event queue. Simulation "processes" are
// coroutines that run strictly one at a time: the scheduler switches into a
// process and regains control when the process either finishes or blocks
// itself (Delay, Suspend, mailbox receive). Events scheduled for the same
// instant fire in FIFO order, and all randomness flows through a single
// seeded source, so every run is fully deterministic.
//
// Each process is an iter.Pull coroutine, so a process switch is a direct
// goroutine-to-goroutine transfer that bypasses the Go scheduler. iter.Pull
// needs Go 1.23. The module's go directive stays at 1.22 so that modules
// requiring this one at go 1.22 build unchanged; the go1.23 build
// constraint raises this file's language version so go vet accepts the
// iter import.
//
// The kernel hot path is allocation-free in steady state: fired and
// canceled callback events are recycled through a free-list, and every
// process embeds its own resume event, so Delay/Resume/SpawnAt and mailbox
// wakeups neither allocate an Event nor a closure. See DESIGN.md ("Kernel
// performance") for the invariants this preserves.
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
// reuses it is still a harmless no-op). All in-tree callers either discard
// the handle immediately or nil their reference on fire/cancel.
type Event struct {
	at       Time
	seq      uint64
	fn       func() // callback events; nil for process-resume events
	proc     *Proc  // process-resume events fire by resuming this process
	index    int    // heap index, -1 while not queued
	canceled bool
}

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// At returns the simulated time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Sim is a discrete-event simulator instance.
type Sim struct {
	now        Time
	events     eventQueue
	free       []*Event // recycled callback events
	seq        uint64
	dispatched uint64
	seed       int64
	rng        *rand.Rand
	cur        *Proc
	procs      []*Proc // live processes, each at index Proc.slot
	idle       []*Proc // finished processes whose coroutines await reuse
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
	return &Event{index: -1} //ddbmlint:allow hotpath-alloc event pool growth to the in-flight high-water mark
}

// releaseEvent returns a fired or canceled callback event to the free-list.
// Process-resume events are embedded in their Proc and never pass through
// here.
func (s *Sim) releaseEvent(e *Event) {
	e.fn = nil
	s.free = append(s.free, e) //ddbmlint:allow hotpath-alloc event free-list push; capacity reaches the in-flight high-water mark
}

// enqueue stamps the event with the next sequence number and queues it.
// The seq counter advances exactly once per scheduling call, in call order,
// which (together with the total (at, seq) heap order) makes event dispatch
// order a pure function of the call sequence.
func (s *Sim) enqueue(e *Event, at Time) {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now)) //ddbmlint:allow hotpath-alloc kernel-bug panic path; the run is already dead
	}
	s.seq++
	e.at = at
	e.seq = s.seq
	s.events.push(e)
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
// allocation-free path behind Delay, Resume, SpawnAt and mailbox wakeups.
// A process blocks in at most one place, so one embedded event suffices;
// scheduling it twice is a kernel-usage bug and panics loudly instead of
// corrupting the queue.
func (s *Sim) scheduleProc(at Time, p *Proc) {
	if p.ev.index >= 0 {
		panic(fmt.Sprintf("sim: process %q already has a pending resume", p.name)) //ddbmlint:allow hotpath-alloc kernel-bug panic path; the run is already dead
	}
	p.ev.canceled = false
	s.enqueue(&p.ev, at)
}

// Cancel removes a pending event. Canceling an already-fired or
// already-canceled event is a no-op (but see the recycling contract on
// Event: a dead handle must be dropped promptly).
func (s *Sim) Cancel(e *Event) {
	if e == nil || e.canceled || e.index < 0 {
		if e != nil {
			e.canceled = true
		}
		return
	}
	e.canceled = true
	s.events.remove(e.index)
	if e.proc == nil {
		s.releaseEvent(e)
	}
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

// Run executes events until the clock reaches end (exclusive) or the event
// queue drains, then terminates all live processes. It returns the final
// simulated time.
func (s *Sim) Run(end Time) Time {
	for s.events.len() > 0 {
		e := s.events.min()
		if e.at >= end {
			break
		}
		s.events.pop()
		if e.canceled {
			continue
		}
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
	for s.events.len() > 0 {
		e := s.events.min()
		if e.at >= end {
			return false
		}
		s.events.pop()
		if e.canceled {
			continue
		}
		s.fire(e)
		return true
	}
	return false
}

// Shutdown stops every process coroutine, live or idle. A process parked
// mid-body unwinds through the kill sentinel, so its defers run; one that
// never started never runs its body. It is called automatically at the end
// of Run and is idempotent.
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
	for _, p := range s.idle {
		p.stop()
	}
	clear(s.idle)
	s.idle = s.idle[:0]
}

// LiveProcs returns the number of processes that have been spawned but not
// yet finished. After Shutdown it reports the processes that leaked (should
// be 0).
func (s *Sim) LiveProcs() int { return len(s.procs) }

// Kill terminates a live process mid-run — the crash-stop primitive. A
// pending resume (Delay, SpawnAt) is canceled so the embedded event never
// fires for the dead process; then the victim is resumed with its kill
// flag set. A victim parked mid-body unwinds via the kill sentinel exactly
// as at Shutdown, one that never started skips its body, and either way
// its coroutine joins the idle pool for reuse by a later Spawn. Killing a
// finished process is a no-op; killing the currently running process is a
// kernel-usage bug.
func (s *Sim) Kill(p *Proc) {
	if p == nil || p.done {
		return
	}
	if p == s.cur {
		panic(fmt.Sprintf("sim: process %q cannot kill itself", p.name))
	}
	if p.ev.index >= 0 {
		s.Cancel(&p.ev)
	}
	p.killed = true
	s.resume(p)
}

// killed is the sentinel panic value used to unwind terminated processes.
type killed struct{}

// Proc is a simulation process: an iter.Pull coroutine interleaved with the
// scheduler so that exactly one process runs at any moment. Finished
// processes keep their coroutine in the simulator's idle pool for reuse by
// later Spawn calls, so steady-state process churn (one cohort process per
// transaction cohort) allocates neither a Proc, a coroutine, nor a stack.
type Proc struct {
	sim    *Sim
	name   string
	fn     func(p *Proc)           // body to run at the next start
	next   func() (struct{}, bool) // switches into the coroutine until it blocks or finishes
	stop   func()                  // ends the coroutine for good
	yield  func(struct{}) bool     // switches from the coroutine back to its resumer
	slot   int                     // index in Sim.procs while live
	done   bool
	killed bool // set by Kill: the body unwinds instead of continuing
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

// SpawnAt creates a process that starts running at time at. A coroutine
// from the idle pool is reused when one is available; only the pool-growth
// path allocates.
//
//ddbmlint:hotpath steady-state cohort spawn pinned by TestTxnPathAllocFree
func (s *Sim) SpawnAt(at Time, name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(s.idle); n > 0 {
		p = s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
	} else {
		p = &Proc{sim: s} //ddbmlint:allow hotpath-alloc pool growth: one Proc per high-water concurrent process
		p.ev.proc = p
		p.ev.index = -1
		p.next, p.stop = iter.Pull(p.loop) //ddbmlint:allow hotpath-alloc pool growth: one coroutine per high-water concurrent process
	}
	p.name, p.fn, p.done, p.killed = name, fn, false, false
	p.slot = len(s.procs)
	s.procs = append(s.procs, p) //ddbmlint:allow hotpath-alloc live-set push; capacity reaches the concurrent-process high-water mark
	s.scheduleProc(at, p)
	return p
}

// loop is a process coroutine: it runs one body per start, then yields as
// an idle pooled process until a later Spawn resumes it with a new body.
// Shutdown's stop ends it.
func (p *Proc) loop(yield func(struct{}) bool) {
	p.yield = yield
	for {
		p.runBody()
		if p.sim.stopped {
			return
		}
		p.finish()
		if !yield(struct{}{}) {
			return
		}
	}
}

// runBody executes the process body unless the process was killed before
// it started, converting the kill sentinel back into a normal return. Any
// other panic leaves the coroutine, and iter.Pull re-raises it in the
// resumer, so it surfaces in the Run caller.
func (p *Proc) runBody() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				panic(r)
			}
		}
	}()
	if !p.killed {
		p.fn(p)
	}
}

// finish retires a completed or killed body: the process leaves the live
// set by swap-remove and its coroutine joins the idle pool.
func (p *Proc) finish() {
	s := p.sim
	p.done, p.fn = true, nil
	last := len(s.procs) - 1
	moved := s.procs[last]
	s.procs[p.slot], moved.slot = moved, p.slot
	s.procs[last] = nil
	s.procs = s.procs[:last]
	s.idle = append(s.idle, p)
}

// resume switches into p and returns when it blocks or finishes.
func (s *Sim) resume(p *Proc) {
	if p.done {
		return
	}
	prev := s.cur
	s.cur = p
	p.next()
	s.cur = prev
}

// block switches from the calling process back to its resumer until the
// scheduler resumes it. A kill (Kill, or Shutdown's stop) unwinds the body
// through the kill sentinel instead of returning.
func (p *Proc) block() {
	//ddbmlint:allow hotpath-alloc coroutine switch to the resumer; iter.Pull's yield allocates nothing (pinned by TestDelayAllocFree)
	if !p.yield(struct{}{}) || p.killed {
		panic(killed{}) //ddbmlint:allow hotpath-alloc kill sentinel; raised only on Kill and Shutdown
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
// be called for a process parked in Suspend (or a mailbox receive).
func (p *Proc) Resume() {
	p.sim.scheduleProc(p.sim.now, p)
}
