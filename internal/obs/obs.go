// Package obs is the simulator's observability layer: spans and instant
// events recorded in simulated time, periodic time-series probes, and
// exporters for Chrome trace-event JSON (Perfetto-loadable) and flat JSONL.
//
// The layer is strictly an observer. Nothing here touches the simulation's
// random source or schedules work on behalf of the model, so enabling a
// tracer leaves every run bit-identical to the untraced run (the periodic
// sampler is a periodic event, but it only reads state — see TimeSeries).
//
// Cost discipline, in the spirit of the allocation-free kernel:
//   - Disabled (nil *Tracer): every method is nil-receiver-safe and returns
//     immediately, so instrumented call sites compile to a pointer test.
//     AllocsPerRun pins in obs_test.go hold this at zero allocations.
//   - Enabled: open spans come from a free-list and the event buffer is
//     growable but reservable (Reserve), so steady-state recording does not
//     allocate per span.
//
// Span handles die at End: the Span struct returns to the tracer's
// free-list and may be handed out again by the next Begin. Retaining a
// *Span in a struct field or package variable is therefore the same class
// of bug as retaining a *sim.Event, and ddbmlint's span-retention check
// forbids it outside this package.
package obs

import (
	"fmt"

	"ddbm/internal/sim"
)

// Kind classifies a recorded event. The taxonomy follows the model's
// layers: transaction attempts and cohort work phases (core), concurrency
// control waits (cc), commit-protocol phases (commit), message transits
// (network), and CPU/disk service periods (resource).
type Kind uint8

const (
	// KindTxn is one execution attempt of a transaction, spanning from
	// attempt start to commit or abort resolution at the coordinator.
	KindTxn Kind = iota
	// KindCohort is one cohort's work phase at its processing node.
	KindCohort
	// KindCCWait is one concurrency control blocking episode (a lock-queue
	// wait); immediate CC rejections (BTO read/write rule, wounds) surface
	// as KindInstant "cc-reject" events instead.
	KindCCWait
	// KindCommitPhase is one phase of the commit protocol: "prepare"
	// (start of phase one to all-votes-collected), "decide" (votes to
	// logged decision) or "resolve" (decision to all cohorts finished).
	KindCommitPhase
	// KindMessage is one inter-node message transit, from send to delivery
	// (both ends' message-processing CPU included).
	KindMessage
	// KindCPU is one CPU busy period (first job arrival to queue drain).
	KindCPU
	// KindDisk is one disk access service period on one spindle.
	KindDisk
	// KindInstant is a zero-duration life-cycle event (submitted,
	// committed, cc-reject, ...).
	KindInstant
	// KindFault is a fault-layer event: a node "crash" instant, a "down"
	// span (crash to repair), a "recovery" span (repair to rejoin) or an
	// "in-doubt" span (a cohort's prepared-to-resolved window). Appended
	// last so existing traces keep their kind numbering.
	KindFault
)

var kindNames = [...]string{
	KindTxn:         "txn",
	KindCohort:      "cohort",
	KindCCWait:      "cc-wait",
	KindCommitPhase: "commit-phase",
	KindMessage:     "message",
	KindCPU:         "cpu",
	KindDisk:        "disk",
	KindInstant:     "instant",
	KindFault:       "fault",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind converts a kind name (as printed by String) back to a Kind.
func ParseKind(s string) (Kind, error) {
	for k, n := range kindNames {
		if n == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown event kind %q", s)
}

// Event is one recorded observation. Spans carry Start < End; instants
// have Start == End. Node is the node the event happened at; Lane
// disambiguates concurrent node-scoped activity (the spindle index for
// KindDisk, the destination node for KindMessage, 0 otherwise). Txn and
// Attempt are 0 for node-scoped events (CPU, disk, message).
type Event struct {
	Kind    Kind
	Name    string
	Node    int
	Lane    int
	Txn     int64
	Attempt int
	Start   sim.Time
	End     sim.Time
	Detail  string
}

// Span is an open begin/end span. Handles die at End: the struct returns
// to the tracer free-list and may be reused by a later Begin, so callers
// must not retain a *Span after ending it (enforced by ddbmlint's
// span-retention check).
type Span struct {
	tr      *Tracer
	kind    Kind
	name    string
	node    int
	txn     int64
	attempt int
	start   sim.Time
}

// End closes the span at the current simulated time and records it.
// Safe on a nil *Span (the disabled-tracer path). A span not ended by
// simulation shutdown is never recorded — exactly the semantics wanted
// for a coordinator still mid-attempt at the end of a run.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	t.record(Event{
		Kind:    s.kind,
		Name:    s.name,
		Node:    s.node,
		Txn:     s.txn,
		Attempt: s.attempt,
		Start:   s.start,
		End:     t.sim.Now(),
	})
	s.tr = nil
	t.spanFree = append(t.spanFree, s) //ddbmlint:allow hotpath-alloc span free-list push; capacity reaches the open-span high-water mark
}

// Tracer records spans and instants against one simulation's clock. The
// zero-cost disabled state is a nil *Tracer: every method (and Span.End)
// is nil-receiver-safe.
type Tracer struct {
	sim      *sim.Sim
	events   []Event
	spanFree []*Span
}

// NewTracer creates a tracer bound to the simulation clock.
func NewTracer(s *sim.Sim) *Tracer {
	return &Tracer{sim: s}
}

// Enabled reports whether the tracer records (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Reserve grows the event buffer capacity to at least n, so recording up
// to n events allocates nothing beyond the spans' free-list warmup.
func (t *Tracer) Reserve(n int) {
	if t == nil || cap(t.events) >= n {
		return
	}
	grown := make([]Event, len(t.events), n)
	copy(grown, t.events)
	t.events = grown
}

// Events returns the recorded events in recording order (which, for
// spans, is end-time order). The slice aliases the tracer's buffer.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

func (t *Tracer) record(e Event) {
	t.events = append(t.events, e) //ddbmlint:allow hotpath-alloc trace buffer; traced runs trade allocation for observability, the measured path has a nil tracer
}

// Begin opens a span at the current simulated time. Returns nil (a valid,
// inert span) when the tracer is nil.
func (t *Tracer) Begin(kind Kind, name string, node int, txn int64, attempt int) *Span {
	if t == nil {
		return nil
	}
	var s *Span
	if n := len(t.spanFree); n > 0 {
		s = t.spanFree[n-1]
		t.spanFree[n-1] = nil
		t.spanFree = t.spanFree[:n-1]
	} else {
		s = &Span{} //ddbmlint:allow hotpath-alloc span pool growth; one per open-span high-water slot
	}
	*s = Span{tr: t, kind: kind, name: name, node: node, txn: txn, attempt: attempt, start: t.sim.Now()}
	return s
}

// Complete records a span retroactively, from start to the current
// simulated time — the no-handle alternative to Begin/End for call sites
// that already know when the activity began (a blocking episode observed
// at wakeup, a protocol phase boundary).
func (t *Tracer) Complete(kind Kind, name string, node int, txn int64, attempt int, start sim.Time) {
	if t == nil {
		return
	}
	t.record(Event{Kind: kind, Name: name, Node: node, Txn: txn, Attempt: attempt, Start: start, End: t.sim.Now()})
}

// Instant records a zero-duration event at the current simulated time.
func (t *Tracer) Instant(name string, node int, txn int64, attempt int, detail string) {
	if t == nil {
		return
	}
	now := t.sim.Now()
	t.record(Event{Kind: KindInstant, Name: name, Node: node, Txn: txn, Attempt: attempt, Start: now, End: now, Detail: detail})
}

// Message records one message transit from node `from` to node `to`,
// begun at start and delivered now.
func (t *Tracer) Message(from, to int, start sim.Time) {
	if t == nil {
		return
	}
	t.record(Event{Kind: KindMessage, Name: "msg", Node: from, Lane: to, Start: start, End: t.sim.Now()})
}

// CPUBusy records one CPU busy period at node, begun at start and drained
// now. Busy periods on one CPU are serial by construction, so they form a
// properly nesting (flat) track.
func (t *Tracer) CPUBusy(node int, start sim.Time) {
	if t == nil {
		return
	}
	t.record(Event{Kind: KindCPU, Name: "cpu", Node: node, Start: start, End: t.sim.Now()})
}

// DiskAccess records one disk service period on the given spindle of
// node's disk array. Accesses on one spindle are serial.
func (t *Tracer) DiskAccess(node, spindle int, write bool, start sim.Time) {
	if t == nil {
		return
	}
	name := "read"
	if write {
		name = "write"
	}
	t.record(Event{Kind: KindDisk, Name: name, Node: node, Lane: spindle, Start: start, End: t.sim.Now()})
}
