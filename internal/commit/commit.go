// Package commit is the commit-protocol layer of the transaction manager:
// the coordinator-side and cohort-side state machines that take a
// transaction attempt from the end of its work phase (work → prepare →
// decide → resolve) to a globally resolved commit or abort. The paper's
// centralized two-phase commit (§2.1, §3.3) is the default; the
// presumed-abort and presumed-commit variants of Mohan, Lindsay & Obermarck
// ("Transaction Management in the R* Distributed Database Management
// System") reduce the acknowledgement traffic and forced log writes the
// paper identifies as first-order commit costs (§2.4, §4.4).
//
// The protocols drive machine resources only through the narrow Env
// facade, so the layer stays independent of the machine assembly: it sees
// the network as Send, the log as ForceLog/ForceLogAsync, and the
// concurrency control layer as cc.Manager. One fan-out primitive (fanOut)
// carries every per-cohort broadcast — prepare, commit phase two, and
// abort.
package commit

import (
	"fmt"

	"ddbm/internal/cc"
	"ddbm/internal/db"
	"ddbm/internal/network"
	"ddbm/internal/sim"
)

// Kind identifies a commit protocol variant.
type Kind int

const (
	// CentralizedTwoPC is the paper's centralized two-phase commit (§2.1):
	// every cohort is prepared, votes, receives the decision, and
	// acknowledges it; aborts are likewise acknowledged before the
	// coordinator forgets the transaction. With logging modeled, every
	// cohort forces a prepare record and the coordinator forces the commit
	// record. The zero value, and the default.
	CentralizedTwoPC Kind = iota
	// PresumedAbort is R*'s presumed-abort 2PC: in the absence of log
	// records the outcome is presumed to be abort, so abort messages need
	// no acknowledgements (the coordinator forgets the transaction the
	// moment they are sent) and the abort path forces nothing. Read-only
	// cohorts vote READ, release immediately, and take no part in phase
	// two; a fully read-only transaction skips the decision force and
	// phase two entirely.
	PresumedAbort
	// PresumedCommit is R*'s presumed-commit 2PC: the coordinator forces a
	// collecting (initiation) record before the prepare phase, after which
	// the outcome is presumed to be commit — COMMIT messages need no
	// acknowledgements and cohorts write no forced commit records, while
	// abort messages must be acknowledged and, with logging modeled, abort
	// records forced at the cohorts. Read-only cohorts short-circuit as
	// under PresumedAbort.
	PresumedCommit
)

var kindNames = map[Kind]string{
	CentralizedTwoPC: "2PC",
	PresumedAbort:    "PA",
	PresumedCommit:   "PC",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind converts a protocol name (as printed by String) to a Kind.
func ParseKind(s string) (Kind, error) {
	//ddbmlint:ordered kindNames values are unique, so at most one iteration can match and return
	for k, n := range kindNames {
		if n == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("commit: unknown protocol %q (want 2PC, PA or PC)", s)
}

// Kinds lists every protocol variant, default first.
func Kinds() []Kind { return []Kind{CentralizedTwoPC, PresumedAbort, PresumedCommit} }

// Message tags for the typed network envelopes the protocol exchanges.
// Cohort implements network.Handler: node-bound tags run the cohort-side
// state machine at its node, host-bound tags settle the coordinator's
// wait on the cohort's vote or ack.
const (
	tagPrepare = iota // host → node: run the local first phase and vote
	tagCommit         // host → node: phase-two COMMIT (release, install, maybe ack)
	tagAbort          // host → node: ABORT (release, maybe force, maybe ack)
	tagVote           // node → host: the cohort's vote (voteYes) reaches the coordinator
	tagAck            // node → host: the cohort's abort ack reaches the coordinator
)

// Cohort is the protocol layer's handle on one cohort of one attempt. It
// is owned (and free-listed) by the transaction manager; Txn.Attach resets
// it for each attempt, and all of its protocol messages are pre-bound:
// the vote and ack envelopes carry the cohort itself, and the
// deferred-write and log-force continuations are method values bound once
// per pooled object, so a steady-state attempt allocates nothing here.
type Cohort struct {
	// Idx is the cohort's index within the transaction. Assigned by
	// Txn.Attach.
	Idx int
	// Meta is the cohort as the concurrency control managers see it.
	Meta *cc.CohortMeta
	// ReadOnly reports that the cohort updates nothing — no local writes
	// and no remote-copy write permissions — making it eligible for the
	// presumed protocols' read-only vote short-circuit.
	ReadOnly bool
	// Deferred lists write permissions requested only in the prepare phase
	// (all writes under O2PL, remote-copy writes under
	// DeferRemoteWriteLocks); the node may block before it can vote. The
	// owner refills it per attempt (Attach reslices it to empty, keeping
	// the backing array).
	Deferred []db.PageID

	// done marks a cohort resolved before phase two (read-only
	// short-circuit); fanOut skips it.
	done bool
	// dead marks a cohort lost to a node crash: the coordinator stops
	// addressing it (fanOut skips it) and the recovery layer resolves its
	// node-side state instead. Set by MarkDead, reset by Attach.
	dead bool
	// abortSent and acked track the abort acknowledgement per cohort so
	// crash handling can substitute a synthetic ack for a dead cohort
	// without double counting: fanOut sets abortSent, the first (real or
	// synthetic) ack delivery sets acked.
	abortSent bool
	acked     bool
	// voteYes and voteRO are the cohort's vote: YES, and READ (the
	// presumed protocols' read-only short-circuit: the cohort has already
	// released locally and takes no part in phase two). At most one vote
	// is in flight per attempt.
	voteYes, voteRO bool

	t *Txn // owning attempt, set by Attach

	deferredFn  func(ok bool) // c.deferredDone, bound once per pooled cohort
	voteForceFn func()        // c.votedAfterForce, bound once per pooled cohort
	ackForceFn  func()        // c.ackAfterForce, bound once per pooled cohort
}

// Txn is one transaction attempt as the protocol layer sees it: the shared
// metadata, the cohorts, and the coordinator's wait state.
type Txn struct {
	Meta *cc.TxnMeta
	// Cohorts in load order; Cohort.Idx indexes this slice.
	Cohorts []*Cohort

	// Protocol-run state, set at Commit/Abort entry so the cohort-side
	// handlers can reach the environment and variant flags without any
	// per-message closure.
	env          Env
	tp           *twoPC
	shortCircuit bool

	// The coordinator's wait (see Collect). waiter is the coordinator
	// process while it is parked in a wait; need counts the reports the
	// open Collect still lacks (0: no Collect open); ok and crit are the
	// settled outcome. held keeps the first abort signal delivered while
	// no Collect was open, for the next one.
	waiter   *sim.Proc
	need     int
	ok       bool
	crit     int
	held     bool
	heldCrit int
}

// Reset prepares a (possibly recycled) Txn for a new attempt: fresh
// metadata, no cohorts, no open or held wait. The cohort slice keeps its
// backing array, so re-attaching the attempt's cohorts does not allocate
// once the slice has reached the machine's cohort high-water mark.
//
//ddbmlint:hotpath per-attempt protocol state reset
func (t *Txn) Reset(meta *cc.TxnMeta) {
	t.Meta = meta
	for i := range t.Cohorts {
		t.Cohorts[i] = nil
	}
	t.Cohorts = t.Cohorts[:0]
	t.env, t.tp, t.shortCircuit = nil, nil, false
	t.waiter, t.need, t.held = nil, 0, false
}

// Collect parks the coordinator process until n reports arrive or the
// first abort signal does, whichever is delivered first. Report feeds it
// work-phase completions and YES votes; Fail feeds it self-aborts, NO
// votes and abort or crash notices. crit is the cohort whose delivery
// ended the wait (the n-th report or the failing cohort), or -1 for an
// attempt-level notice. An abort signal held from a delivery while no
// wait was open fails the wait at once; n = 0 returns at once.
//
// The handlers settle the wait in delivery order. Every delivery resumes
// a parked coordinator, even one that does not end the wait (the
// coordinator re-checks and parks again): resuming only on the settling
// delivery would schedule the resume later within the instant and reorder
// same-instant events.
//
//ddbmlint:hotpath coordinator wait pinned by TestTxnPathAllocFree
func (t *Txn) Collect(p *sim.Proc, n int) (ok bool, crit int) {
	if n == 0 {
		return true, -1
	}
	if t.held {
		t.held = false
		return false, t.heldCrit
	}
	t.need = n
	for t.need > 0 {
		t.park(p)
	}
	return t.ok, t.crit
}

// Report delivers cohort idx's work-phase completion or YES vote. It
// settles an open Collect as successful when it is the last report the
// wait needs.
//
//ddbmlint:hotpath report delivery pinned by TestTxnPathAllocFree
func (t *Txn) Report(idx int) {
	if t.need > 0 {
		t.need--
		if t.need == 0 {
			t.ok, t.crit = true, idx
		}
	}
	t.wake()
}

// Fail delivers an abort signal: cohort idx's self-abort or NO vote, or
// (idx -1) an abort or crash notice. It fails an open Collect; with no
// Collect open, the first such signal is held for the next one.
//
//ddbmlint:hotpath abort-signal delivery pinned by TestTxnPathAllocFree
func (t *Txn) Fail(idx int) {
	if t.need > 0 {
		t.need = 0
		t.ok, t.crit = false, idx
	} else if !t.held {
		t.held, t.heldCrit = true, idx
	}
	t.wake()
}

// park suspends the coordinator until the next delivery.
func (t *Txn) park(p *sim.Proc) {
	t.waiter = p
	p.Suspend()
}

// wake resumes the coordinator if it is parked in a wait.
//
//ddbmlint:hotpath every coordinator-bound delivery
func (t *Txn) wake() {
	if w := t.waiter; w != nil {
		t.waiter = nil
		w.Resume()
	}
}

// Attach adds a cohort to the attempt, assigning its index and resetting
// its per-attempt protocol state. The cohort keeps its Deferred backing
// array (resliced to empty) and its pre-bound continuations.
//
//ddbmlint:hotpath per-attempt cohort registration
func (t *Txn) Attach(c *Cohort) {
	c.Idx = len(t.Cohorts)
	c.t = t
	c.ReadOnly = false
	c.done = false
	c.dead = false
	c.abortSent, c.acked = false, false
	c.voteYes, c.voteRO = false, false
	c.Deferred = c.Deferred[:0]
	if c.deferredFn == nil {
		c.deferredFn = c.deferredDone
		c.voteForceFn = c.votedAfterForce
		c.ackForceFn = c.ackAfterForce
	}
	t.Cohorts = append(t.Cohorts, c) //ddbmlint:allow hotpath-alloc cohort slice grows to the attempt high-water mark and survives recycling
}

// Env is the narrow facade over the machine resources a commit protocol
// may drive: the coordinator's network endpoint, the per-node concurrency
// control managers, the log (host and cohort disks), the timestamp source,
// and observation hooks. All methods run in simulation context.
type Env interface {
	// Host returns the coordinator's node id.
	Host() int
	// Send delivers a typed message between nodes with full per-end
	// message CPU costs; a nil handler sends a pure-load message (e.g. a
	// commit ack).
	Send(from, to int, h network.Handler, tag int)
	// Retain and Release bracket every in-flight reference the protocol
	// creates to attempt-owned state (envelopes carrying a Cohort, force
	// and deferred-write continuations): the transaction manager recycles
	// an attempt's state only once the count drains, so stragglers — late
	// votes after an early abort return, phase-two deliveries after Commit
	// returns — never touch recycled memory.
	Retain()
	Release()
	// Manager returns the concurrency control manager at a node.
	Manager(node int) cc.Manager
	// NextTS draws the next globally unique, monotone timestamp.
	NextTS() int64
	// Logging reports whether log forces are modeled (Config.ModelLogging).
	Logging() bool
	// ForceLog synchronously forces a log record at the coordinator's
	// node, blocking the calling process. abortPath attributes the force
	// to abort handling for the metrics.
	ForceLog(p *sim.Proc, abortPath bool)
	// ForceLogAsync forces a log record at a cohort node's disk and then
	// runs done.
	ForceLogAsync(node int, abortPath bool, done func())
	// InstallCommit applies a committed cohort's buffered updates at its
	// node: audit installs plus the per-page deferred write initiation
	// costs. Called at the cohort's node, after Manager(node).Commit.
	InstallCommit(c *Cohort)
	// RecordCommit registers the committed transaction with the machine's
	// serializability auditor. Called once, at the commit decision.
	RecordCommit()
	// Prepared observes the successful end of the prepare phase (all
	// votes yes); Decided observes the commit decision. Observation only —
	// neither may affect simulated behaviour.
	Prepared()
	Decided(committed bool)
	// CohortInDoubt marks the opening of a cohort's in-doubt window: it
	// has voted YES (non-read-only) and holds its locks until the decision
	// arrives. CohortResolved closes the window with the outcome applied
	// at the cohort's node; it also fires for the read-only short-circuit
	// (which never opens a window) so the fault layer can retire the
	// cohort's node-side registration. Down reports a crashed node. All
	// three are no-ops in a fault-free machine.
	CohortInDoubt(c *Cohort)
	CohortResolved(c *Cohort, committed bool)
	Down(node int) bool
}

// Protocol is one two-phase commit variant: the coordinator-side state
// machine driving prepare → decide → resolve and the cohort-side rules for
// voting, logging and acknowledging.
type Protocol interface {
	// Kind identifies the variant.
	Kind() Kind
	// Commit runs the protocol from the end of a successful work phase:
	// prepare fan-out, vote collection, decision logging, and the phase-two
	// fan-out. It returns false if the attempt must abort instead — the
	// transaction manager then runs Abort, which is always safe after a
	// failed Commit.
	Commit(p *sim.Proc, env Env, t *Txn) bool
	// Abort resolves the attempt as aborted across the first loaded
	// cohorts. It returns when the coordinator may forget the attempt —
	// after all abort acknowledgements for the acknowledged variants,
	// immediately after the fan-out for presumed abort.
	Abort(p *sim.Proc, env Env, t *Txn, loaded int)
}

// New returns the protocol implementing a variant.
func New(k Kind) (Protocol, error) {
	switch k {
	case CentralizedTwoPC:
		return &twoPC{kind: k, ackCommits: true, ackAborts: true}, nil
	case PresumedAbort:
		return &twoPC{kind: k, shortCircuitRO: true, ackCommits: true}, nil
	case PresumedCommit:
		return &twoPC{kind: k, shortCircuitRO: true, initForce: true, ackAborts: true, abortForce: true}, nil
	default:
		return nil, fmt.Errorf("commit: unknown protocol %v", k)
	}
}

// fanOut sends one tagged envelope to every live cohort's node, in cohort
// order — the one primitive behind the prepare, commit phase-two and abort
// fan-outs. Cohorts already resolved by the read-only short-circuit, dead
// cohorts (node crash) and cohorts at currently-down nodes are skipped.
// Each envelope carries the cohort itself as its handler and holds one
// attempt reference until the handler's chain completes. It returns the
// number of messages sent.
//
//ddbmlint:hotpath per-cohort broadcast pinned by TestTxnPathAllocFree
func fanOut(env Env, cohorts []*Cohort, tag int) int {
	n := 0
	for _, c := range cohorts {
		if c.done || c.dead {
			continue
		}
		if env.Down(c.Meta.Node) { //ddbmlint:allow hotpath-alloc Env facade dispatch; see above
			// A crashed node's cohort state is the recovery layer's
			// problem; sending would only be dropped at the network.
			continue
		}
		n++
		if tag == tagAbort {
			c.abortSent = true
		}
		env.Retain()                              //ddbmlint:allow hotpath-alloc Env facade dispatch; the sole simulation implementation is core's free-listed protocolEnv
		env.Send(env.Host(), c.Meta.Node, c, tag) //ddbmlint:allow hotpath-alloc Env facade dispatch; the sole simulation implementation is core's free-listed protocolEnv
	}
	return n
}

// MarkDead severs a cohort lost to a node crash from the coordinator's
// protocol run: later fan-outs skip it, and if an abort acknowledgement is
// outstanding a synthetic ack is delivered locally so the coordinator's
// wait can finish — the cohort's node will never send the real one. A
// real ack already in flight then finds the cohort acked and counts
// nothing.
func (c *Cohort) MarkDead() {
	if c.dead {
		return
	}
	c.dead = true
	if c.abortSent && !c.acked && c.t.tp != nil && c.t.tp.ackAborts {
		c.ackDelivered()
	}
}

// Dead reports whether MarkDead severed this cohort.
func (c *Cohort) Dead() bool { return c.dead }

// MsgDropped runs in place of HandleMsg when one of this cohort's protocol
// envelopes is discarded at a crashed node: the envelope's attempt
// reference is released, and a dropped abort or ack is substituted with a
// locally delivered ack so the coordinator's abort wait cannot hang on a
// message that died with the node.
func (c *Cohort) MsgDropped(tag int) {
	if (tag == tagAbort || tag == tagAck) && !c.acked &&
		c.t.tp != nil && c.t.tp.ackAborts {
		c.ackDelivered()
	}
	c.t.env.Release()
}

// ackDelivered records the cohort's abort acknowledgement at the
// coordinator and wakes the coordinator's ack wait.
//
//ddbmlint:hotpath ack delivery on the abort path
func (c *Cohort) ackDelivered() {
	c.acked = true
	c.t.wake()
}
