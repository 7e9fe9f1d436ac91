package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ddbm"
)

// mode selects what one operation measures and checks.
type mode int

const (
	// modeCheck is the untimed check pass: the serializability audit where
	// the model supports it, and CheckChromeTrace on the traced workload.
	modeCheck mode = iota
	// modeTimed measures the end-to-end metrics.
	modeTimed
	// modeLayer is the layer-traced run: Config.Breakdown on and a CPU
	// profile around Run.
	modeLayer
)

// runDeadline bounds one Machine.Run. A run that misses it (a simulation
// that stops advancing simulated time) fails its operation.
const runDeadline = 60 * time.Second

// errDeadline reports a missed run deadline.
var errDeadline = errors.New("Machine.Run missed its wall deadline")

// machineRun is what one machine of an operation measured.
type machineRun struct {
	runS float64
	// cpuS is the process CPU time (user + system) spent while Run ran:
	// the simulation and the runtime work it causes, such as the
	// collector. Unlike runS it leaves out time the host took the virtual
	// CPU away (steal).
	cpuS   float64
	simS   float64
	res    ddbm.Result
	events uint64
	fp     uint64
	allocB uint64
	gcs    uint32

	// Traced workload only: trace and probe sizes, and (modeLayer) the
	// Chrome export into a counting sink.
	traceEvents  int
	probeSamples int
	traceBytes   int64
	exportS      float64
}

// opRun is one operation: the machines of a workload at one seed.
type opRun struct {
	machines  []machineRun
	peakRSSMB float64
	profile   []byte // modeLayer only
	failures  []string
	// halted reports a machine that could not be built or whose run
	// missed its deadline. A stuck run cannot be stopped, so the
	// invocation reports and ends after a halted operation.
	halted bool
}

// bench runs the operations of one invocation and keeps what the result
// needs across them.
type bench struct {
	w        *workload
	seed     int64
	deadline time.Duration // bound on one Machine.Run
	spans    spanLog
	// fps holds the simulated fingerprint of each machine index, from the
	// first run of it; every later run must reproduce it.
	fps          map[int]uint64
	setupSamples []float64
	attempted    int
	failed       int
	failures     []string
}

// runOp runs one operation of the given mode over the listed machine
// indices. Failures of the workload are recorded on the operation; an
// error means the host cannot measure. In modeLayer one CPU profile
// covers the operation, and everything but Machine.Run is labelled as the
// benchmark's own work.
func (b *bench) runOp(md mode, idx []int) (*opRun, error) {
	b.attempted++
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	sp := b.spans.begin("op:"+md.String(), 0)
	op := &opRun{}
	var prof bytes.Buffer
	if md == modeLayer {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	for _, i := range idx {
		mr, err := b.runMachine(md, i, sp, op)
		if err != nil {
			op.failures = append(op.failures, fmt.Sprintf("machine %d: %v", i, err))
			op.halted = true
			break
		}
		op.machines = append(op.machines, mr)
	}
	if md == modeLayer {
		pprof.StopCPUProfile()
		op.profile = prof.Bytes()
	}
	b.spans.end(sp)
	if len(op.failures) > 0 {
		b.failed++
		b.failures = append(b.failures, op.failures...)
	}
	var err error
	op.peakRSSMB, err = peakRSSMB()
	return op, err
}

func (m mode) String() string {
	return [...]string{"check", "timed", "layer"}[m]
}

// own runs f as the benchmark's own work: inside a span, and under a
// pprof label so a profiled operation does not charge it to the model.
func (b *bench) own(name string, parent int, f func()) {
	sp := b.spans.begin(name, parent)
	pprof.Do(context.Background(), pprof.Labels(benchLabel, name), func(context.Context) { f() })
	b.spans.end(sp)
}

// runMachine sets up, runs and checks machine i of the workload, adding
// gate failures to op.
func (b *bench) runMachine(md mode, i, parent int, op *opRun) (machineRun, error) {
	cfg := b.w.machineConfig(b.seed, i)
	cfg.Audit = md == modeCheck && b.w.audit
	cfg.Breakdown = md == modeLayer
	fail := func(format string, args ...any) {
		op.failures = append(op.failures, fmt.Sprintf("machine %d (seed %d): ", i, cfg.Seed)+fmt.Sprintf(format, args...))
	}

	var (
		m   *ddbm.Machine
		tr  *ddbm.Tracer
		ts  *ddbm.TimeSeries
		mr  = machineRun{simS: b.w.simS}
		err error
	)
	b.own("setup", parent, func() {
		if md != modeLayer {
			runtime.GC() // start every timed set-up and run from a collected heap
		}
		m, tr, ts, err = b.setUp(cfg)
	})
	if err != nil {
		return machineRun{}, err
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sp := b.spans.begin("run", parent)
	mr.res, mr.runS, mr.cpuS, err = runWithDeadline(m, b.deadline)
	b.spans.end(sp)
	if err != nil {
		return machineRun{}, err
	}
	runtime.ReadMemStats(&ms1)
	mr.events = m.Sim().EventsDispatched()
	mr.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	mr.gcs = ms1.NumGC - ms0.NumGC
	mr.fp = fingerprint(&mr.res, mr.events)

	b.own("verify", parent, func() {
		res := &mr.res
		if want, ok := b.fps[i]; !ok {
			b.fps[i] = mr.fp
		} else if mr.fp != want {
			fail("simulated fingerprint %016x differs from %016x of an earlier run", mr.fp, want)
		}
		if n := len(res.AuditViolations); n > 0 {
			fail("serializability audit found %d anomalies, first: %s", n, res.AuditViolations[0])
		}
		if md == modeLayer {
			if err := checkBreakdown(res); err != nil {
				fail("%v", err)
			}
		}
		if tr == nil {
			return
		}
		mr.traceEvents, mr.probeSamples = tr.Len(), ts.Len()
		switch md {
		case modeCheck:
			var buf bytes.Buffer
			if err := ddbm.WriteChromeTrace(&buf, tr.Events(), cfg.NumProcNodes); err != nil {
				fail("WriteChromeTrace: %v", err)
			} else if err := ddbm.CheckChromeTrace(buf.Bytes()); err != nil {
				fail("CheckChromeTrace: %v", err)
			}
			mr.traceBytes = int64(buf.Len())
		case modeLayer:
			var sink countingWriter
			t0 := time.Now()
			if err := ddbm.WriteChromeTrace(&sink, tr.Events(), cfg.NumProcNodes); err != nil {
				fail("WriteChromeTrace: %v", err)
			}
			mr.exportS = time.Since(t0).Seconds()
			mr.traceBytes = sink.n
		}
	})
	return mr, nil
}

// setUp builds one machine of the workload, enabling the tracer and probes
// on the traced workload.
func (b *bench) setUp(cfg ddbm.Config) (*ddbm.Machine, *ddbm.Tracer, *ddbm.TimeSeries, error) {
	m, err := ddbm.NewMachine(cfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("NewMachine: %w", err)
	}
	var tr *ddbm.Tracer
	var ts *ddbm.TimeSeries
	if b.w.traced {
		tr = m.EnableTracing()
		ts = m.EnableProbes(probeIntervalMs)
	}
	return m, tr, ts, nil
}

// timeSetUps times n set-ups of cfg and records them. Every set-up starts
// from a collected heap, so the samples do not depend on how many
// operations ran before them. The machines are never run.
func (b *bench) timeSetUps(cfg ddbm.Config, n int) error {
	sp := b.spans.begin("setup-timing", 0)
	defer b.spans.end(sp)
	debug.FreeOSMemory()
	for range n {
		runtime.GC()
		t0 := time.Now()
		if _, _, _, err := b.setUp(cfg); err != nil {
			return err
		}
		b.setupSamples = append(b.setupSamples, time.Since(t0).Seconds())
	}
	return nil
}

// runWithDeadline runs the machine and returns its result and the wall
// and process CPU seconds Run took, or errDeadline when Run has not
// returned within limit.
func runWithDeadline(m *ddbm.Machine, limit time.Duration) (ddbm.Result, float64, float64, error) {
	type done struct {
		res       ddbm.Result
		wall, cpu float64
		err       error
	}
	ch := make(chan done, 1)
	// The goroutine ends when Run returns; after a missed deadline nothing
	// can stop it, and the invocation exits instead.
	go func() {
		c0, err := cpuSeconds()
		t0 := time.Now()
		res := m.Run()
		wall := time.Since(t0).Seconds()
		c1, err1 := cpuSeconds()
		ch <- done{res, wall, c1 - c0, errors.Join(err, err1)}
	}()
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case d := <-ch:
		return d.res, d.wall, d.cpu, d.err
	case <-timer.C:
		return ddbm.Result{}, 0, 0, errDeadline
	}
}

// cpuSeconds returns the CPU time, user plus system, the process has used
// so far. The kernel leaves out steal time, when the host runs something
// else on the virtual CPU.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, nil
}

// fingerprint hashes the simulated outputs of a run. A change that touches
// only the simulator's host-side speed must leave it unchanged.
func fingerprint(r *ddbm.Result, events uint64) uint64 {
	var buf []byte
	for _, v := range []int64{r.Commits, r.Aborts, r.BlockCount, r.MessagesSent, r.LogForces,
		r.AbortPathLogForces, r.Crashes, r.MessagesLost, r.InDoubtWindows, int64(events)} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	for _, v := range []float64{r.MeanResponseMs, r.RespP50Ms, r.RespP99Ms, r.MeanBlockMs,
		r.ProcCPUUtil, r.ProcDiskUtil, r.HostCPUUtil, r.AvgActiveTxns, r.Availability,
		r.RecoveryTimeMs, r.InDoubtTimeMs, r.BlockedInDoubtMs} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}

// checkBreakdown checks the time-breakdown invariants of a layer-traced
// run: the phase means tile the mean response time and every abort has
// exactly one cause.
func checkBreakdown(r *ddbm.Result) error {
	if r.PhaseMeanMs == nil {
		return errors.New("breakdown: Result has no phase means")
	}
	sum := 0.0
	for _, p := range ddbm.PhaseNames() {
		sum += r.PhaseMeanMs[p]
	}
	if d := math.Abs(sum - r.MeanResponseMs); d > 1e-6 {
		return fmt.Errorf("breakdown: phase means sum to %.9f ms, mean response is %.9f ms", sum, r.MeanResponseMs)
	}
	var aborts int64
	for _, n := range r.AbortsByCause {
		aborts += n
	}
	if aborts != r.Aborts {
		return fmt.Errorf("breakdown: aborts by cause sum to %d, Aborts is %d", aborts, r.Aborts)
	}
	return nil
}

// countingWriter discards what is written to it and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// resetPeakRSS restarts the kernel's peak-resident-set counter (VmHWM) at
// the current resident set, so the next reading covers one operation.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the peak resident set since the last reset, in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("read peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("read peak RSS: no VmHWM line")
}

// spanLog records the benchmark's own spans around set-up, runs, exports
// and checks, in wall time from the invocation's start.
type spanLog struct {
	t0    time.Time
	spans []span
}

type span struct {
	Name    string  `json:"name"`
	Parent  int     `json:"parent"` // index+1 of the enclosing span; 0 at the top
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

func (l *spanLog) now() float64 { return float64(time.Since(l.t0).Nanoseconds()) / 1e6 }

// begin opens a span under parent and returns its handle (index+1).
func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{Name: name, Parent: parent, StartMs: l.now()})
	return len(l.spans)
}

func (l *spanLog) end(h int) { l.spans[h-1].EndMs = l.now() }

// selfSeconds sums each span name's self time: its duration minus the
// time its child spans cover.
func (l *spanLog) selfSeconds() map[string]float64 {
	child := make([]float64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent > 0 {
			child[s.Parent-1] += s.EndMs - s.StartMs
		}
	}
	self := map[string]float64{}
	for i, s := range l.spans {
		self[s.Name] += (s.EndMs - s.StartMs - child[i]) / 1e3
	}
	return self
}
