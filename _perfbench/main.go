// Command perfbench is the simulator's benchmark. It runs one macro
// workload of the ddbm model through the public ddbm API for a wall-time
// budget, checks that every run is correct and reproducible, and prints
// one JSON object as the last line of its output: the end-to-end metrics
// (simulated seconds and committed transactions per CPU second, set-up
// time, peak resident memory) with -trace 0, or the per-layer metrics
// (host CPU per model layer from a CPU profile, simulated counts, the
// time breakdown) with -trace 1. Each result is also appended, with its
// provenance, to a JSON-lines log. README.md describes the workloads,
// metrics and rules.
//
//	perfbench --workload paper-8node-2pl --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// setupSamples is how many machine set-ups an invocation times for
// setup_s, after its operations.
const setupSamples = 41

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see README.md)")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same simulated inputs")
	seconds := fs.Float64("seconds", 30, "wall seconds of measured operations")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the layer-traced run")
	results := fs.String("results", filepath.Join(".bench_build", "perfbench", "results.jsonl"),
		"JSON-lines file each result is appended to, with its provenance (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	case *seconds <= 0:
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}

	rec, err := measure(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(stderr, "perfbench: FAILED %s\n", f)
	}
	if *results != "" {
		if err := appendRecord(*results, rec); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one invocation's result as appended to the results log.
type record struct {
	Provenance provenance        `json:"provenance"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Failures   []string          `json:"failures,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	// PerOp holds each measured operation's own figures, the samples the
	// reported medians come from.
	PerOp []map[string]float64 `json:"per_op"`
	// SetupSamplesS are the timed machine set-ups behind setup_s.
	SetupSamplesS []float64 `json:"setup_samples_s"`
	// LayerSharePct is each layer's share of profiled CPU (-trace 1).
	LayerSharePct map[string]float64 `json:"layer_share_pct,omitempty"`
	SpanSelfS     map[string]float64 `json:"span_self_s"`
	Spans         []span             `json:"spans"`
}

type provenance struct {
	Commit        string  `json:"commit"`
	GoVersion     string  `json:"go_version"`
	GOOS          string  `json:"goos"`
	GOARCH        string  `json:"goarch"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"num_cpu"`
	Host          string  `json:"host"`
	Started       string  `json:"started"`
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Trace         bool    `json:"trace"`
	BudgetS       float64 `json:"budget_s"`
	Runs          int     `json:"runs"`
	MachinesPerOp int     `json:"machines_per_run"`
	SimSPerMach   float64 `json:"sim_s_per_machine"`
}

// measure runs the check pass and then measured operations until the
// budget is spent, and assembles the record.
func measure(w *workload, seed int64, budget float64, layer bool) (*record, error) {
	host, _ := os.Hostname() // provenance only; an unknown host stays ""
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	start := time.Now()
	b := &bench{w: w, seed: seed, deadline: runDeadline, fps: map[int]uint64{}, spans: spanLog{t0: start}}
	rec := &record{Provenance: provenance{
		Commit: commit, GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Host: host,
		Started: start.UTC().Format(time.RFC3339), Workload: w.name, Seed: seed, Trace: layer,
		BudgetS: budget, MachinesPerOp: w.machines, SimSPerMach: w.simS,
	}}

	all := make([]int, w.machines)
	for i := range all {
		all[i] = i
	}
	md := modeTimed
	if layer {
		md = modeLayer
	}
	var ops []*opRun
	op, err := b.runOp(modeCheck, []int{0})
	loop := time.Now()
	var last time.Duration
	for err == nil && !op.halted && (len(ops) == 0 || time.Since(loop)+last <= time.Duration(budget*float64(time.Second))) {
		t0 := time.Now()
		if op, err = b.runOp(md, all); err == nil && !op.halted {
			ops = append(ops, op)
		}
		last = time.Since(t0)
	}
	if err == nil && !op.halted {
		err = b.timeSetUps(w.machineConfig(seed, 0), setupSamples)
	}
	if err != nil {
		return nil, err
	}

	rec.Provenance.Runs = len(ops)
	rec.Correct, rec.Attempted, rec.Failed, rec.Failures = b.failed == 0, b.attempted, b.failed, b.failures
	rec.SetupSamplesS = b.setupSamples
	if layer {
		if rec.Metrics, rec.LayerSharePct, err = layerMetrics(w, ops); err != nil {
			return nil, err
		}
	} else {
		rec.Metrics = endToEndMetrics(ops, b.setupSamples)
	}
	for _, op := range ops {
		rec.PerOp = append(rec.PerOp, op.figures())
	}
	rec.SpanSelfS, rec.Spans = b.spans.selfSeconds(), b.spans.spans
	return rec, nil
}

// figures are one operation's end-to-end figures: simulated seconds and
// commits over the CPU seconds, and over the wall seconds, of
// Machine.Run, summed over its machines.
func (op *opRun) figures() map[string]float64 {
	var simS, runS, cpuS, commits, events float64
	for _, m := range op.machines {
		simS += m.simS
		runS += m.runS
		cpuS += m.cpuS
		commits += float64(m.res.Commits)
		events += float64(m.events)
	}
	return map[string]float64{
		"sim_s_per_cpu_s":    simS / cpuS,
		"commits_per_cpu_s":  commits / cpuS,
		"sim_s_per_wall_s":   simS / runS,
		"commits_per_wall_s": commits / runS,
		"events_per_wall_s":  events / runS,
		"peak_rss_mb":        op.peakRSSMB,
		"run_s":              runS,
		"cpu_s":              cpuS,
	}
}

func endToEndMetrics(ops []*opRun, setups []float64) map[string]metric {
	ms := map[string]metric{}
	if len(setups) > 0 {
		ms["setup_s"] = metric{median(setups), "s"}
	}
	if len(ops) == 0 {
		return ms
	}
	for name, unit := range map[string]string{
		"sim_s_per_cpu_s": "s/s", "commits_per_cpu_s": "1/s", "peak_rss_mb": "MB",
	} {
		vals := make([]float64, len(ops))
		for i, op := range ops {
			vals[i] = op.figures()[name]
		}
		ms[name] = metric{median(vals), unit}
	}
	return ms
}

// median returns the median of vals (the mean of the middle two for an
// even count).
func median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// appendRecord appends rec as one JSON line to path, creating the file
// and its directory when missing. Earlier records are never rewritten.
func appendRecord(path string, rec *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("results log: %w", err)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("results log: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("results log: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("results log: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("results log: %w", err)
	}
	return nil
}
