package core

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ddbm/internal/cc"
	"ddbm/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// tinyTraceConfig is the 2-node, 4-terminal run used for the golden
// Chrome-trace file: small enough that the trace stays reviewable, busy
// enough to exercise every span kind.
func tinyTraceConfig() Config {
	cfg := DefaultConfig()
	cfg.Algorithm = cc.TwoPL
	cfg.NumProcNodes = 2
	cfg.NumTerminals = 4
	cfg.PagesPerFile = 50
	cfg.ThinkTimeMs = 50
	cfg.SimTimeMs = 300
	cfg.WarmupMs = 0
	cfg.Seed = 3
	return cfg
}

// Tracing and probing are pure observation: an instrumented run must
// produce a bit-identical Result to the plain run (same floats to the
// last ulp, not just statistically close).
func TestTracingPreservesResults(t *testing.T) {
	cfg := testConfig(cc.TwoPL)
	cfg.SimTimeMs = 30_000
	cfg.WarmupMs = 5_000

	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.EnableTracing()
	ts := m.EnableProbes(50)
	traced := m.Run()

	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("tracing perturbed the run:\nplain  %+v\ntraced %+v", plain, traced)
	}
	if tr.Len() == 0 {
		t.Fatal("tracer recorded nothing")
	}
	if ts.Len() == 0 {
		t.Fatal("probes recorded nothing")
	}
}

// A real traced run must export a structurally valid Chrome trace —
// parseable JSON, properly nested tracks, cohort/CC/commit-phase spans
// inside their attempt spans — and cover the whole span taxonomy.
func TestTraceStructure(t *testing.T) {
	cfg := testConfig(cc.TwoPL)
	cfg.SimTimeMs = 10_000
	cfg.WarmupMs = 1_000
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.EnableTracing()
	m.Run()

	kinds := map[obs.Kind]bool{}
	names := map[string]bool{}
	for _, e := range tr.Events() {
		kinds[e.Kind] = true
		names[e.Name] = true
	}
	for k := obs.KindTxn; k <= obs.KindInstant; k++ {
		if !kinds[k] {
			t.Errorf("no %v events recorded", k)
		}
	}
	for _, n := range []string{"attempt", "cohort", "cc-wait", "prepare", "decide", "resolve", "msg", "cpu", "read", "write", "submitted", "committed", "aborted"} {
		if !names[n] {
			t.Errorf("no %q events recorded", n)
		}
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tr.Events(), cfg.NumProcNodes); err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("traced run fails structural validation: %v", err)
	}
}

// Traced runs with restarts at think time 0 must export a valid Chrome
// trace. These two configurations hit both ways a cohort span can break
// the check: an aborted attempt's cohort still finishing its in-flight
// step while the restart's cohort runs at the same node (each attempt
// needs its own track), and a cohort whose load lands after its attempt
// was aborted (it must record no span, which would lie past the
// attempt's end).
func TestTracedRestartsPassChromeCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-size traced runs")
	}
	for _, tc := range []struct {
		name string
		alg  cc.Kind
		simS float64
	}{
		{"2PL-60s", cc.TwoPL, 60},
		{"WW-120s", cc.WoundWait, 120},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Algorithm = tc.alg
			cfg.SimTimeMs = tc.simS * 1000
			cfg.WarmupMs = 10_000
			cfg.Seed = 7
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := m.EnableTracing()
			m.Run()
			var buf bytes.Buffer
			if err := obs.WriteChromeTrace(&buf, tr.Events(), cfg.NumProcNodes); err != nil {
				t.Fatal(err)
			}
			if err := obs.CheckChromeTrace(buf.Bytes()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The probe time series must reproduce the end-of-run utilization
// aggregates within rounding: the mean of the sampled per-window
// utilizations over the measurement interval approximates the warmup-
// adjusted busy-time ratio (the only differences are the unsampled tail
// after the final probe and disk busy credit landing at completion).
func TestProbesMatchAggregates(t *testing.T) {
	cfg := testConfig(cc.TwoPL)
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := m.EnableProbes(100)
	res := m.Run()
	end := m.Sim().Now()

	if ts.Len() < 100 {
		t.Fatalf("only %d samples; expected hundreds over a %vms run", ts.Len(), cfg.SimTimeMs)
	}
	for i := 0; i < cfg.NumProcNodes; i++ {
		cpu := ts.MeanCPUUtil(i, cfg.WarmupMs, end)
		if d := math.Abs(cpu - res.PerNodeCPUUtil[i]); d > 0.02 {
			t.Errorf("node %d sampled CPU util %.4f vs aggregate %.4f (Δ %.4f)", i, cpu, res.PerNodeCPUUtil[i], d)
		}
		disk := ts.MeanDiskUtil(i, cfg.WarmupMs, end)
		if d := math.Abs(disk - res.PerNodeDiskUtil[i]); d > 0.03 {
			t.Errorf("node %d sampled disk util %.4f vs aggregate %.4f (Δ %.4f)", i, disk, res.PerNodeDiskUtil[i], d)
		}
	}
	host := ts.MeanCPUUtil(cfg.NumProcNodes, cfg.WarmupMs, end)
	if d := math.Abs(host - res.HostCPUUtil); d > 0.02 {
		t.Errorf("host sampled CPU util %.4f vs aggregate %.4f (Δ %.4f)", host, res.HostCPUUtil, d)
	}

	// Gauge sanity: under 2PL contention the samples must catch work in
	// flight — cohorts active, locks held, and at least one blocked cohort.
	var sawActive, sawLocks, sawBlocked, sawQueue bool
	for i := 0; i < cfg.NumProcNodes; i++ {
		ns := &ts.Nodes[i]
		for j := range ts.Times {
			sawActive = sawActive || ns.ActiveCohorts[j] > 0
			sawLocks = sawLocks || ns.LockTableSize[j] > 0
			sawBlocked = sawBlocked || ns.BlockedTxns[j] > 0
			sawQueue = sawQueue || ns.ReadyQueue[j] > 0
		}
	}
	if !sawActive || !sawLocks || !sawBlocked || !sawQueue {
		t.Errorf("gauges flat over the whole run: active=%v locks=%v blocked=%v queue=%v",
			sawActive, sawLocks, sawBlocked, sawQueue)
	}
}

// The golden Chrome trace pins the exporter's byte-for-byte output for a
// tiny deterministic run. Regenerate with
//
//	go test ./internal/core -run TestGoldenChromeTrace -update
//
// only for a deliberate model or exporter change.
func TestGoldenChromeTrace(t *testing.T) {
	cfg := tinyTraceConfig()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.EnableTracing()
	m.Run()

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tr.Events(), cfg.NumProcNodes); err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("golden run fails structural validation: %v", err)
	}

	path := filepath.Join("testdata", "golden_trace.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes, %d events)", path, buf.Len(), tr.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("golden Chrome trace diverged (%d bytes vs %d); the sim is deterministic, so this means the model or the exporter changed — regenerate with -update if deliberate", buf.Len(), len(want))
	}
}

// JSONL round-trips a real machine trace, not just handcrafted events.
func TestMachineTraceJSONLRoundTrip(t *testing.T) {
	cfg := tinyTraceConfig()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.EnableTracing()
	m.Run()

	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr.Events()) {
		t.Fatal("JSONL round trip of a machine trace lost information")
	}
}
