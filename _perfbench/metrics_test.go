package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"ddbm"
)

// TestMetricsMatchBenchmarkJSON runs a short machine through the timed and
// layer-traced paths and checks that the emitted metric names are exactly
// the ones BENCHMARK.json declares, with the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}

	w := &workload{name: "short", machines: 2, simS: 20, config: ddbm.DefaultConfig}
	b := &bench{w: w, seed: 1, deadline: runDeadline, fps: map[int]uint64{}}
	timed, err := b.runOp(modeTimed, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	layer, err := b.runOp(modeLayer, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 {
		t.Fatalf("gate failures on a clean run: %v", b.failures)
	}
	if err := b.timeSetUps(w.machineConfig(1, 0), 3); err != nil {
		t.Fatal(err)
	}
	layerMs, _, err := layerMetrics(w, []*opRun{layer})
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got map[string]metric, want []struct{ Name, Unit string }) {
		var names []string
		for _, m := range want {
			names = append(names, m.Name)
			if g, ok := got[m.Name]; !ok {
				t.Errorf("%s metric %s declared but not emitted", kind, m.Name)
			} else if g.Unit != m.Unit {
				t.Errorf("%s metric %s: unit %q, declared %q", kind, m.Name, g.Unit, m.Unit)
			}
		}
		for name := range got {
			if !slices.Contains(names, name) {
				t.Errorf("%s metric %s emitted but not declared", kind, name)
			}
		}
	}
	check("end-to-end", endToEndMetrics([]*opRun{timed}, b.setupSamples), spec.EndToEnd)
	check("per-layer", layerMs, spec.PerLayer)
}

// TestRunsAreReproducible checks the fingerprint gate from both sides: a
// repeated machine reproduces its fingerprint, and a changed simulated
// output is reported as a failure.
func TestRunsAreReproducible(t *testing.T) {
	w := &workload{name: "short", machines: 1, simS: 20, config: ddbm.DefaultConfig}
	b := &bench{w: w, seed: 3, deadline: runDeadline, fps: map[int]uint64{}}
	for i := 0; i < 2; i++ {
		if _, err := b.runOp(modeTimed, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	if b.failed != 0 {
		t.Fatalf("identical runs failed the fingerprint gate: %v", b.failures)
	}
	b.fps[0]++ // as if an earlier run had simulated something else
	if _, err := b.runOp(modeTimed, []int{0}); err != nil {
		t.Fatal(err)
	}
	if b.failed != 1 || b.attempted != 3 {
		t.Errorf("failed %d of %d after a fingerprint change, want 1 of 3", b.failed, b.attempted)
	}
}

// TestHaltingFailures checks that a machine that cannot be built, or whose
// run misses the wall deadline, fails and halts its operation.
func TestHaltingFailures(t *testing.T) {
	broken := func() ddbm.Config {
		cfg := ddbm.DefaultConfig()
		cfg.NumProcNodes = 0
		return cfg
	}
	cases := []struct {
		name     string
		config   func() ddbm.Config
		deadline time.Duration
	}{
		{"NewMachine error", broken, runDeadline},
		{"missed deadline", ddbm.DefaultConfig, time.Microsecond},
	}
	for _, c := range cases {
		w := &workload{name: "short", machines: 2, simS: 2, config: c.config}
		b := &bench{w: w, seed: 1, deadline: c.deadline, fps: map[int]uint64{}}
		op, err := b.runOp(modeTimed, []int{0, 1})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !op.halted || len(op.machines) != 0 || b.failed != 1 {
			t.Errorf("%s: halted %v, %d machines done, %d failed; want halted, 0, 1",
				c.name, op.halted, len(op.machines), b.failed)
		}
	}
}
