package obs

import "ddbm/internal/sim"

// NodeSeries holds one node's sampled gauges, index-aligned with
// TimeSeries.Times. The utilization columns are per-window (busy time
// accumulated during the interval ending at the sample, divided by the
// interval), not cumulative — disk busy time is credited at access
// completion, so a long access crossing a window boundary lands wholly in
// the completing window and a single disk window can read slightly
// above 1.
type NodeSeries struct {
	Node          int
	ActiveCohorts []int
	ReadyQueue    []int
	LockTableSize []int
	BlockedTxns   []int
	CPUUtil       []float64
	DiskUtil      []float64
	// Down is the availability gauge: 1 when the node was crashed at the
	// sample instant, 0 otherwise (always 0 without fault injection; the
	// host never reports down — host failures are modeled as failover).
	Down []int
}

// TimeSeries is the product of the periodic probe sampler: per-node gauge
// snapshots every IntervalMs of simulated time. The sampler is itself a
// periodic simulation event, but a pure observer — it reads counters and queue
// lengths without touching the random source, mutating any model state,
// or perturbing the relative order of model events (extra sampler events
// only advance the kernel's sequence counter uniformly) — so an enabled
// sampler leaves the run bit-identical to an unsampled one. Asserted by
// TestTracingPreservesResults in internal/core.
type TimeSeries struct {
	IntervalMs float64
	// Times holds the sample instants; sample i describes the window
	// (Times[i]-IntervalMs, Times[i]].
	Times []sim.Time
	// Nodes holds one series per processing node, plus the host last
	// (the host has no CC manager and no cohorts; those gauges stay 0).
	Nodes []NodeSeries
}

// NewTimeSeries preallocates a series for `nodes` node entries and about
// `samples` samples per column, so steady-state sampling does not grow
// any slice.
func NewTimeSeries(intervalMs float64, nodes, samples int) *TimeSeries {
	if samples < 1 {
		samples = 1
	}
	ts := &TimeSeries{
		IntervalMs: intervalMs,
		Times:      make([]sim.Time, 0, samples),
		Nodes:      make([]NodeSeries, nodes),
	}
	for i := range ts.Nodes {
		ts.Nodes[i] = NodeSeries{
			Node:          i,
			ActiveCohorts: make([]int, 0, samples),
			ReadyQueue:    make([]int, 0, samples),
			LockTableSize: make([]int, 0, samples),
			BlockedTxns:   make([]int, 0, samples),
			CPUUtil:       make([]float64, 0, samples),
			DiskUtil:      make([]float64, 0, samples),
			Down:          make([]int, 0, samples),
		}
	}
	return ts
}

// Len returns the number of samples taken.
func (ts *TimeSeries) Len() int {
	if ts == nil {
		return 0
	}
	return len(ts.Times)
}

// MeanCPUUtil averages node's sampled per-window CPU utilization over the
// samples with from < t <= to — the probe-side counterpart of the
// end-of-run utilization aggregate, used to cross-check the two paths.
func (ts *TimeSeries) MeanCPUUtil(node int, from, to sim.Time) float64 {
	return seriesMean(ts, ts.Nodes[node].CPUUtil, from, to)
}

// MeanDiskUtil averages node's sampled per-window disk utilization over
// the samples with from < t <= to.
func (ts *TimeSeries) MeanDiskUtil(node int, from, to sim.Time) float64 {
	return seriesMean(ts, ts.Nodes[node].DiskUtil, from, to)
}

func seriesMean(ts *TimeSeries, vals []float64, from, to sim.Time) float64 {
	var sum float64
	n := 0
	for i, t := range ts.Times {
		if t > from && t <= to {
			sum += vals[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
