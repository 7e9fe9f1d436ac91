package main

// abortCauses are the abort causes reported as cc.aborts.<cause>; a cause
// outside this list is reported as cc.aborts.other.
var abortCauses = []string{
	"local-deadlock", "global-deadlock", "lock-timeout", "wound", "bto-too-late",
	"opt-certify", "coordinator", "node-crash", "coordinator-crash",
}

// phaseMetrics maps breakdown phases to their per-layer metric names.
var phaseMetrics = map[string]string{
	"cpu-service":    "resource.cpu_service_ms",
	"cpu-queue":      "resource.cpu_queue_ms",
	"disk-service":   "resource.disk_service_ms",
	"disk-queue":     "resource.disk_queue_ms",
	"lock-blocked":   "cc.lock_blocked_ms",
	"net-transit":    "network.transit_ms",
	"commit-prepare": "commit.prepare_ms",
	"commit-decide":  "commit.decide_ms",
	"commit-resolve": "commit.resolve_ms",
	"restart-wait":   "core.restart_wait_ms",
}

// simCounts are the per-layer figures read from one machine's Result:
// deterministic simulated counts, plus the Go runtime's allocation and
// GC counts around Run. Each is reported as the mean over an operation's
// machines.
var simCounts = []struct {
	name, unit string
	get        func(m *machineRun) float64
}{
	{"sim.events_per_sim_s", "1/s", func(m *machineRun) float64 { return float64(m.events) / m.simS }},
	{"core.tps", "1/s", func(m *machineRun) float64 { return m.res.ThroughputTPS }},
	{"core.resp_p50_ms", "ms", func(m *machineRun) float64 { return m.res.RespP50Ms }},
	{"core.resp_p99_ms", "ms", func(m *machineRun) float64 { return m.res.RespP99Ms }},
	{"core.abort_ratio", "ratio", func(m *machineRun) float64 { return m.res.AbortRatio }},
	{"cc.blocks_per_commit", "ratio", func(m *machineRun) float64 { return ratio(m.res.BlockCount, m.res.Commits) }},
	{"cc.mean_block_ms", "ms", func(m *machineRun) float64 { return m.res.MeanBlockMs }},
	{"resource.proc_cpu_util", "ratio", func(m *machineRun) float64 { return m.res.ProcCPUUtil }},
	{"resource.proc_disk_util", "ratio", func(m *machineRun) float64 { return m.res.ProcDiskUtil }},
	{"resource.host_cpu_util", "ratio", func(m *machineRun) float64 { return m.res.HostCPUUtil }},
	{"network.msgs_per_sim_s", "1/s", func(m *machineRun) float64 { return float64(m.res.MessagesSent) / m.simS }},
	{"commit.log_forces_per_sim_s", "1/s", func(m *machineRun) float64 { return float64(m.res.LogForces) / m.simS }},
	{"commit.abort_path_log_forces", "count", func(m *machineRun) float64 { return float64(m.res.AbortPathLogForces) }},
	{"fault.crashes", "count", func(m *machineRun) float64 { return float64(m.res.Crashes) }},
	{"fault.availability", "ratio", func(m *machineRun) float64 { return m.res.Availability }},
	{"core.goodput_per_s", "1/s", func(m *machineRun) float64 { return m.res.GoodputPerSec }},
	{"recovery.recovery_ms", "ms", func(m *machineRun) float64 { return m.res.RecoveryTimeMs }},
	{"recovery.in_doubt_ms", "ms", func(m *machineRun) float64 { return m.res.InDoubtTimeMs }},
	{"recovery.blocked_in_doubt_ms", "ms", func(m *machineRun) float64 { return m.res.BlockedInDoubtMs }},
	{"runtime.alloc_mb", "MB", func(m *machineRun) float64 { return float64(m.allocB) / 1e6 }},
	{"runtime.gc_cycles", "count", func(m *machineRun) float64 { return float64(m.gcs) }},
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics assembles the per-layer metrics of the layer-traced
// operations: host CPU per layer from their profiles, the simulated
// counts and time breakdown of their Results, and on the traced workload
// the trace sizes and export time. It also returns each layer's share of
// the profiled CPU, in percent.
func layerMetrics(w *workload, ops []*opRun) (map[string]metric, map[string]float64, error) {
	ms := map[string]metric{}
	if len(ops) == 0 {
		return ms, nil, nil
	}

	var profiledSimS float64
	var samples int64
	ns := map[string]int64{}
	var eventsPerWall []float64
	for _, op := range ops {
		st, err := decodeProfile(op.profile)
		if err != nil {
			return nil, nil, err
		}
		layerNs, n := layerTimes(st)
		for l, v := range layerNs {
			ns[l] += v
		}
		samples += n
		for _, m := range op.machines {
			profiledSimS += m.simS
		}
		eventsPerWall = append(eventsPerWall, op.figures()["events_per_wall_s"])
	}
	var total int64
	for _, v := range ns {
		total += v
	}
	share := map[string]float64{}
	for _, l := range layers {
		ms[l+".host_ms_per_sim_s"] = metric{float64(ns[l]) / 1e6 / profiledSimS, "ms/s"}
		if total > 0 {
			share[l] = 100 * float64(ns[l]) / float64(total)
		}
	}
	ms["profile.samples"] = metric{float64(samples), "count"}
	ms["profile.attributed_pct"] = metric{100 - share["other"], "%"}
	ms["sim.events_per_wall_s"] = metric{median(eventsPerWall), "1/s"}

	// The simulated figures repeat exactly across operations (the
	// fingerprint gate checks it), so the last operation stands for all.
	last := ops[len(ops)-1].machines
	mean := func(get func(m *machineRun) float64) float64 {
		sum := 0.0
		for i := range last {
			sum += get(&last[i])
		}
		return sum / float64(len(last))
	}
	for _, c := range simCounts {
		ms[c.name] = metric{mean(c.get), c.unit}
	}
	for phase, name := range phaseMetrics {
		ms[name] = metric{mean(func(m *machineRun) float64 { return m.res.PhaseMeanMs[phase] }), "ms"}
	}
	known := map[string]bool{}
	for _, c := range abortCauses {
		known[c] = true
		ms["cc.aborts."+c] = metric{mean(func(m *machineRun) float64 { return float64(m.res.AbortsByCause[c]) }), "count"}
	}
	ms["cc.aborts.other"] = metric{mean(func(m *machineRun) float64 {
		n := 0
		for c, v := range m.res.AbortsByCause {
			if !known[c] {
				n += int(v)
			}
		}
		return float64(n)
	}), "count"}

	if w.traced {
		var export []float64
		for _, op := range ops {
			for _, m := range op.machines {
				export = append(export, m.exportS)
			}
		}
		ms["obs.trace_events"] = metric{mean(func(m *machineRun) float64 { return float64(m.traceEvents) }), "count"}
		ms["obs.probe_samples"] = metric{mean(func(m *machineRun) float64 { return float64(m.probeSamples) }), "count"}
		ms["obs.trace_mb"] = metric{mean(func(m *machineRun) float64 { return float64(m.traceBytes) / 1e6 }), "MB"}
		ms["obs.export_s"] = metric{median(export), "s"}
	}
	return ms, share, nil
}
