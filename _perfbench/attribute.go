package main

import "strings"

// Layer names the host-CPU attribution charges samples to. The model's
// layers are the ddbm/internal packages (the cc sub-packages fold into
// "cc"); sim is split into its process machinery, its distribution
// helpers and the rest of the kernel; math/rand is its own layer; samples
// with no such frame are runtime work. "other" collects everything else
// (the benchmark's own goroutines, the profiler, unknown packages).
var layers = []string{
	"sim.proc", "sim.kernel", "sim.dist",
	"cc", "resource", "core", "commit", "network", "workload", "db",
	"obs", "fault", "recovery", "stats", "rand",
	"runtime.sched", "runtime.gc", "other",
}

// modelPkgs are the ddbm/internal packages charged under their own name.
var modelPkgs = map[string]bool{
	"cc": true, "resource": true, "core": true, "commit": true, "network": true,
	"workload": true, "db": true, "obs": true, "fault": true, "recovery": true, "stats": true,
}

// simProcMethods are the Sim methods that create, resume, schedule or kill
// a process; with every Proc and Mailbox method they form "sim.proc".
var simProcMethods = []string{
	"(*Sim).resume", "(*Sim).Spawn", "(*Sim).scheduleProc", "(*Sim).Kill", "(*Sim).NewMailbox",
}

// gcFrames mark the garbage collector's own goroutines and phases.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
}

// attribute charges one stack (innermost frame first) to a layer: the
// innermost frame that belongs to a layer wins. A stack with no layer
// frame is a GC worker ("runtime.gc"), pure runtime scheduling
// ("runtime.sched"), or anything else ("other").
func attribute(stack []frame) string {
	for _, f := range stack {
		if l := frameLayer(f); l != "" {
			return l
		}
	}
	runtimeOnly := true
	for _, f := range stack {
		if gcFrames[f.fn] {
			return "runtime.gc"
		}
		if !isRuntime(f.fn) {
			runtimeOnly = false
		}
	}
	if runtimeOnly {
		return "runtime.sched"
	}
	return "other"
}

// frameLayer returns the layer one frame belongs to, or "" for a frame
// outside every layer.
func frameLayer(f frame) string {
	if strings.HasPrefix(f.fn, "math/rand.") || strings.HasPrefix(f.fn, "math/rand/v2.") {
		return "rand"
	}
	rest, ok := strings.CutPrefix(f.fn, "ddbm/internal/")
	if !ok {
		return ""
	}
	pkg := rest[:strings.IndexAny(rest+".", "/.")]
	switch {
	case pkg == "sim":
		return simLayer(strings.TrimPrefix(rest, "sim."), f.file)
	case modelPkgs[pkg]:
		return pkg
	}
	return "other"
}

// simLayer splits internal/sim: Proc and Mailbox methods plus process
// creation, resumption and scheduling are "sim.proc"; package-level
// functions of dist.go are "sim.dist"; the rest is "sim.kernel".
func simLayer(name, file string) string {
	if strings.HasPrefix(name, "(*Proc).") || strings.HasPrefix(name, "(*Mailbox).") {
		return "sim.proc"
	}
	for _, m := range simProcMethods {
		if strings.HasPrefix(name, m) {
			return "sim.proc"
		}
	}
	if !strings.HasPrefix(name, "(") && strings.HasSuffix(file, "/dist.go") {
		return "sim.dist"
	}
	return "sim.kernel"
}

// isRuntime reports whether a function belongs to the Go runtime,
// including the pseudo-frames the profiler adds for samples it cannot
// unwind.
func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal/") ||
		strings.HasPrefix(fn, "internal/runtime/")
}

// benchLabel is the pprof label key that marks the benchmark's own work
// (set-up, checks, export) inside a profiled operation; such samples are
// not charged to any layer.
const benchLabel = "perfbench"

// layerTimes sums the CPU time of each layer over a set of samples,
// skipping samples labelled as the benchmark's own work. It also returns
// how many profiler ticks it charged.
func layerTimes(samples []stackSample) (map[string]int64, int64) {
	ns := make(map[string]int64, len(layers))
	var n int64
	for _, s := range samples {
		if s.labels[benchLabel] != "" {
			continue
		}
		ns[attribute(s.stack)] += s.cpuNs
		n += s.count
	}
	return ns, n
}
