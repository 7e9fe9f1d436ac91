package main

import "testing"

// stack builds a synthetic stack, innermost frame first, from function
// names, all in a file other than dist.go.
func stack(fns ...string) []frame {
	st := make([]frame, len(fns))
	for i, fn := range fns {
		st[i] = frame{fn: fn, file: "/src/ddbm/internal/x/x.go"}
	}
	return st
}

func TestAttribute(t *testing.T) {
	dist := frame{fn: "ddbm/internal/sim.Exponential", file: "/src/ddbm/internal/sim/dist.go"}
	cases := []struct {
		name  string
		stack []frame
		want  string
	}{
		{"innermost layer frame wins",
			stack("runtime.mapaccess2", "ddbm/internal/cc.(*LockTable).Acquire", "ddbm/internal/core.(*Machine).cohort"), "cc"},
		{"cc sub-packages fold into cc",
			stack("ddbm/internal/cc/twopl.(*manager).Request", "ddbm/internal/core.(*Machine).cohort"), "cc"},
		{"math/rand is its own layer",
			append(stack("math/rand.(*Rand).Int63"), dist), "rand"},
		{"dist.go functions are sim.dist",
			append([]frame{dist}, stack("ddbm/internal/workload.NewClassPlan")...), "sim.dist"},
		{"Proc methods are sim.proc",
			stack("runtime.chanrecv1", "ddbm/internal/sim.(*Proc).block", "ddbm/internal/sim.(*Proc).Delay", "ddbm/internal/core.(*Machine).terminal"), "sim.proc"},
		{"Mailbox methods are sim.proc",
			stack("ddbm/internal/sim.(*Mailbox).Recv", "ddbm/internal/core.(*Machine).cohort"), "sim.proc"},
		{"resume is sim.proc",
			stack("runtime.chansend1", "ddbm/internal/sim.(*Sim).resume", "ddbm/internal/sim.(*Sim).fire", "ddbm/internal/sim.(*Sim).Run"), "sim.proc"},
		{"spawn closures are sim.proc",
			stack("ddbm/internal/sim.(*Sim).SpawnAt.func1", "ddbm/internal/sim.(*Sim).Run"), "sim.proc"},
		{"the event loop is sim.kernel",
			stack("ddbm/internal/sim.(*eventQueue).siftDown", "ddbm/internal/sim.(*Sim).Run", "ddbm/internal/core.(*Machine).Run"), "sim.kernel"},
		{"a non-dist package function is sim.kernel",
			stack("ddbm/internal/sim.New"), "sim.kernel"},
		{"GC workers are runtime.gc",
			stack("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"), "runtime.gc"},
		{"background sweeping is runtime.gc",
			stack("runtime.sweepone", "runtime.bgsweep"), "runtime.gc"},
		{"scheduler-only stacks are runtime.sched",
			stack("runtime.futex", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"), "runtime.sched"},
		{"profiler pseudo-frames are runtime.sched",
			stack("runtime._ExternalCode"), "runtime.sched"},
		{"GC assists inside a layer stay with the layer",
			stack("runtime.gcAssistAlloc", "runtime.mallocgc", "ddbm/internal/obs.(*Tracer).Begin"), "obs"},
		{"non-runtime code outside the layers is other",
			stack("runtime.gopark", "time.Sleep", "runtime/pprof.profileWriter"), "other"},
		{"unknown internal packages are other",
			stack("ddbm/internal/newpkg.F", "ddbm/internal/core.(*Machine).Run"), "other"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: attribute = %q, want %q", c.name, got, c.want)
		}
	}
}

// Every model package is charged under its own name, which is a reported
// layer.
func TestModelPackagesAreLayers(t *testing.T) {
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for pkg := range modelPkgs {
		if l := attribute(stack("ddbm/internal/" + pkg + ".F")); l != pkg || !known[l] {
			t.Errorf("package %s charged to %q", pkg, l)
		}
	}
}

func TestLayerTimesSkipsBenchmarkWork(t *testing.T) {
	samples := []stackSample{
		{stack: stack("ddbm/internal/cc.F"), count: 2, cpuNs: 20e6},
		{stack: stack("ddbm/internal/core.NewMachine"), count: 1, cpuNs: 10e6, labels: map[string]string{benchLabel: "setup"}},
		{stack: stack("ddbm/internal/cc.G"), count: 1, cpuNs: 10e6},
	}
	ns, ticks := layerTimes(samples)
	if ns["cc"] != 30e6 || ns["core"] != 0 || ticks != 3 {
		t.Errorf("layerTimes = %v, %d ticks; want cc 30ms, no core, 3 ticks", ns, ticks)
	}
}
