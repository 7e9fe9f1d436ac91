package main

import "ddbm"

// workload is one benchmark input: an operation runs `machines` machines
// of `simS` simulated seconds each, built from config with seeds derived
// from the workload seed.
type workload struct {
	name     string
	machines int
	simS     float64
	// traced enables the program's tracer and probes at set-up.
	traced bool
	// audit runs the serializability audit in the check pass. Only
	// workloads whose algorithm claims serializability set it: NO_DC makes
	// no such claim, and the fault model rejects the audit.
	audit  bool
	config func() ddbm.Config
}

// probeIntervalMs is the probe sampling period of the traced workload.
const probeIntervalMs = 100

// workloads are the benchmark's inputs. All use the model's closed loop:
// 128 simulated terminals at think time 0. README.md gives the reasons.
var workloads = []*workload{
	{
		name: "paper-8node-2pl", machines: 1, simS: 600, audit: true,
		config: ddbm.DefaultConfig,
	},
	{
		name: "paper-1node-nodc", machines: 4, simS: 3000,
		config: func() ddbm.Config {
			cfg := ddbm.DefaultConfig()
			cfg.NumProcNodes = 1
			cfg.Algorithm = ddbm.NoDC
			return cfg
		},
	},
	{
		name: "crash-8way-pa", machines: 64, simS: 300,
		config: func() ddbm.Config {
			cfg := ddbm.DefaultConfig()
			cfg.PartitionWays = 8
			cfg.ModelLogging = true
			cfg.CommitProtocol = ddbm.PresumedAbort
			cfg.Faults.Enabled = true
			cfg.Faults.NodeMTTFMs = 80_000
			cfg.Faults.MTTRMs = 2_000
			cfg.Faults.DetectMs = 500
			return cfg
		},
	},
	{
		name: "traced-8node-2pl", machines: 1, simS: 600, traced: true, audit: true,
		config: ddbm.DefaultConfig,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// machineConfig returns the configuration of machine i of an operation at
// the given workload seed. A one-machine workload runs at the seed
// itself, so paper-8node-2pl and traced-8node-2pl simulate the same
// machine; wider workloads use the seeds seed·machines+i, which never
// overlap between workload seeds.
func (w *workload) machineConfig(seed int64, i int) ddbm.Config {
	cfg := w.config()
	cfg.SimTimeMs = w.simS * 1000
	cfg.WarmupMs = cfg.SimTimeMs / 10
	cfg.Seed = seed*int64(w.machines) + int64(i)
	return cfg
}
