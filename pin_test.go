package ddbm_test

import (
	"encoding/json"
	"hash/fnv"
	"testing"

	"ddbm"
	"ddbm/internal/fault"
)

// TestRunPins pins the event count and the full Result of short runs that
// neither golden covers: the kernel golden predates the fault layer and
// the golden Chrome trace is fault-free. Each case runs 60 simulated
// seconds at seed 1 and must reproduce the kernel's EventsDispatched and
// an FNV-64a hash of the JSON-encoded Result exactly. A mismatch means the
// model's event order or its floats moved; update the constants only for
// a deliberate, documented model change.
func TestRunPins(t *testing.T) {
	base := func() ddbm.Config {
		cfg := ddbm.DefaultConfig()
		cfg.SimTimeMs = 60_000
		cfg.WarmupMs = 10_000
		cfg.Seed = 1
		// Breakdown accounting is observation-only, but it folds the
		// critical cohort's ledger, so it pins which delivery ended each
		// coordinator wait.
		cfg.Breakdown = true
		return cfg
	}
	crashes := func(p ddbm.CommitProtocol) ddbm.Config {
		cfg := base()
		cfg.CommitProtocol = p
		cfg.ModelLogging = true
		cfg.Faults = fault.Config{Enabled: true, NodeMTTFMs: 80_000, MTTRMs: 2_000, DetectMs: 500}
		return cfg
	}
	cases := []struct {
		name   string
		cfg    func() ddbm.Config
		events uint64
		hash   uint64
	}{
		{"2PL-parallel", base, 265665, 0x5c26e24a6d3ad0c0},
		{"2PL-sequential", func() ddbm.Config {
			cfg := base()
			cfg.ExecPattern = ddbm.Sequential
			return cfg
		}, 168919, 0x2a7a0a2a6ff37e9d},
		{"O2PL", func() ddbm.Config {
			cfg := base()
			cfg.Algorithm = ddbm.O2PL
			return cfg
		}, 270078, 0x337b47af3a4eab88},
		{"PA-crashes", func() ddbm.Config { return crashes(ddbm.PresumedAbort) }, 185654, 0xcf637c067e9e39d2},
		{"PC-crashes", func() ddbm.Config { return crashes(ddbm.PresumedCommit) }, 192991, 0xab8ec65a0a1511},
		{"2PC-failover-msgloss", func() ddbm.Config {
			cfg := base()
			cfg.ModelLogging = true
			cfg.Faults = fault.Config{
				Enabled:    true,
				HostMTTFMs: 15_000, HostMTTRMs: 2_000,
				DropProb: 0.01, DupProb: 0.01, RetransmitDelayMs: 50,
			}
			return cfg
		}, 216030, 0xdda7716b85f07195},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			m, err := ddbm.NewMachine(tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			res := m.Run()
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(data)
			events, hash := m.Sim().EventsDispatched(), h.Sum64()
			if events != tc.events || hash != tc.hash {
				t.Errorf("events %d, result hash %#x; want %d, %#x", events, hash, tc.events, tc.hash)
			}
		})
	}
}
