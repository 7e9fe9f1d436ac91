package ddbm_test

import (
	"encoding/json"
	"hash/fnv"
	"testing"

	"ddbm"
	"ddbm/internal/fault"
)

// TestRunPins pins the event count and the full Result of short runs that
// neither golden covers: the kernel golden predates the fault layer, the
// golden Chrome trace is fault-free, and neither reaches the blocked-read,
// lock-timeout, deferred-lock, costed-CC-request or probe paths. Each case
// runs 60 simulated seconds at seed 1 and must reproduce the kernel's
// EventsDispatched and an FNV-64a hash of the JSON-encoded Result (plus,
// for a probed run, the JSON-encoded probe samples) exactly. A mismatch means the
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
	with := func(f func(*ddbm.Config)) func() ddbm.Config {
		return func() ddbm.Config {
			cfg := base()
			f(&cfg)
			return cfg
		}
	}
	cases := []struct {
		name   string
		cfg    func() ddbm.Config
		events uint64
		hash   uint64
		probes bool
	}{
		{"2PL-parallel", base, 265665, 0x5c26e24a6d3ad0c0, false},
		{"2PL-sequential", func() ddbm.Config {
			cfg := base()
			cfg.ExecPattern = ddbm.Sequential
			return cfg
		}, 168919, 0x2a7a0a2a6ff37e9d, false},
		{"O2PL", func() ddbm.Config {
			cfg := base()
			cfg.Algorithm = ddbm.O2PL
			return cfg
		}, 270078, 0x337b47af3a4eab88, false},
		{"PA-crashes", func() ddbm.Config { return crashes(ddbm.PresumedAbort) }, 185654, 0xcf637c067e9e39d2, false},
		{"PC-crashes", func() ddbm.Config { return crashes(ddbm.PresumedCommit) }, 192991, 0xab8ec65a0a1511, false},
		{"2PC-failover-msgloss", func() ddbm.Config {
			cfg := base()
			cfg.ModelLogging = true
			cfg.Faults = fault.Config{
				Enabled:    true,
				HostMTTFMs: 15_000, HostMTTRMs: 2_000,
				DropProb: 0.01, DupProb: 0.01, RetransmitDelayMs: 50,
			}
			return cfg
		}, 216030, 0xdda7716b85f07195, false},
		{"2PC-crashes", func() ddbm.Config { return crashes(ddbm.CentralizedTwoPC) }, 188942, 0xbf642e78b8a147a1, false},
		{"WW", with(func(c *ddbm.Config) { c.Algorithm = ddbm.WoundWait }), 272353, 0xa44f6de53089bc56, false},
		{"BTO", with(func(c *ddbm.Config) { c.Algorithm = ddbm.BTO }), 271335, 0xb07a41bfad9812e2, false},
		// Five crash sweeps in this run abort a BTO reader blocked behind a
		// pending write, the path a stale blocked read once survived.
		{"BTO-crashes", func() ddbm.Config {
			cfg := crashes(ddbm.PresumedAbort)
			cfg.Algorithm = ddbm.BTO
			return cfg
		}, 177140, 0x56ea23c8352956b6, false},
		{"2PL-lock-timeout", with(func(c *ddbm.Config) { c.LockWaitTimeoutMs = 200 }), 285001, 0x4c26309f1e5288ba, false},
		{"2PL-deferred-locks", with(func(c *ddbm.Config) {
			c.ReplicaCount = 2
			c.DeferRemoteWriteLocks = true
		}), 245127, 0xfc4fb0deb42e2348, false},
		{"2PL-cc-cost", with(func(c *ddbm.Config) { c.InstPerCCReq = 2000 }), 308058, 0x31344a785e4eb983, false},
		{"2PL-probes", base, 266265, 0x4f9faed412e3617f, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			m, err := ddbm.NewMachine(tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			var ts *ddbm.TimeSeries
			if tc.probes {
				ts = m.EnableProbes(100)
			}
			res := m.Run()
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(data)
			if ts != nil {
				data, err := json.Marshal(ts)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(data)
			}
			events, hash := m.Sim().EventsDispatched(), h.Sum64()
			if events != tc.events || hash != tc.hash {
				t.Errorf("events %d, result hash %#x; want %d, %#x", events, hash, tc.events, tc.hash)
			}
		})
	}
}
