// Package core assembles the complete distributed database machine model
// of paper §3 — host and processing nodes, transaction manager with
// coordinator/cohort structure and centralized two-phase commit, resource
// and network managers, workload source, and a pluggable concurrency
// control manager — and runs it to produce the paper's performance metrics.
package core

import (
	"fmt"

	"ddbm/internal/cc"
	"ddbm/internal/commit"
	"ddbm/internal/fault"
)

// ExecPattern selects how a transaction's cohorts execute (paper §3.3).
type ExecPattern int

const (
	// Parallel starts all cohorts together, Gamma/Teradata/Bubba style.
	Parallel ExecPattern = iota
	// Sequential runs cohorts one after another, Non-Stop-SQL RPC style.
	Sequential
)

func (e ExecPattern) String() string {
	if e == Sequential {
		return "sequential"
	}
	return "parallel"
}

// TxnClass describes one transaction class of a multi-class workload
// (paper Table 2). Terminals are assigned classes by their fractions.
type TxnClass struct {
	// Frac is the fraction of terminals generating this class (ClassFrac).
	Frac float64
	// Sequential runs this class's cohorts sequentially (ExecPattern).
	Sequential bool
	// FileCount is how many distinct partitions of the terminal's relation
	// a transaction touches (0 = all of them, as in the paper).
	FileCount int
	// AvgPagesPerPartition, WriteProb and InstPerPage override the
	// machine-wide defaults for this class.
	AvgPagesPerPartition int
	WriteProb            float64
	InstPerPage          float64
}

// Config collects every model parameter (paper Tables 1-4). The zero value
// is not runnable; start from DefaultConfig.
type Config struct {
	// Algorithm selects the concurrency control algorithm.
	Algorithm cc.Kind
	// StrictOPT enables the conservative OPT read-certification guard.
	StrictOPT bool
	// CommitProtocol selects the two-phase commit variant. The zero value,
	// CentralizedTwoPC, is the paper-faithful default; PresumedAbort and
	// PresumedCommit are the R* variants that trade acknowledgement
	// messages and forced log writes on the read-only and abort paths (see
	// internal/commit). Note that the presumed variants release read-only
	// cohorts at vote time, before the global decision — for OPT this
	// widens the known certify/commit anomaly window beyond what
	// StrictOPT closes.
	CommitProtocol commit.Kind

	// NumProcNodes is the number of processing nodes (the host is extra).
	NumProcNodes int
	// PartitionWays controls data placement: 0 uses the machine-size
	// scaling placement of §4.2 (every relation spread over all nodes);
	// k >= 1 uses the k-way declustering of §4.3/§4.4.
	PartitionWays int

	// NumRelations and PartsPerRelation shape the database (8 x 8 = 64
	// files in the paper); PagesPerFile is the partition size (300 small,
	// 1200 large).
	NumRelations     int
	PartsPerRelation int
	PagesPerFile     int
	// ReplicaCount places this many copies of every file on distinct nodes
	// (read-one/write-all, the [Care88] replicated-data model this paper's
	// §3 model descends from). 1 (default) means no replication. Reads use
	// the primary copy; every update also makes write requests at the
	// other copies and installs there at commit.
	ReplicaCount int
	// UpgradeWriteLocks controls when the locking algorithms (2PL, WW)
	// claim write permission for a page the transaction will update:
	// false (default) requests the exclusive lock at access time (the
	// update set is part of the transaction's definition, so "read with
	// intent to update" is known up front); true models the literal
	// read-lock-then-convert sequence of §2.2, which admits classic
	// conversion deadlocks when two readers of a page both upgrade.
	UpgradeWriteLocks bool
	// DeferRemoteWriteLocks (2PL only, requires replication) defers the
	// write-lock requests on remote copies until the first phase of the
	// commit protocol — the [Care89] variant of footnote 13 that lets 2PL
	// dominate OPT even with expensive messages and replicated data.
	DeferRemoteWriteLocks bool

	// NumTerminals terminals attach to the host; ThinkTimeMs is the mean of
	// their exponential think time.
	NumTerminals int
	ThinkTimeMs  float64

	// AvgPagesPerPartition pages are read from each partition of the
	// accessed relation (NumPages), each updated with probability
	// WriteProb; processing a page costs InstPerPage instructions on
	// average (exponential).
	AvgPagesPerPartition int
	WriteProb            float64
	InstPerPage          float64
	// Classes optionally defines a multi-class workload (Table 2:
	// NumClasses/ClassFrac and the per-class parameters). When empty, a
	// single class built from the three fields above is used — the paper's
	// configuration. Fractions must sum to 1.
	Classes []TxnClass
	// SpreadHalfToTwice switches the per-partition page count to the
	// [avg/2, 2·avg] variant (see workload.Spread).
	SpreadHalfToTwice bool

	// HostMIPS and ProcMIPS are CPU speeds (10 and 1 in the paper).
	HostMIPS float64
	ProcMIPS float64
	// NumDisks disks per node, with uniform access times on
	// [MinDiskMs, MaxDiskMs].
	NumDisks  int
	MinDiskMs float64
	MaxDiskMs float64

	// CPU overheads (instruction counts).
	InstPerUpdate  float64 // initiating one deferred page write
	InstPerStartup float64 // starting a coordinator or cohort process
	InstPerMsg     float64 // sending or receiving one message (each end)
	InstPerCCReq   float64 // processing one concurrency control request

	// DetectionIntervalMs is the 2PL Snoop dwell time per node.
	DetectionIntervalMs float64
	// LockWaitTimeoutMs, when positive, replaces 2PL's deadlock detection
	// (local + Snoop) with the timeout scheme of the paper's footnote 2:
	// a lock wait longer than this aborts the waiting transaction.
	LockWaitTimeoutMs float64

	// ExecPattern selects parallel or sequential cohort execution.
	ExecPattern ExecPattern

	// SimTimeMs is the simulated duration; statistics are collected after
	// WarmupMs. Seed drives all randomness.
	SimTimeMs float64
	WarmupMs  float64
	Seed      int64

	// InitialRestartDelayMs is the restart delay used before any
	// transaction has committed (afterwards the running average response
	// time observed at the coordinator node is used, per [Agra87a]).
	InitialRestartDelayMs float64

	// ModelLogging enables the log-based recovery costs the paper's
	// footnote 5 assumes but does not model: each cohort forces one log
	// page (a synchronous priority disk write) before voting yes in the
	// first commit phase, and the coordinator forces a commit record at
	// the host before the commit decision. Off by default, matching the
	// paper ("we do not model logging, as we assume it is not the
	// bottleneck").
	ModelLogging bool

	// Breakdown enables per-transaction time-breakdown accounting and
	// abort-cause attribution: every simulated microsecond of a
	// transaction's life is attributed to one phase of a closed set (CPU
	// service/queue, disk service/queue, lock-blocked, network transit,
	// commit prepare/decide/resolve, restart backoff, residue), and every
	// aborted attempt is counted by cause and attributing node. Results
	// surface as Result.PhaseMeanMs / PhaseP99Ms / AbortsByCause and via
	// Machine.Breakdown(). Observation only: the accounting is pure
	// arithmetic on the simulated clock (no randomness, no scheduling),
	// so runs are bit-identical with it on or off, and the pinned
	// transaction path stays allocation-free.
	Breakdown bool

	// Audit enables the serializability auditor: the run records every
	// committed transaction's reads and writes and Result carries any
	// anomalies found by replaying the history in serialization-stamp
	// order (see internal/audit). Costs memory proportional to the number
	// of commits; off by default.
	Audit bool

	// Faults declares the deterministic fault schedule (see internal/fault):
	// crash-stop node failures, coordinator failover, and message
	// loss/duplication, all drawn from dedicated seed substreams so the
	// workload stream is untouched. The zero value (Enabled false) keeps
	// every fault-free fast path: no injector is built and runs are
	// bit-identical to a build without the subsystem. Requires
	// ModelLogging (crash recovery replays the forced log) and excludes
	// O2PL, DeferRemoteWriteLocks and Audit (see Validate).
	Faults fault.Config
}

// DefaultConfig returns the paper's baseline settings (Table 4): one 10-MIPS
// host plus eight 1-MIPS processing nodes, 64 files of 300 pages, 128
// terminals, 8 pages read per partition with write probability 1/4, 8K
// instructions per page, two 10-30 ms disks per node, 2K-instruction
// process startup, 1K-instruction messages, free CC requests, and a
// 1-second Snoop interval. Simulated time defaults to 400 seconds with a
// 40-second warmup; callers doing publication-quality sweeps should raise
// it.
func DefaultConfig() Config {
	return Config{
		Algorithm:             cc.TwoPL,
		ReplicaCount:          1,
		NumProcNodes:          8,
		PartitionWays:         0,
		NumRelations:          8,
		PartsPerRelation:      8,
		PagesPerFile:          300,
		NumTerminals:          128,
		ThinkTimeMs:           0,
		AvgPagesPerPartition:  8,
		WriteProb:             0.25,
		InstPerPage:           8000,
		HostMIPS:              10,
		ProcMIPS:              1,
		NumDisks:              2,
		MinDiskMs:             10,
		MaxDiskMs:             30,
		InstPerUpdate:         2000,
		InstPerStartup:        2000,
		InstPerMsg:            1000,
		InstPerCCReq:          0,
		DetectionIntervalMs:   1000,
		ExecPattern:           Parallel,
		SimTimeMs:             400_000,
		WarmupMs:              40_000,
		Seed:                  1,
		InitialRestartDelayMs: 1000,
	}
}

func validCommitProtocol(k commit.Kind) bool {
	for _, v := range commit.Kinds() {
		if k == v {
			return true
		}
	}
	return false
}

// Validate checks the configuration for internal consistency.
func (c *Config) Validate() error {
	switch {
	case c.NumProcNodes < 1:
		return fmt.Errorf("core: NumProcNodes must be >= 1, got %d", c.NumProcNodes)
	case c.NumRelations < 1 || c.PartsPerRelation < 1 || c.PagesPerFile < 1:
		return fmt.Errorf("core: database dimensions must be positive")
	case c.NumTerminals < 1:
		return fmt.Errorf("core: NumTerminals must be >= 1, got %d", c.NumTerminals)
	case c.ThinkTimeMs < 0:
		return fmt.Errorf("core: negative ThinkTimeMs")
	case c.AvgPagesPerPartition < 1:
		return fmt.Errorf("core: AvgPagesPerPartition must be >= 1")
	case c.WriteProb < 0 || c.WriteProb > 1:
		return fmt.Errorf("core: WriteProb %v out of [0,1]", c.WriteProb)
	case c.HostMIPS <= 0 || c.ProcMIPS <= 0:
		return fmt.Errorf("core: CPU speeds must be positive")
	case c.NumDisks < 1:
		return fmt.Errorf("core: NumDisks must be >= 1")
	case c.MinDiskMs < 0 || c.MaxDiskMs < c.MinDiskMs:
		return fmt.Errorf("core: disk time range [%v,%v] invalid", c.MinDiskMs, c.MaxDiskMs)
	case c.InstPerUpdate < 0 || c.InstPerStartup < 0 || c.InstPerMsg < 0 || c.InstPerCCReq < 0:
		return fmt.Errorf("core: CPU overheads must be non-negative")
	case c.SimTimeMs <= 0:
		return fmt.Errorf("core: SimTimeMs must be positive")
	case c.WarmupMs < 0 || c.WarmupMs >= c.SimTimeMs:
		return fmt.Errorf("core: WarmupMs %v must lie in [0, SimTimeMs)", c.WarmupMs)
	case c.LockWaitTimeoutMs < 0:
		return fmt.Errorf("core: negative LockWaitTimeoutMs")
	case c.ReplicaCount < 0 || c.ReplicaCount > c.NumProcNodes:
		return fmt.Errorf("core: ReplicaCount %d out of range for %d nodes", c.ReplicaCount, c.NumProcNodes)
	case c.DeferRemoteWriteLocks && c.Algorithm != cc.TwoPL:
		return fmt.Errorf("core: DeferRemoteWriteLocks applies to 2PL only")
	case c.DeferRemoteWriteLocks && c.ReplicaCount < 2:
		return fmt.Errorf("core: DeferRemoteWriteLocks requires ReplicaCount >= 2")
	case !validCommitProtocol(c.CommitProtocol):
		return fmt.Errorf("core: unknown commit protocol %v", c.CommitProtocol)
	case c.DeferRemoteWriteLocks && c.CommitProtocol != commit.CentralizedTwoPC:
		return fmt.Errorf("core: DeferRemoteWriteLocks is only supported with the CentralizedTwoPC commit protocol")
	case c.StrictOPT && c.Algorithm != cc.OPT:
		return fmt.Errorf("core: StrictOPT applies to OPT only")
	case c.UpgradeWriteLocks && c.Algorithm != cc.TwoPL && c.Algorithm != cc.WoundWait:
		return fmt.Errorf("core: UpgradeWriteLocks applies to the locking algorithms (2PL, WW) only")
	case c.LockWaitTimeoutMs > 0 && c.Algorithm != cc.TwoPL && c.Algorithm != cc.O2PL:
		return fmt.Errorf("core: LockWaitTimeoutMs applies to 2PL and O2PL only")
	case (c.Algorithm == cc.TwoPL || c.Algorithm == cc.O2PL) && c.DetectionIntervalMs <= 0 && c.LockWaitTimeoutMs <= 0:
		return fmt.Errorf("core: %v needs a positive DetectionIntervalMs (or a LockWaitTimeoutMs)", c.Algorithm)
	}
	if f := &c.Faults; f.Enabled {
		switch {
		case !c.ModelLogging:
			return fmt.Errorf("core: Faults requires ModelLogging (recovery replays the forced log)")
		case c.Algorithm == cc.O2PL:
			return fmt.Errorf("core: Faults does not support O2PL (deferred-lock acquisition has no crash story)")
		case c.DeferRemoteWriteLocks:
			return fmt.Errorf("core: Faults does not support DeferRemoteWriteLocks")
		case c.Audit:
			return fmt.Errorf("core: Faults does not support Audit (presumed-commit recovery can install anomalous writes by design)")
		case f.NodeMTTFMs <= 0 && f.HostMTTFMs <= 0 && f.DropProb <= 0 && f.DupProb <= 0:
			return fmt.Errorf("core: Faults enabled but schedules nothing (set NodeMTTFMs, HostMTTFMs, DropProb or DupProb)")
		case f.NodeMTTFMs < 0 || f.HostMTTFMs < 0:
			return fmt.Errorf("core: negative MTTF")
		case f.NodeMTTFMs > 0 && (f.MTTRMs <= 0 || f.MTTRMs >= c.SimTimeMs):
			return fmt.Errorf("core: Faults.MTTRMs %v must lie in (0, SimTimeMs)", f.MTTRMs)
		case f.NodeMTTFMs > 0 && (f.DetectMs < 0 || f.DetectMs > f.MTTRMs):
			return fmt.Errorf("core: Faults.DetectMs %v must lie in [0, MTTRMs]", f.DetectMs)
		case f.HostMTTFMs > 0 && (f.HostMTTRMs <= 0 || f.HostMTTRMs >= c.SimTimeMs):
			return fmt.Errorf("core: Faults.HostMTTRMs %v must lie in (0, SimTimeMs)", f.HostMTTRMs)
		case f.DropProb < 0 || f.DropProb >= 1 || f.DupProb < 0 || f.DupProb >= 1:
			return fmt.Errorf("core: message fault probabilities must lie in [0,1)")
		case f.DropProb > 0 && f.RetransmitDelayMs <= 0:
			return fmt.Errorf("core: Faults.DropProb needs a positive RetransmitDelayMs")
		}
	}
	if c.PartitionWays == 0 {
		if c.PartsPerRelation%c.NumProcNodes != 0 {
			return fmt.Errorf("core: scaled placement needs NumProcNodes (%d) to divide PartsPerRelation (%d)",
				c.NumProcNodes, c.PartsPerRelation)
		}
	} else {
		if c.PartitionWays < 0 || c.PartitionWays > c.NumProcNodes {
			return fmt.Errorf("core: PartitionWays %d out of range for %d nodes", c.PartitionWays, c.NumProcNodes)
		}
		if c.PartsPerRelation%c.PartitionWays != 0 {
			return fmt.Errorf("core: PartitionWays %d must divide PartsPerRelation %d", c.PartitionWays, c.PartsPerRelation)
		}
	}
	return nil
}
