// Package metrics accumulates the per-task and per-application accounting
// the paper's evaluation reports: accumulated task execution times split
// into computation+shuffle and disk-I/O-for-caching (Fig. 4, Fig. 10),
// eviction counts and recomputation times (Fig. 12), per-iteration
// recomputation (Fig. 5), per-executor evicted bytes (Fig. 3), and disk
// footprints (§7.2).
package metrics

import (
	"reflect"
	"sync"
	"time"
)

// Breakdown splits accumulated task time by cause. Recompute is a subset
// of Compute: the computation time spent re-deriving partitions that had
// already been computed before (the recovery cost of recomputation-based
// caching).
type Breakdown struct {
	Compute   time.Duration
	Shuffle   time.Duration
	DiskIO    time.Duration
	Recompute time.Duration
}

// Add accumulates another breakdown into b.
func (b *Breakdown) Add(o Breakdown) {
	b.Compute += o.Compute
	b.Shuffle += o.Shuffle
	b.DiskIO += o.DiskIO
	b.Recompute += o.Recompute
}

// Total returns the accumulated task execution time: computation
// (including recomputation), shuffle, and disk I/O for caching.
func (b Breakdown) Total() time.Duration {
	return b.Compute + b.Shuffle + b.DiskIO
}

// ComputeShuffle returns the paper's "Computation+Shuffle" bucket.
func (b Breakdown) ComputeShuffle() time.Duration {
	return b.Compute + b.Shuffle
}

// ExecutorStats aggregates activity on one executor.
type ExecutorStats struct {
	Breakdown Breakdown
	// EvictedBytes counts bytes evicted from this executor's memory
	// store (to disk or dropped), the quantity Fig. 3 plots.
	EvictedBytes int64
	// EvictedToDiskBytes counts the subset spilled to disk.
	EvictedToDiskBytes int64
	// DiskPeakBytes is this executor's own peak on-disk footprint. The
	// per-executor peaks occur at different virtual times, so their sum
	// overstates the cluster-wide peak; see App.DiskPeakBytes for the
	// true concurrent peak.
	DiskPeakBytes int64
	// Tasks counts tasks executed.
	Tasks int
	// RebalanceTime is the time this executor spent adopting partitions
	// migrated from dead executors.
	RebalanceTime time.Duration
}

// App aggregates one application run.
//
// The exported fields are safe to read once the run has finished. While
// tasks execute in parallel (engine.Config.Parallelism > 1), the shared
// application-wide counters must be updated through the Inc*/Add*
// methods, which serialize under an internal mutex; the per-executor
// entries of Executors are owned by the executor's worker goroutine and
// need no locking. All counted quantities are commutative sums, so the
// totals are independent of task interleaving.
type App struct {
	// mu guards the application-wide counters during parallel stage
	// execution. It is a leaf lock: no other lock is acquired while it
	// is held.
	mu sync.Mutex

	Executors []ExecutorStats

	// Evictions counts memory-store evictions under pressure
	// (m→d and m→u transitions, §7.1 "Terms").
	Evictions int
	// EvictionsToDisk counts the subset that spilled (m→d).
	EvictionsToDisk int
	// Unpersists counts explicit or automatic unpersist operations.
	Unpersists int

	// CacheHits counts memory-store hits; DiskHits disk-store hits;
	// Misses accesses that required recomputation of a previously
	// computed partition.
	CacheHits int
	DiskHits  int
	Misses    int

	// RecomputeByJob records the recomputation time incurred during each
	// job (jobs are iterations in iterative workloads), feeding Fig. 5.
	RecomputeByJob []time.Duration

	// FaultsInjected counts injected faults (internal/faults), and
	// FaultBlocksLost / FaultBytesLost / FaultShufflesLost the cache
	// blocks, bytes and completed shuffles they destroyed.
	FaultsInjected    int
	FaultBlocksLost   int
	FaultBytesLost    int64
	FaultShufflesLost int

	// ExecutorDeaths counts executor-death faults; MigratedPartitions
	// the partition slots rebalanced from dead executors to survivors;
	// RebalanceTime the total virtual time survivors spent adopting them.
	ExecutorDeaths     int
	MigratedPartitions int
	RebalanceTime      time.Duration

	// FaultBucketsLost counts individually destroyed map-output buckets;
	// FaultMapOutputsLost the whole map outputs invalidated (by bucket
	// loss or executor death); FaultShuffleBytesLost the shuffle bytes
	// those losses destroyed.
	FaultBucketsLost      int
	FaultMapOutputsLost   int
	FaultShuffleBytesLost int64

	// FaultRecoveryByJob attributes the recovery work caused by injected
	// faults (recomputation of fault-lost blocks, regeneration of
	// fault-cleaned shuffles, partition rebalancing) to the job that paid
	// for it — the same per-job attribution Fig. 5 uses for ordinary
	// cache-miss recovery.
	FaultRecoveryByJob []time.Duration

	// FaultRecoveryByClass attributes the same recovery work to the
	// fault class that caused it ("exec", "block", "shuffle",
	// "exec-death", "bucket", "task-flake", "fetch-flake", "straggler"),
	// so correlated per-machine loss can be priced separately from
	// independent block loss and transient flakiness.
	FaultRecoveryByClass map[string]time.Duration

	// TaskRetries counts task attempts that failed transiently and were
	// retried; FetchRetries counts transiently failed shuffle-fetch
	// attempts; RetryBackoffTime is the virtual time those failed
	// attempts consumed (wasted launch overhead plus exponential
	// backoff).
	TaskRetries      int
	FetchRetries     int
	RetryBackoffTime time.Duration

	// SpeculativeLaunches counts speculative task copies launched
	// against stragglers; SpeculativeWins the subset that finished
	// before the straggling primary; StragglerSlowdownTime the extra
	// virtual time straggler windows inflated task executions by (for
	// won speculation races, the wasted primary time until the kill).
	SpeculativeLaunches   int
	SpeculativeWins       int
	StragglerSlowdownTime time.Duration

	// BlacklistedExecutors counts blacklist episodes: an executor
	// crossing the retryable-failure threshold is skipped by the
	// scheduler for a cooldown window. Its cache survives, unlike a
	// death, and it is reinstated afterwards.
	BlacklistedExecutors int

	// ILPSolves and ILPNodes record optimizer activity for Blaze: solver
	// invocations and branch-and-bound (or knapsack search) nodes
	// expanded. ILPFallbacks counts solves that could not produce an
	// exact optimum — oversized instances routed to the knapsack
	// relaxation, node-budget exhaustion, infeasible models.
	ILPSolves    int
	ILPNodes     int
	ILPFallbacks int
	// Deprecated: always 0; every solve runs the solver. Not compared
	// by EqualDeterministic.
	ILPReused int

	// ILPSolveTime is the real (wall-clock) time spent inside the
	// optimizer. Unlike every other duration in App it is not virtual
	// time: identical schedules legitimately report different values
	// across runs, so determinism checks must compare through
	// EqualDeterministic, which ignores it.
	ILPSolveTime time.Duration

	// WindowsRun counts micro-batch windows completed on a streaming
	// session, and PartitionsRetired the partitions whose windowed
	// lifetime passed and were removed from store and candidate set at a
	// window boundary. Both stay zero on one-shot runs.
	WindowsRun        int
	PartitionsRetired int

	// ILPDeltaSolves counts optimizer re-solves at window boundaries and
	// ILPDeltaNodes their search effort (branch-and-bound / knapsack
	// nodes); ILPDeltaSolveTime is the wall-clock time they took. Like
	// ILPSolveTime it is real time, not virtual, and is excluded by
	// EqualDeterministic.
	ILPDeltaSolves    int
	ILPDeltaNodes     int
	ILPDeltaSolveTime time.Duration
	// Deprecated: always 0; boundary solves are no longer re-checked by
	// a second, from-scratch solve. Not compared by EqualDeterministic.
	ILPColdSolves, ILPColdNodes, ILPColdMismatches int
	// Deprecated: always 0, like ILPColdSolves.
	ILPColdSolveTime time.Duration

	// RepairSolves and RepairNodes record plan repair after an executor
	// death: placement re-solves over the surviving candidate set and
	// their search effort. RepairSolveTime is the wall-clock time those
	// solves took, excluded by EqualDeterministic.
	RepairSolves    int
	RepairNodes     int
	RepairSolveTime time.Duration

	// ProfilingTime is the virtual time spent in Blaze's dependency
	// extraction phase, included in the ACT per §7.2.
	ProfilingTime time.Duration

	// ACT is the application completion time (end-to-end virtual time).
	ACT time.Duration

	// DiskBytesWritten is the cumulative cache data written to disk;
	// DiskPeakBytes the cluster-wide peak on-disk footprint, maintained
	// on every disk write so that per-executor peaks reached at
	// different virtual times are not conflated (§7.2 reports the
	// cluster-level peak).
	DiskBytesWritten int64
	DiskPeakBytes    int64

	// Jobs, RanStages and SkippedStages count scheduler activity.
	Jobs          int
	RanStages     int
	SkippedStages int

	// Tenant names the owning tenant when the application ran as a
	// session on the multi-tenant job server ("" for standalone runs and
	// for the server's default tenant).
	Tenant string

	// QuotaRejections counts memory admissions refused because the
	// tenant's cluster-wide quota was exhausted even after same-tenant
	// quota evictions; QuotaEvictions counts the same-tenant blocks
	// dropped to make room under the quota. Both stay zero outside the
	// job server's quota-enforced pools.
	QuotaRejections int
	QuotaEvictions  int
}

// NewApp creates metrics for a cluster with the given executor count.
func NewApp(executors int) *App {
	return &App{Executors: make([]ExecutorStats, executors)}
}

// TotalBreakdown sums the per-executor breakdowns.
func (a *App) TotalBreakdown() Breakdown {
	var b Breakdown
	for i := range a.Executors {
		b.Add(a.Executors[i].Breakdown)
	}
	return b
}

// TotalEvictedBytes sums evicted bytes across executors.
func (a *App) TotalEvictedBytes() int64 {
	var n int64
	for i := range a.Executors {
		n += a.Executors[i].EvictedBytes
	}
	return n
}

// IncCacheHit counts one memory-store hit (task path, locked).
func (a *App) IncCacheHit() {
	a.mu.Lock()
	a.CacheHits++
	a.mu.Unlock()
}

// IncDiskHit counts one disk-store hit (task path, locked).
func (a *App) IncDiskHit() {
	a.mu.Lock()
	a.DiskHits++
	a.mu.Unlock()
}

// IncMiss counts one recomputation of a previously computed partition
// (task path, locked).
func (a *App) IncMiss() {
	a.mu.Lock()
	a.Misses++
	a.mu.Unlock()
}

// IncEviction counts one memory-store eviction; toDisk marks the m→d
// subset (task path, locked).
func (a *App) IncEviction(toDisk bool) {
	a.mu.Lock()
	a.Evictions++
	if toDisk {
		a.EvictionsToDisk++
	}
	a.mu.Unlock()
}

// AddRecompute attributes recomputation time to a job index, growing the
// per-job series as needed.
func (a *App) AddRecompute(job int, d time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(a.RecomputeByJob) <= job {
		a.RecomputeByJob = append(a.RecomputeByJob, 0)
	}
	a.RecomputeByJob[job] += d
}

// TotalRecompute sums recomputation time across jobs.
func (a *App) TotalRecompute() time.Duration {
	var t time.Duration
	for _, d := range a.RecomputeByJob {
		t += d
	}
	return t
}

// AddFaultRecovery attributes fault-recovery time to a job index, growing
// the per-job series as needed.
func (a *App) AddFaultRecovery(job int, d time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(a.FaultRecoveryByJob) <= job {
		a.FaultRecoveryByJob = append(a.FaultRecoveryByJob, 0)
	}
	a.FaultRecoveryByJob[job] += d
}

// TotalFaultRecovery sums fault-recovery time across jobs.
func (a *App) TotalFaultRecovery() time.Duration {
	var t time.Duration
	for _, d := range a.FaultRecoveryByJob {
		t += d
	}
	return t
}

// AddFaultRecoveryClass attributes fault-recovery time to a fault class.
func (a *App) AddFaultRecoveryClass(class string, d time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.FaultRecoveryByClass == nil {
		a.FaultRecoveryByClass = make(map[string]time.Duration)
	}
	a.FaultRecoveryByClass[class] += d
}

// IncFaultInjected counts one injected fault (task path, locked —
// transient faults fire inside tasks, unlike the boundary-injected
// permanent classes which update FaultsInjected from the driver).
func (a *App) IncFaultInjected() {
	a.mu.Lock()
	a.FaultsInjected++
	a.mu.Unlock()
}

// AddTaskRetry counts one transiently failed task attempt and its wasted
// virtual time (task path, locked).
func (a *App) AddTaskRetry(d time.Duration) {
	a.mu.Lock()
	a.TaskRetries++
	a.RetryBackoffTime += d
	a.mu.Unlock()
}

// AddFetchRetry counts one transiently failed shuffle-fetch attempt and
// its backoff (task path, locked).
func (a *App) AddFetchRetry(d time.Duration) {
	a.mu.Lock()
	a.FetchRetries++
	a.RetryBackoffTime += d
	a.mu.Unlock()
}

// AddSpeculative counts one speculative task launch and whether the copy
// beat the straggling primary.
func (a *App) AddSpeculative(win bool) {
	a.mu.Lock()
	a.SpeculativeLaunches++
	if win {
		a.SpeculativeWins++
	}
	a.mu.Unlock()
}

// AddStragglerSlowdown accounts extra virtual time a straggler window
// inflated task executions by (task path, locked).
func (a *App) AddStragglerSlowdown(d time.Duration) {
	a.mu.Lock()
	a.StragglerSlowdownTime += d
	a.mu.Unlock()
}

// IncQuotaRejection counts one memory admission refused under a tenant
// quota (task path, locked).
func (a *App) IncQuotaRejection() {
	a.mu.Lock()
	a.QuotaRejections++
	a.mu.Unlock()
}

// IncQuotaEviction counts one same-tenant block dropped to make room
// under a tenant quota (task path, locked).
func (a *App) IncQuotaEviction() {
	a.mu.Lock()
	a.QuotaEvictions++
	a.mu.Unlock()
}

// IncBlacklisted counts one flaky-executor blacklist episode.
func (a *App) IncBlacklisted() {
	a.mu.Lock()
	a.BlacklistedExecutors++
	a.mu.Unlock()
}

// EqualDeterministic reports whether two finished runs agree on every
// deterministic metric. ILPSolveTime, ILPDeltaSolveTime and
// RepairSolveTime are the wall-clock fields in App — identical schedules
// legitimately differ on them across runs and machines — so they are
// excluded, as are the deprecated ILPReused and ILPCold* counters, which
// this build leaves at 0 but a checkpoint written by an older one may
// still carry; all other fields must match exactly. Call only after both
// runs have finished: it reads and briefly rewrites the excluded fields
// without locking, like direct post-run field access.
func EqualDeterministic(a, b *App) bool {
	type excluded struct {
		solve, delta, repair, cold             time.Duration
		reused, coldSolves, coldNodes, coldMis int
	}
	swap := func(m *App, e excluded) excluded {
		old := excluded{m.ILPSolveTime, m.ILPDeltaSolveTime, m.RepairSolveTime, m.ILPColdSolveTime,
			m.ILPReused, m.ILPColdSolves, m.ILPColdNodes, m.ILPColdMismatches}
		m.ILPSolveTime, m.ILPDeltaSolveTime, m.RepairSolveTime, m.ILPColdSolveTime = e.solve, e.delta, e.repair, e.cold
		m.ILPReused, m.ILPColdSolves, m.ILPColdNodes, m.ILPColdMismatches = e.reused, e.coldSolves, e.coldNodes, e.coldMis
		return old
	}
	ea, eb := swap(a, excluded{}), swap(b, excluded{})
	eq := reflect.DeepEqual(a, b)
	swap(a, ea)
	swap(b, eb)
	return eq
}

// CopyFrom overwrites every exported field of a with o's value, leaving
// the internal mutex alone (App contains a lock, so a plain struct copy
// would trip the copylocks vet check). Crash recovery uses it to restore
// a checkpointed metrics snapshot into a live cluster's App. Both sides
// must be quiescent.
func (a *App) CopyFrom(o *App) {
	av := reflect.ValueOf(a).Elem()
	ov := reflect.ValueOf(o).Elem()
	t := av.Type()
	for i := 0; i < t.NumField(); i++ {
		if !t.Field(i).IsExported() {
			continue
		}
		av.Field(i).Set(ov.Field(i))
	}
}
