// Package engine executes dataflow jobs on a simulated cluster of
// executors with virtual clocks, reproducing the execution model of
// Spark-like systems (§2): actions trigger jobs, jobs are cut into stages
// at shuffle boundaries, stages run as parallel tasks over partitions,
// and cached partitions live in per-executor memory/disk block stores.
//
// All caching decisions — whether to cache a computed partition, which
// victims to evict and into which state, whether to promote disk reads —
// are delegated to a Controller. The annotation-based controllers in this
// package model Spark, Spark+Alluxio, LRC and MRD; the Blaze controller
// lives in internal/core.
package engine

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/eventlog"
	"blaze/internal/metrics"
	"blaze/internal/shuffle"
	"blaze/internal/storage"
)

// Placement is a desired location for a cached partition, mirroring the
// paper's per-partition states m (memory), d (disk) and u (unpersisted).
type Placement int

const (
	// PlaceNone leaves the partition uncached (state u).
	PlaceNone Placement = iota
	// PlaceMemory caches the partition in executor memory (state m).
	PlaceMemory
	// PlaceDisk stores the partition on executor disk (state d).
	PlaceDisk
)

// String names the placement.
func (p Placement) String() string {
	switch p {
	case PlaceNone:
		return "none"
	case PlaceMemory:
		return "memory"
	case PlaceDisk:
		return "disk"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Victim is one eviction decision: the block to remove from memory and
// whether to spill it to disk (m→d) or drop it (m→u).
type Victim struct {
	ID     storage.BlockID
	ToDisk bool
}

// Controller makes all caching/eviction/recovery decisions. Exactly one
// controller is attached per cluster.
type Controller interface {
	// Name identifies the system configuration in reports.
	Name() string
	// Bind attaches the controller to its cluster before execution.
	Bind(c *Cluster)
	// OnJobStart is invoked with the job DAG before stages run.
	OnJobStart(j *Job)
	// OnJobEnd is invoked after the job's final stage.
	OnJobEnd(j *Job)
	// OnStageEnd is invoked after each executed stage, with per-executor
	// idle time available until the stage barrier (used for prefetching).
	OnStageEnd(st *Stage, idle []time.Duration)
	// PlaceComputed decides the placement of a freshly computed (or
	// recomputed) partition. The fallback applies when memory admission
	// fails (e.g. MEM+DISK Spark degrades to disk).
	PlaceComputed(ex *Executor, ds *dataflow.Dataset, part int, size int64) (primary, fallback Placement)
	// SelectVictims frees at least need bytes on the executor by naming
	// victims in eviction order with their dispositions. The engine
	// evicts them in order until enough space is free.
	SelectVictims(ex *Executor, need int64) []Victim
	// PromoteOnDiskRead reports whether a block just read from disk
	// should be moved back to memory.
	PromoteOnDiskRead(ex *Executor, id storage.BlockID) bool
	// OnBlockAccess notifies cache hits for policy bookkeeping.
	OnBlockAccess(ex *Executor, id storage.BlockID)
	// OnBlockAdmitted notifies that a block entered the memory store
	// through the engine (admission, promotion, checkpoint restore). Disk
	// writes are not announced.
	OnBlockAdmitted(ex *Executor, id storage.BlockID)
	// OnBlockRemoved notifies that a block left a store tier through an
	// eviction, spill, drop, unpersist or injected loss (once per block
	// when both tiers lose it). It is not issued on every path — the
	// session-exit purge (DropNamespaceBlocks) removes blocks silently —
	// so state that must track residency exactly reads the stores (or
	// their ColumnVersion), not this.
	OnBlockRemoved(ex *Executor, id storage.BlockID)
	// OnComputed reports the observed metrics of a computed partition
	// (Blaze records these on its CostLineage, §5.3).
	OnComputed(ex *Executor, ds *dataflow.Dataset, part int, size int64, cost time.Duration)
}

// Executor is one simulated executor: one virtual clock per core plus
// its block stores. Tasks for partition p run on the partition's home
// executor — initially p mod E, which models Spark's locality-aware
// scheduling (cached blocks are local) — until an executor death
// migrates the assignment to a survivor; within an executor, tasks are
// placed on the least-loaded core.
type Executor struct {
	ID    int
	cores []costmodel.Clock
	cur   int // core executing the current task
	Mem   *storage.MemoryStore
	Disk  *storage.DiskStore
	// dead marks an executor killed by fault injection: its stores are
	// unreachable, its clocks frozen, and no further tasks run on it.
	dead bool

	// slowFactor and slowTasks model a transient straggler window: while
	// slowTasks > 0, every task execution on this executor is inflated to
	// slowFactor times its intrinsic cost, decrementing the window. Both
	// are written only from this executor's own task context (or the
	// driver), so they need no locking under parallel stage execution.
	slowFactor float64
	slowTasks  int
	// flakes counts retryable failures (task flakes, fetch flakes) since
	// the last blacklist decision; written only from this executor's own
	// task context, read by the driver at stage barriers.
	flakes int
	// blacklisted marks a flaky executor the scheduler skips for cooldown
	// more top-level stages. Unlike death, the cache survives and the
	// executor is reinstated when the cooldown expires.
	blacklisted bool
	cooldown    int
}

// Dead reports whether the executor was killed by an injected
// executor-death fault.
func (ex *Executor) Dead() bool { return ex.dead }

// Blacklisted reports whether the executor is currently sitting out a
// flaky-executor cooldown window.
func (ex *Executor) Blacklisted() bool { return ex.blacklisted }

// Clock returns the clock of the core running the current task; costs
// incurred by the task (compute, I/O, migrations) advance it.
func (ex *Executor) Clock() *costmodel.Clock { return &ex.cores[ex.cur] }

// Cores returns the number of cores.
func (ex *Executor) Cores() int { return len(ex.cores) }

// MaxClock returns the executor's latest core time.
func (ex *Executor) MaxClock() time.Duration {
	var t time.Duration
	for i := range ex.cores {
		if ex.cores[i].Now() > t {
			t = ex.cores[i].Now()
		}
	}
	return t
}

// PickCore selects the least-loaded core (earliest clock, ties by index)
// for the next task and returns its clock.
func (ex *Executor) PickCore() *costmodel.Clock {
	best := 0
	for i := 1; i < len(ex.cores); i++ {
		if ex.cores[i].Now() < ex.cores[best].Now() {
			best = i
		}
	}
	ex.cur = best
	return &ex.cores[best]
}

// idleCore returns the clock of the least-loaded core without changing
// which core runs the current task (unlike PickCore). Speculative task
// copies advance this clock directly.
func (ex *Executor) idleCore() *costmodel.Clock {
	best := 0
	for i := 1; i < len(ex.cores); i++ {
		if ex.cores[i].Now() < ex.cores[best].Now() {
			best = i
		}
	}
	return &ex.cores[best]
}

// SyncTo advances every core to at least t (stage barrier).
func (ex *Executor) SyncTo(t time.Duration) {
	for i := range ex.cores {
		ex.cores[i].AdvanceTo(t)
	}
}

// Config describes a cluster.
type Config struct {
	// Executors is the number of executors (E).
	Executors int
	// MemoryPerExecutor is the memory-store capacity per executor.
	MemoryPerExecutor int64
	// Params is the virtual-time cost model.
	Params costmodel.Params
	// Controller makes the caching decisions.
	Controller Controller
	// CoresPerExecutor is the number of task slots per executor
	// (default 1). With C cores, up to C tasks of a stage overlap on one
	// executor, so recomputation latencies across tasks overlap too —
	// the paper's executors run 4 cores each.
	CoresPerExecutor int
	// AlluxioMode models caching through an external tiered store
	// (Spark+Alluxio, §7.1): every cache write and read pays
	// (de)serialization even on the memory tier.
	AlluxioMode bool
	// EventLog, when non-nil, records structured execution events
	// (jobs, stages, tasks, cache lifecycle) for post-run auditing.
	EventLog *eventlog.Log
	// Hook, when non-nil, observes job and top-level stage boundaries.
	// internal/faults implements it to inject failures between
	// scheduling units, turning the recovery paths (recomputation, disk
	// reload, stage resubmission) into first-class, testable scenarios.
	Hook Hook
	// Parallelism bounds the number of OS threads executing a stage's
	// tasks concurrently. 0 defaults to runtime.GOMAXPROCS(0); 1 forces
	// the fully sequential task loop. Any value produces bit-identical
	// virtual-clock metrics and event logs: a stage's tasks run in
	// task-order segments whose tasks are grouped by executor (preserving
	// each executor's exact sequential task subsequence), and only tasks
	// proven free of cross-executor effects run in parallel — see
	// runTasks.
	Parallelism int
	// Vectorized is ignored: every partition keeps the form its producer
	// gave it (see dataplane.go).
	//
	// Deprecated: there is one task loop; nothing reads this field.
	Vectorized bool
	// Resilience configures the scheduler's transient-failure machinery
	// (task retries, speculative execution, blacklisting). The zero value
	// selects the documented defaults.
	Resilience Resilience
	// RealBytes makes the cluster's private pool a real-bytes one (it is
	// forwarded to PoolConfig.RealBytes and read nowhere else): the memory
	// stores hold encoded buffers (the columnar block codec, decoded on
	// every read) and the disk stores write one file per block under a
	// run-scoped temp directory. Virtual-time charging is
	// unchanged — the same modeled costs advance the same clocks — but
	// every charge site additionally records measured wall-clock work
	// into the pool's Meter, enabling modeled-vs-measured comparison.
	// Stages of a metered cluster run on the sequential task loop so
	// measurements are not perturbed by concurrent execution. Call Close
	// when done to remove the block files.
	RealBytes bool
	// Pool attaches the cluster to a shared executor pool instead of a
	// private one: Executors, CoresPerExecutor, MemoryPerExecutor and
	// RealBytes are ignored (the pool's shape and mode win), the pool's
	// stores and clocks are shared with every other attached cluster,
	// and jobs serialize through Gate (or the pool's own lock).
	Pool *Pool
	// Gate, when non-nil (requires Pool), brokers job admission: the
	// engine calls Gate.AcquireJob/ReleaseJob around each job instead of
	// locking the pool directly, letting a server impose fair-share
	// ordering across sessions.
	Gate JobGate
}

// Resilience configures how the scheduler absorbs transient failures —
// the counterpart of Spark's task retries, speculative execution and
// executor blacklisting. All costs are charged to virtual time.
type Resilience struct {
	// MaxTaskRetries bounds how many failed attempts of one task are
	// retried before the final attempt runs unconditionally (so a task
	// runs at most MaxTaskRetries+1 attempts and always terminates).
	// 0 selects the default of 3; negative disables retries entirely.
	MaxTaskRetries int
	// MaxFetchRetries bounds transient shuffle-fetch retries per fetch.
	// 0 selects the default of 2; negative disables fetch retries.
	MaxFetchRetries int
	// RetryBackoff is the base backoff charged before the first retry;
	// it doubles with every subsequent attempt (deterministic exponential
	// backoff). 0 selects the default of 2ms.
	RetryBackoff time.Duration
	// SpeculativeMultiple enables speculative execution: once a
	// straggling task's projected duration exceeds this multiple of its
	// intrinsic (unslowed) cost, a copy launches on the fastest eligible
	// executor; the first finisher wins and the loser's core time is
	// accounted as waste. 0 (or <= 1) disables speculation. Stages that
	// could speculate run on the sequential task loop at every
	// Parallelism setting, keeping virtual-time results bit-identical.
	SpeculativeMultiple float64
	// BlacklistAfter blacklists an executor once it accumulates this many
	// retryable failures (task or fetch flakes): the scheduler reroutes
	// its tasks deterministically for BlacklistCooldown top-level stages,
	// while its cache survives (blacklisted != dead). 0 disables
	// blacklisting.
	BlacklistAfter int
	// BlacklistCooldown is the number of top-level stages a blacklisted
	// executor sits out before reinstatement (default 2 when blacklisting
	// is enabled).
	BlacklistCooldown int
}

// String renders the configuration in the knob vocabulary blaze's
// ParseResilience accepts ("retries=3,backoff=2ms,..."), emitting only
// the fields that differ from the zero value so String/Parse round-trip
// exactly: the zero value renders as "".
func (r Resilience) String() string {
	var parts []string
	if r.MaxTaskRetries != 0 {
		parts = append(parts, fmt.Sprintf("retries=%d", r.MaxTaskRetries))
	}
	if r.MaxFetchRetries != 0 {
		parts = append(parts, fmt.Sprintf("fetch-retries=%d", r.MaxFetchRetries))
	}
	if r.RetryBackoff != 0 {
		parts = append(parts, fmt.Sprintf("backoff=%s", r.RetryBackoff))
	}
	if r.SpeculativeMultiple != 0 {
		parts = append(parts, fmt.Sprintf("spec=%s", strconv.FormatFloat(r.SpeculativeMultiple, 'g', -1, 64)))
	}
	if r.BlacklistAfter != 0 {
		parts = append(parts, fmt.Sprintf("blacklist=%d", r.BlacklistAfter))
	}
	if r.BlacklistCooldown != 0 {
		parts = append(parts, fmt.Sprintf("cooldown=%d", r.BlacklistCooldown))
	}
	return strings.Join(parts, ",")
}

// normalized resolves the zero-value defaults and negative sentinels.
func (r Resilience) normalized() Resilience {
	switch {
	case r.MaxTaskRetries == 0:
		r.MaxTaskRetries = 3
	case r.MaxTaskRetries < 0:
		r.MaxTaskRetries = 0
	}
	switch {
	case r.MaxFetchRetries == 0:
		r.MaxFetchRetries = 2
	case r.MaxFetchRetries < 0:
		r.MaxFetchRetries = 0
	}
	if r.RetryBackoff <= 0 {
		r.RetryBackoff = 2 * time.Millisecond
	}
	if r.SpeculativeMultiple <= 1 {
		r.SpeculativeMultiple = 0
	}
	if r.BlacklistAfter > 0 && r.BlacklistCooldown <= 0 {
		r.BlacklistCooldown = 2
	}
	return r
}

// ParallelCaps declares the properties of a Controller that the engine
// needs to decide whether a stage's tasks may run on concurrent
// per-executor workers without changing any virtual-time result.
type ParallelCaps struct {
	// Safe asserts the controller's task-path callbacks (OnBlockAccess,
	// OnBlockAdmitted, OnBlockRemoved, OnComputed, PlaceComputed,
	// SelectVictims, PromoteOnDiskRead) tolerate concurrent invocation
	// from one worker goroutine per executor, and that their effects on
	// any single executor depend only on that executor's own access
	// stream. Controllers that do not implement ParallelCapable are
	// treated as unsafe and always run sequentially.
	Safe bool
	// SpillOnlyEvictions asserts every victim the controller selects is
	// spilled to disk (Victim.ToDisk == true), never dropped. The
	// segment walk (isolated) then trusts every memory copy as a lineage
	// truncation point: an eviction by the task's own executor can only
	// move the block to disk, not expose a deeper recomputation path.
	// Without it, the walk trusts a memory copy only for an executor's
	// first task in a segment, and only until that task may have
	// admitted a block.
	SpillOnlyEvictions bool
	// RemoteReads declares the controller's task-path callbacks may read
	// state derived from other executors' partitions (Blaze's cost
	// estimator walks lineage across shuffle edges whose parent and
	// child partition counts differ, reaching partitions homed on other
	// executors). Stages run sequentially while any shuffle edge with
	// differing partition counts is reachable from estimable data, so
	// such reads never happen concurrently with writes.
	RemoteReads bool
}

// ParallelCapable is implemented by controllers that have audited their
// callback paths for per-executor-parallel execution.
type ParallelCapable interface {
	ParallelCaps() ParallelCaps
}

// Hook observes scheduling boundaries of a cluster. Stage notifications
// fire only for top-level stages — never for stages regenerated in the
// middle of an outer task — so hooks always run between scheduling units,
// where mutating cache or shuffle state is safe.
type Hook interface {
	// OnJobStart fires after the job DAG is built, before stages run.
	OnJobStart(c *Cluster, j *Job)
	// OnStageEnd fires after each top-level stage's barrier.
	OnStageEnd(c *Cluster, st *Stage)
	// OnJobEnd fires after the job's final stage.
	OnJobEnd(c *Cluster, j *Job)
}

// TaskHook is an optional extension of Hook observing individual task
// attempts and shuffle-fetch attempts — the granularity transient faults
// live at. A Config.Hook that also implements TaskHook is consulted on
// every attempt.
//
// Implementations must be safe for concurrent calls from per-executor
// workers, and their verdicts must be pure functions of the arguments
// (never of call order or shared mutable draws): the engine calls them
// from both the sequential loop and parallel workers, and the
// virtual-time results must stay bit-identical across Parallelism
// settings. Mutations beyond the given executor's own state are limited
// to InjectStraggler and internal (locked) counters.
type TaskHook interface {
	Hook
	// OnTaskStart fires before attempt (1-based) of the task computing
	// partition part of st.Boundary on ex. Returning true fails the
	// attempt transiently: the scheduler charges the wasted launch
	// overhead plus exponential backoff to virtual time and retries,
	// bounded by Resilience.MaxTaskRetries — the verdict of the final
	// attempt is ignored, so tasks always terminate.
	OnTaskStart(c *Cluster, ex *Executor, st *Stage, part, attempt int) bool
	// OnTaskEnd fires after the task's successful execution completes.
	OnTaskEnd(c *Cluster, ex *Executor, st *Stage, part int)
	// OnFetch fires before fetch attempt (1-based) of reduce bucket part
	// of shuffleID on ex. Returning true fails the attempt transiently
	// (the bucket itself is intact); the fetch is retried with backoff,
	// bounded by Resilience.MaxFetchRetries.
	OnFetch(c *Cluster, ex *Executor, shuffleID, part, attempt int) bool
}

// Cluster executes jobs for one dataflow context.
type Cluster struct {
	cfg     Config
	ctx     *dataflow.Context
	execs   []*Executor
	shuffle *shuffle.Service
	met     *metrics.App
	ctl     Controller

	log      *eventlog.Log
	jobSeq   int
	stageSeq int
	// computedOnce marks partitions already computed at least once, so
	// later computations count as recomputation (cache-miss recovery).
	computedOnce map[storage.BlockID]bool
	// curJob is the index of the job currently running, for attributing
	// recomputation time (Fig. 5).
	curJob int
	// assign maps partition slots (partition index mod E) to executor
	// indices. It starts as the identity; executor deaths rebalance the
	// dead executor's slots round-robin over the sorted survivors.
	// assignEpoch counts its writes (see DriverEpoch); both are written
	// only through setAssign, in driver context.
	assign      []int
	assignEpoch uint64
	// faultLost marks blocks destroyed by injected faults with the fault
	// class that destroyed them; when such a block is recomputed, the
	// cost is attributed as recovery for that class.
	faultLost map[storage.BlockID]string
	// faultLostShuffles marks shuffles cleaned whole by injected faults;
	// their regeneration is attributed as fault recovery.
	faultLostShuffles map[int]bool
	// faultLostMaps marks individual map outputs invalidated by injected
	// faults (bucket loss, executor death), per shuffle, with the fault
	// class; re-running exactly those map tasks is the recovery.
	faultLostMaps map[int]map[int]string

	// par is the resolved Config.Parallelism (>= 1).
	par int
	// res is the resolved Config.Resilience (defaults applied).
	res Resilience
	// taskHook is Config.Hook downcast to TaskHook when it implements
	// the task-granularity extension, nil otherwise.
	taskHook TaskHook
	// mu guards the cluster-wide bookkeeping maps (computedOnce,
	// faultLost) while a stage's tasks run on parallel workers. Lock
	// ordering: mu is a leaf lock, acquired after no other lock; the
	// metrics and shuffle-service mutexes are likewise leaves, so no
	// two of these locks are ever held together.
	mu sync.Mutex
	// curTrace routes task-context event emissions and disk-write
	// notes into per-task buffers during parallel stage execution.
	// curTrace[ex.ID] is non-nil exactly while ex's worker goroutine is
	// inside a task; each slot is written only by its own worker (or by
	// the driver outside parallel sections), so access is race-free by
	// ownership.
	curTrace []*taskTrace

	// parallelStages and parallelTasks count stages and tasks run on
	// concurrent workers (driver-context bookkeeping, see
	// ParallelStagesRan); seg is the reusable segment-dispatch state.
	parallelStages int
	parallelTasks  int
	seg            segmenter

	// pool is the executor pool the cluster runs on: Config.Pool, or a
	// private one NewCluster built (and Close closes). Jobs serialize
	// through gate (or the pool's lock), memory admissions answer to the
	// pool's quota and measured storage work goes to its meter — each nil
	// where there is none (Meter methods are nil-safe no-ops). inJob marks
	// that this cluster holds pool exclusivity via the job path, so
	// driver-path accessors must not re-acquire it.
	pool  *Pool
	gate  JobGate
	quota storage.QuotaController
	meter *storage.Meter
	inJob bool
	// startTime is the pool timeline's Now at cluster creation; ACT is
	// measured from it, so a session admitted late to a shared pool is not
	// charged for history it never saw (but is charged for contention
	// while it runs, which the shared clocks impose naturally).
	startTime time.Duration
	// diskBase snapshots each pool executor's cumulative disk-written
	// bytes at cluster creation; Finish reports the cluster's delta.
	diskBase []int64

	// curWindow is the 1-based index of the open micro-batch window on a
	// streaming session (0 on one-shot runs; see StartWindow).
	curWindow int

	// Crash-recovery state (see recover.go). While replay is true the
	// cluster fast-forwards a resumed driver: jobs return empty results
	// without executing and window boundaries only count replayWindows
	// up toward replayTarget.Window, where finishResume rehydrates.
	replay        bool
	replayWindows int
	replayTarget  *ResumeState
	// recoveryLog receives resume-only bookkeeping events (they must
	// never enter the main log, which has to stay bit-identical to an
	// uninterrupted run).
	recoveryLog *eventlog.Log
	// checkpointer, when set, observes streaming window boundaries to
	// persist ResumeState snapshots.
	checkpointer WindowCheckpointer
	// teardown holds what AtTeardown registered: the join of a window
	// checkpointer's background commit.
	teardown []func() error
	// atJobEnd holds what AtNextJobEnd registered, run and cleared when
	// the next job ends.
	atJobEnd []func()
}

// taskTrace buffers one task's externally ordered side effects during
// parallel execution: its event-log emissions and its disk-footprint
// deltas. After a segment joins, its traces are replayed in ascending
// task order — exactly the order the sequential loop would have
// produced — so the event log and the cluster-wide disk peak are
// bit-identical to a Parallelism=1 run.
type taskTrace struct {
	events     []eventlog.Event
	diskDeltas []int64
}

// NewCluster creates a cluster bound to the context and installs itself
// as the context's job runner.
func NewCluster(cfg Config, ctx *dataflow.Context) (*Cluster, error) {
	if cfg.Pool == nil && cfg.Gate != nil {
		return nil, fmt.Errorf("engine: a job gate requires a shared pool")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Controller == nil {
		return nil, fmt.Errorf("engine: a cache controller is required")
	}
	pool := cfg.Pool
	if pool == nil {
		var err error
		pool, err = NewPool(PoolConfig{Executors: cfg.Executors, CoresPerExecutor: cfg.CoresPerExecutor,
			MemoryPerExecutor: cfg.MemoryPerExecutor, RealBytes: cfg.RealBytes})
		if err != nil {
			return nil, err
		}
	}
	execs := pool.Executors()
	c := &Cluster{
		cfg:               cfg,
		ctx:               ctx,
		execs:             execs,
		shuffle:           shuffle.NewService(),
		met:               metrics.NewApp(len(execs)),
		ctl:               cfg.Controller,
		log:               cfg.EventLog,
		computedOnce:      make(map[storage.BlockID]bool),
		assign:            make([]int, len(execs)),
		faultLost:         make(map[storage.BlockID]string),
		faultLostShuffles: make(map[int]bool),
		faultLostMaps:     make(map[int]map[int]string),
		curTrace:          make([]*taskTrace, len(execs)),
		pool:              pool,
		gate:              cfg.Gate,
		quota:             pool.Quota(),
		meter:             pool.Meter(),
		diskBase:          make([]int64, len(execs)),
		seg: segmenter{
			memo:    make(map[int]uint8),
			perExec: make([][]int, len(execs)),
			visited: make(map[int]bool),
		},
	}
	c.par = cfg.Parallelism
	if c.par == 0 {
		c.par = runtime.GOMAXPROCS(0)
	}
	if c.par < 1 {
		c.par = 1
	}
	c.res = cfg.Resilience.normalized()
	if th, ok := cfg.Hook.(TaskHook); ok {
		c.taskHook = th
	}
	// Baselines: ACT and disk-written bytes are deltas from the cluster's
	// admission instant on the pool's timeline (zero on a private pool).
	pool.Acquire()
	c.startTime = c.Now()
	live := make([]int, 0, len(execs))
	for i, ex := range execs {
		c.diskBase[i] = ex.Disk.TotalWritten()
		if !ex.dead {
			live = append(live, i)
		}
	}
	pool.Release()
	if len(live) == 0 {
		return nil, fmt.Errorf("engine: shared pool has no live executors")
	}
	// Home partitions round-robin over the live executors (the identity
	// on a private pool), so a session admitted after an executor death
	// never schedules tasks onto a dead executor.
	for i := range c.assign {
		c.setAssign(i, live[i%len(live)])
	}
	ctx.SetRunner(c)
	c.ctl.Bind(c)
	return c, nil
}

// Context returns the driver context.
func (c *Cluster) Context() *dataflow.Context { return c.ctx }

// SharedPool reports whether the cluster's pool was handed in (a
// multi-session job server) rather than built privately, so other
// sessions' blocks may live in the same stores. Controllers consult it
// to avoid pricing a neighbor's cache at zero.
func (c *Cluster) SharedPool() bool { return c.cfg.Pool != nil }

// DropNamespaceBlocks silently removes every resident block whose
// dataset id falls in [lo, hi) from all pool executors — no events, no
// metric or clock charges. The job server calls it when a session
// exits, so a dead application's blocks stop occupying (and, with
// their stamped costs, defending) the shared cache. The caller must
// hold pool exclusivity; quota bytes are released through the stores.
func (c *Cluster) DropNamespaceBlocks(lo, hi int) {
	for _, ex := range c.execs {
		for _, m := range ex.Mem.Blocks() {
			if m.ID.Dataset >= lo && m.ID.Dataset < hi {
				ex.Mem.Drop(m.ID)
			}
		}
		for _, id := range ex.Disk.Blocks() {
			if id.Dataset >= lo && id.Dataset < hi {
				ex.Disk.Remove(id)
			}
		}
	}
}

// Executors returns all executors, dead ones included (their stats and
// stores remain addressable by index).
func (c *Cluster) Executors() []*Executor { return c.execs }

// LiveExecutors returns the executors still alive, in id order.
func (c *Cluster) LiveExecutors() []*Executor {
	out := make([]*Executor, 0, len(c.execs))
	for _, ex := range c.execs {
		if !ex.dead {
			out = append(out, ex)
		}
	}
	return out
}

// ExecutorFor returns the home executor of a partition: its slot's
// current assignee, which deaths may have migrated away from the initial
// p mod E executor. The returned executor is always alive.
func (c *Cluster) ExecutorFor(part int) *Executor {
	return c.execs[c.assign[part%len(c.execs)]]
}

// setAssign homes a partition slot on an executor.
func (c *Cluster) setAssign(slot, exec int) {
	c.assign[slot] = exec
	c.assignEpoch++
}

// DriverEpoch counts the driver-side transitions that change what a
// lineage walk sees without touching any block store: a shuffle's
// completeness flipping, and a partition slot moving to another
// executor. Both happen only between tasks, so a controller may keep a
// cost estimate across decisions for as long as the reading (and the
// stores it read) stay the same.
func (c *Cluster) DriverEpoch() uint64 { return c.assignEpoch + c.shuffle.SealEpoch() }

// Params returns the cost model parameters.
func (c *Cluster) Params() costmodel.Params { return c.cfg.Params }

// Resilience returns the resolved resilience configuration.
func (c *Cluster) Resilience() Resilience { return c.res }

// CurrentJob returns the index of the job currently running. Task hooks
// use it to key transient fault decisions.
func (c *Cluster) CurrentJob() int { return c.curJob }

// WindowAdvancer is the optional controller extension for micro-batch
// streaming. A controller that implements it is notified at every
// window boundary — after the previous window's jobs have finished and
// before the new window's first job is submitted — so it can retire
// lineage whose lifetime has passed and re-solve placement as a delta
// on the previous window's assignment.
type WindowAdvancer interface {
	// AdvanceWindow opens the given 1-based window; nextJob is the index
	// the window's first job will receive.
	AdvanceWindow(window, nextJob int)
}

// StartWindow opens the next micro-batch window on a streaming session
// and returns its 1-based index. It runs in driver context between
// jobs: the boundary takes pool exclusivity like a job (window-boundary
// retirement and re-solves mutate the stores), emits the window_start
// event, and hands the controller its AdvanceWindow notification when
// it implements WindowAdvancer. One-shot runs never call it, so their
// metrics and event logs are unchanged.
func (c *Cluster) StartWindow() int {
	if c.replay {
		// Replayed boundary: nothing runs live. Count it, and once the
		// driver reaches the checkpointed window rehydrate under pool
		// exclusivity — the snapshot was captured after this boundary's
		// AdvanceWindow, so its effects are already inside it.
		c.replayWindows++
		if c.replayWindows >= c.replayTarget.Window {
			// Deferred: a rehydrate that panics must not leave the pool
			// locked, or the session's teardown would wait on it forever.
			c.beginJob()
			defer c.endJob()
			c.finishResume()
		}
		return c.replayWindows
	}
	c.beginJob()
	defer c.endJob()
	c.curWindow++
	c.met.WindowsRun++
	c.emit(eventlog.Event{Kind: eventlog.WindowStart, Time: c.Now(), Job: c.jobSeq, Window: c.curWindow})
	if wa, ok := c.ctl.(WindowAdvancer); ok {
		wa.AdvanceWindow(c.curWindow, c.jobSeq)
	}
	if c.checkpointer != nil && c.curWindow > 1 {
		// Checkpoint after the boundary re-solve: the snapshot then
		// holds windows 1..k-1 complete plus boundary k's plan, and a
		// resume continues straight into window k's jobs.
		c.checkpointer.OnWindowBoundary(c, c.curWindow)
	}
	return c.curWindow
}

// anyBlacklisted reports whether any executor is sitting out a
// flaky-executor cooldown (driver-context read).
func (c *Cluster) anyBlacklisted() bool {
	for _, ex := range c.execs {
		if ex.blacklisted {
			return true
		}
	}
	return false
}

// anyStraggling reports whether any executor is inside a straggler
// window (driver-context read, used to gate parallel dispatch while
// speculation is enabled).
func (c *Cluster) anyStraggling() bool {
	for _, ex := range c.execs {
		if ex.slowTasks > 0 {
			return true
		}
	}
	return false
}

// Metrics returns the application metrics.
func (c *Cluster) Metrics() *metrics.App { return c.met }

// Meter returns the pool's measured-storage meter (nil unless the pool
// is a RealBytes one).
func (c *Cluster) Meter() *storage.Meter { return c.meter }

// Close closes the cluster's private pool (removing a RealBytes pool's
// block files); a pool that was handed in is its owner's to close. Safe
// to call multiple times; callers should defer it right after NewCluster
// so failure paths clean up too.
func (c *Cluster) Close() error {
	if c.SharedPool() {
		return nil
	}
	return c.pool.Close()
}

// ShuffleComplete reports whether a shuffle's outputs are currently
// available (controllers use this to price recomputation across stage
// boundaries).
func (c *Cluster) ShuffleComplete(shuffleID int) bool { return c.shuffle.Complete(shuffleID) }

// EmitEvent appends a driver-context event to the attached log (a no-op
// without one). Controllers use it to record decisions made at
// scheduling boundaries — e.g. the optimizer's per-solve ILPSolve
// events — where no task trace is active.
func (c *Cluster) EmitEvent(e eventlog.Event) { c.emit(e) }

// emit appends an event to the attached log, stamping the dataset name.
// Driver-context events only; task-context emissions go through emitEx.
func (c *Cluster) emit(e eventlog.Event) {
	if c.log == nil {
		return
	}
	if e.DatasetNm == "" {
		if ds := c.ctx.Dataset(e.Dataset); ds != nil {
			e.DatasetNm = ds.Name()
		}
	}
	c.log.Append(e)
}

// emitEx records an event produced while executing on the executor.
// During a parallel stage the event is buffered on the executor's
// current task trace and flushed in task order at the stage join;
// outside parallel sections it appends directly, like emit.
func (c *Cluster) emitEx(ex *Executor, e eventlog.Event) {
	tr := c.curTrace[ex.ID]
	if tr == nil {
		c.emit(e)
		return
	}
	if c.log == nil {
		return
	}
	if e.DatasetNm == "" {
		if ds := c.ctx.Dataset(e.Dataset); ds != nil {
			e.DatasetNm = ds.Name()
		}
	}
	tr.events = append(tr.events, e)
}

// noteDiskWrite accounts a disk write of size bytes on the executor for
// the cluster-wide peak-footprint statistic. During a parallel stage the
// delta is buffered on the task trace and replayed in task order at the
// stage join, reproducing the sequential sampling exactly; otherwise the
// global footprint is sampled immediately.
func (c *Cluster) noteDiskWrite(ex *Executor, size int64) {
	if tr := c.curTrace[ex.ID]; tr != nil {
		tr.diskDeltas = append(tr.diskDeltas, size)
		return
	}
	c.noteDiskPeak()
}

// Now returns the current application time: the maximum executor clock.
func (c *Cluster) Now() time.Duration {
	var t time.Duration
	for _, ex := range c.execs {
		if m := ex.MaxClock(); m > t {
			t = m
		}
	}
	return t
}

// lockDriver serializes a driver-path mutation (Finish, Unpersist,
// Release, DropDataset) against the pool. Inside a job the gate already
// holds pool exclusivity and nothing is taken.
func (c *Cluster) lockDriver() func() {
	if c.inJob {
		return func() {}
	}
	c.pool.Acquire()
	return c.pool.Release
}

// Finish seals the run: synchronizes clocks, records the ACT and final
// storage statistics. Call once after the workload completes. The ACT is
// measured from the cluster's admission instant on its pool and its
// disk-written bytes are the cluster's delta; per-executor DiskPeakBytes
// remains the pool-lifetime peak (on a shared pool the stores are shared).
func (c *Cluster) Finish() *metrics.App {
	unlock := c.lockDriver()
	defer unlock()
	end := c.Now()
	for _, ex := range c.execs {
		if ex.dead {
			continue // clocks froze at death
		}
		ex.SyncTo(end)
	}
	c.met.ACT = end - c.startTime + c.met.ProfilingTime
	c.met.DiskBytesWritten = 0
	for i, ex := range c.execs {
		c.met.DiskBytesWritten += ex.Disk.TotalWritten() - c.diskBase[i]
		// Per-executor peaks are reported separately; the cluster-wide
		// DiskPeakBytes is maintained on every disk write, because the
		// executors' individual peaks occur at different virtual times
		// and their sum would overstate the concurrent footprint.
		c.met.Executors[i].DiskPeakBytes = ex.Disk.PeakBytes()
	}
	return c.met
}

// noteDiskPeak refreshes the cluster-wide peak disk footprint after a
// disk write (removals cannot raise the peak).
func (c *Cluster) noteDiskPeak() {
	var cur int64
	for _, ex := range c.execs {
		cur += ex.Disk.CurrentBytes()
	}
	if cur > c.met.DiskPeakBytes {
		c.met.DiskPeakBytes = cur
	}
}

// AddProfilingTime charges the dependency-extraction overhead into the
// application completion time (Blaze includes it, §7.2).
func (c *Cluster) AddProfilingTime(d time.Duration) { c.met.ProfilingTime += d }

// Unpersist implements dataflow.JobRunner: drop every cached block of the
// dataset from memory and disk. A no-op in replay mode, like the jobs
// whose blocks it would drop.
func (c *Cluster) Unpersist(d *dataflow.Dataset) {
	c.DropDataset(d)
}

// Release implements dataflow.JobRunner: unpersist and clean the shuffle
// outputs computed from the dataset, like Spark's ContextCleaner when an
// RDD goes out of scope.
func (c *Cluster) Release(d *dataflow.Dataset) {
	if c.replay {
		return
	}
	unlock := c.lockDriver()
	defer unlock()
	c.dropDataset(d)
	for _, ds := range c.ctx.Datasets() {
		for _, dep := range ds.Deps() {
			if dep.Shuffle && dep.Parent == d {
				c.shuffle.Clean(dep.ShuffleID)
				// The deliberate clean supersedes any pending partial
				// fault marks: a later re-run is a full regeneration,
				// not recovery of the individual lost map outputs.
				delete(c.faultLostMaps, dep.ShuffleID)
			}
		}
	}
}

// DropDataset removes all cached blocks of a dataset (an unpersist: the
// transition m→u or d→u, which is free of I/O).
func (c *Cluster) DropDataset(d *dataflow.Dataset) {
	if c.replay {
		return
	}
	unlock := c.lockDriver()
	defer unlock()
	c.dropDataset(d)
}

func (c *Cluster) dropDataset(d *dataflow.Dataset) {
	dropped := false
	for _, ex := range c.execs {
		for p := 0; p < d.Partitions(); p++ {
			id := storage.BlockID{Dataset: d.ID(), Partition: p}
			if _, ok := ex.Mem.Drop(id); ok {
				c.ctl.OnBlockRemoved(ex, id)
				dropped = true
			}
			if _, ok := ex.Disk.Remove(id); ok {
				c.ctl.OnBlockRemoved(ex, id)
				dropped = true
			}
		}
	}
	if dropped {
		c.met.Unpersists++
	}
}

// DropBlock removes one block from both tiers without I/O cost (u state)
// and counts the unpersist.
func (c *Cluster) DropBlock(ex *Executor, id storage.BlockID) {
	dropped := false
	if _, ok := ex.Mem.Drop(id); ok {
		c.ctl.OnBlockRemoved(ex, id)
		dropped = true
	}
	if _, ok := ex.Disk.Remove(id); ok {
		c.ctl.OnBlockRemoved(ex, id)
		dropped = true
	}
	if dropped {
		c.met.Unpersists++
	}
}

// SpillBlock moves a block from memory to disk (m→d), charging the write
// to the executor clock and the disk-I/O-for-caching bucket.
func (c *Cluster) SpillBlock(ex *Executor, id storage.BlockID) bool {
	// The payload moves as the memory store held it: a real-bytes block
	// reaches its file without a decode/encode round trip (as Spark
	// spills serialized bytes).
	payload, size, ok := ex.Mem.Remove(id)
	if !ok {
		return false
	}
	c.emitEx(ex, eventlog.Event{Kind: eventlog.BlockSpilled, Time: ex.Clock().Now(), Job: c.curJob,
		Executor: ex.ID, Dataset: id.Dataset, Partition: id.Partition, Bytes: size})
	c.ctl.OnBlockRemoved(ex, id)
	// A to-disk eviction is only counted when bytes were actually
	// written; a victim whose disk copy was retained from an earlier
	// spill is an m→u drop of the memory copy, not a second m→d.
	wrote := c.writeToDisk(ex, id, payload, size)
	if wrote {
		c.met.Executors[ex.ID].EvictedToDiskBytes += size
	} else {
		payload.Release() // the disk's own share stays; the memory store's is dropped
	}
	c.met.Executors[ex.ID].EvictedBytes += size
	c.met.IncEviction(wrote)
	return true
}

// dropFromMemory removes a block from memory only (m→u under pressure).
func (c *Cluster) dropFromMemory(ex *Executor, id storage.BlockID) bool {
	size, ok := ex.Mem.Drop(id)
	if !ok {
		return false
	}
	c.emitEx(ex, eventlog.Event{Kind: eventlog.BlockDropped, Time: ex.Clock().Now(), Job: c.curJob,
		Executor: ex.ID, Dataset: id.Dataset, Partition: id.Partition, Bytes: size})
	c.ctl.OnBlockRemoved(ex, id)
	c.met.Executors[ex.ID].EvictedBytes += size
	c.met.IncEviction(false)
	return true
}

// PromoteBlock copies a block from disk into memory (d→m) if space allows
// after evictions, charging the read. The disk copy is retained, as Spark
// retains spilled blocks until unpersist, so a later re-eviction pays no
// second write. Used by prefetching and by ILP migrations.
// chargeClock=false runs the I/O in scheduling gaps (MRD's background
// prefetch) while still accounting the disk time.
func (c *Cluster) PromoteBlock(ex *Executor, id storage.BlockID, chargeClock bool) bool {
	size, ok := ex.Disk.Size(id)
	if !ok || ex.Mem.Contains(id) {
		return false
	}
	if size > ex.Mem.Capacity() {
		return false
	}
	if !c.quotaReclaim(ex, id, size) {
		// Checked before any cost is charged: a promotion the tenant
		// quota refuses must not advance the clock for phantom I/O.
		return false
	}
	if !c.ensureFree(ex, size) {
		return false
	}
	cost := c.cfg.Params.DiskRead(size)
	if chargeClock {
		ex.Clock().Advance(cost)
	}
	c.met.Executors[ex.ID].Breakdown.DiskIO += cost
	c.meter.AddModeled(storage.DiskRead, cost)
	// The payload moves up as the disk store held it; a real-bytes block
	// is decoded on first read like any memory block.
	payload, _, ok := ex.Disk.Load(id)
	if !ok {
		return false
	}
	if _, err := ex.Mem.Admit(id, payload, size, ex.ID, ex.Clock().Now()); err != nil {
		payload.Release()
		return false
	}
	c.ctl.OnBlockAdmitted(ex, id)
	return true
}

// quotaReclaim checks the pool's tenant quota for admitting size bytes
// of id, and — when the owner's limit is exhausted — evicts the owner's
// own coldest memory blocks across the pool (LRU by last access, ties
// by insertion order) until the admission fits. Returns false when the
// quota still refuses; the caller must then skip the memory admission
// without charging any cost. Always true without a quota.
func (c *Cluster) quotaReclaim(ex *Executor, id storage.BlockID, size int64) bool {
	q := c.quota
	if q == nil || q.Allows(id, size) {
		return true
	}
	owner := q.Owner(id)
	if owner == "" {
		return false
	}
	type victim struct {
		ex   *Executor
		meta *storage.BlockMeta
	}
	var victims []victim
	for _, pex := range c.execs {
		if pex.dead {
			continue
		}
		for _, m := range pex.Mem.Blocks() {
			if m.ID == id || q.Owner(m.ID) != owner {
				continue
			}
			victims = append(victims, victim{pex, m})
		}
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].meta.LastAccess != victims[j].meta.LastAccess {
			return victims[i].meta.LastAccess < victims[j].meta.LastAccess
		}
		return victims[i].meta.InsertSeq < victims[j].meta.InsertSeq
	})
	for _, v := range victims {
		if q.Allows(id, size) {
			break
		}
		if c.dropFromMemory(v.ex, v.meta.ID) {
			c.met.IncQuotaEviction()
		}
	}
	return q.Allows(id, size)
}

// ensureFree evicts controller-chosen victims until at least required
// bytes are free on the executor. Returns false if the controller could
// not free enough.
func (c *Cluster) ensureFree(ex *Executor, required int64) bool {
	if ex.Mem.Free() >= required {
		return true
	}
	victims := c.ctl.SelectVictims(ex, required-ex.Mem.Free())
	for _, v := range victims {
		if ex.Mem.Free() >= required {
			break
		}
		if v.ToDisk {
			c.SpillBlock(ex, v.ID)
		} else {
			c.dropFromMemory(ex, v.ID)
		}
	}
	return ex.Mem.Free() >= required
}
