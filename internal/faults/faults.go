// Package faults provides deterministic, seed-driven fault injection for
// the simulated cluster, making the recovery pillar of holistic caching
// (§4.3, Fig. 5) a first-class, testable scenario rather than an
// incidental side effect of shuffle cleaning.
//
// An Injector implements engine.Hook and engine.TaskHook. Permanent
// faults fire at job and top-level stage boundaries and destroy state the
// engine must then recover through its three recovery paths —
// recomputation from lineage, disk reload, and Spark-style stage
// resubmission on missing shuffle files. Transient faults fire at task
// granularity and are absorbed by the scheduler's resilience machinery
// (bounded retries with backoff, speculative execution, blacklisting)
// without destroying any state. Eight fault classes are supported:
//
// Permanent (boundary granularity):
//
//   - ExecutorCacheLoss: every cached block (memory and disk) of one
//     executor vanishes, modeling an executor restart;
//   - BlockLoss: a single cached block vanishes from both tiers,
//     modeling corruption or eviction by the OS;
//   - ShuffleLoss: a completed shuffle's outputs are cleaned
//     mid-workload, forcing stage resubmission at the next fetch;
//   - ExecutorDeath: one executor dies for good — cache and map outputs
//     lost, partitions migrated to the sorted survivors round-robin;
//   - BucketLoss: a single map-output bucket of a completed shuffle
//     vanishes, so only its producing map task re-runs (fine-grained
//     resubmission).
//
// Transient (task granularity):
//
//   - TaskFlake: one task attempt fails and is retried with backoff;
//   - FetchFlake: one shuffle-fetch attempt fails transiently — the
//     bucket itself is intact and the fetch is retried;
//   - Straggler: an executor runs at a configurable slowdown multiplier
//     for a bounded window of task executions.
//
// Determinism works differently for the two groups. Permanent choices
// (when to fire, which class, which victim) derive from one rand.Rand
// seeded by Config.Seed over deterministic enumerations of the cluster
// state; the draw order is part of the contract — see Injector. Transient
// decisions are pure hash functions of the attempt's identity (seed,
// stage, partition, attempt number), never a shared RNG stream, so they
// are independent of execution order and remain bit-identical when the
// engine runs stage tasks on concurrent per-executor workers.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"blaze/internal/engine"
	"blaze/internal/storage"
)

// Class enumerates the fault classes.
type Class int

const (
	// ExecutorCacheLoss drops all memory and disk blocks of one executor.
	ExecutorCacheLoss Class = iota
	// BlockLoss drops a single cached block from both tiers.
	BlockLoss
	// ShuffleLoss cleans a completed shuffle's outputs.
	ShuffleLoss
	// ExecutorDeath kills one executor permanently: cache and map outputs
	// are lost and its partitions migrate to the survivors.
	ExecutorDeath
	// BucketLoss destroys one map-output bucket of a completed shuffle,
	// re-running only the producing map task.
	BucketLoss
	// TaskFlake fails a single task attempt transiently; the scheduler
	// retries the attempt (never the stage) with exponential backoff.
	TaskFlake
	// FetchFlake fails a single shuffle-fetch attempt transiently without
	// losing the bucket; the fetch is retried with backoff.
	FetchFlake
	// Straggler opens a bounded window during which one executor's tasks
	// run at a configurable slowdown multiplier, triggering speculative
	// execution when the scheduler has it enabled.
	Straggler
	// ServerCrash kills the whole session process deterministically at a
	// configured window boundary (blaze.SessionConfig.CrashWindow, carried
	// to checkpoint.Checkpointer.CrashWindow), immediately after
	// the boundary's checkpoint has been written. It models a driver or
	// job-server crash rather than a cluster-internal loss, so it is
	// excluded from AllClasses and from the Injector's draw pools: the
	// crash is scheduled, not drawn, and recovery goes through checkpoint
	// resume (blaze.ResumeSession) rather than lineage recomputation.
	ServerCrash
)

// ErrServerCrash is the panic sentinel a scheduled server-crash fault
// unwinds with. The job server recovers it at the session boundary and
// records the session as crashed; everything the session had admitted is
// purged and its tenant quota released, exactly as for a real process
// death observed by a supervisor.
var ErrServerCrash = errors.New("faults: server crash injected")

// String names the fault class.
func (c Class) String() string {
	switch c {
	case ExecutorCacheLoss:
		return "exec"
	case BlockLoss:
		return "block"
	case ShuffleLoss:
		return "shuffle"
	case ExecutorDeath:
		return "exec-death"
	case BucketLoss:
		return "bucket"
	case TaskFlake:
		return "task-flake"
	case FetchFlake:
		return "fetch-flake"
	case Straggler:
		return "straggler"
	case ServerCrash:
		return "server-crash"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Transient reports whether the class is a task-granularity transient
// fault (absorbed by retries/speculation) rather than a permanent loss.
func (c Class) Transient() bool {
	return c == TaskFlake || c == FetchFlake || c == Straggler
}

// AllClasses lists every fault class, permanent then transient.
func AllClasses() []Class {
	return []Class{ExecutorCacheLoss, BlockLoss, ShuffleLoss, ExecutorDeath, BucketLoss,
		TaskFlake, FetchFlake, Straggler}
}

// PermanentClasses lists the boundary-granularity destructive classes.
func PermanentClasses() []Class {
	return []Class{ExecutorCacheLoss, BlockLoss, ShuffleLoss, ExecutorDeath, BucketLoss}
}

// TransientClasses lists the task-granularity retryable classes.
func TransientClasses() []Class {
	return []Class{TaskFlake, FetchFlake, Straggler}
}

// ParseClasses parses a comma-separated class list ("exec,shuffle",
// "block", "task-flake", the groups "permanent"/"transient", or "all").
// Duplicates — whether repeated tokens or overlaps like "all,exec" — are
// removed while preserving first-seen order, so the injector's uniform
// class draw is never silently skewed toward a repeated class.
func ParseClasses(spec string) ([]Class, error) {
	var out []Class
	seen := make(map[Class]bool)
	add := func(cs ...Class) {
		for _, c := range cs {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	for _, f := range strings.Split(spec, ",") {
		switch strings.TrimSpace(f) {
		case "":
		case "all":
			add(AllClasses()...)
		case "permanent":
			add(PermanentClasses()...)
		case "transient":
			add(TransientClasses()...)
		case "exec":
			add(ExecutorCacheLoss)
		case "block":
			add(BlockLoss)
		case "shuffle":
			add(ShuffleLoss)
		case "exec-death":
			add(ExecutorDeath)
		case "bucket":
			add(BucketLoss)
		case "task-flake":
			add(TaskFlake)
		case "fetch-flake":
			add(FetchFlake)
		case "straggler":
			add(Straggler)
		case "server-crash":
			add(ServerCrash)
		default:
			return nil, fmt.Errorf("faults: unknown fault class %q (want exec, block, shuffle, exec-death, bucket, task-flake, fetch-flake, straggler, permanent, transient or all)", strings.TrimSpace(f))
		}
	}
	return out, nil
}

// FormatClasses renders a class list in the comma-separated syntax that
// ParseClasses accepts, so FormatClasses and ParseClasses round-trip:
// ParseClasses(FormatClasses(cs)) returns cs for any duplicate-free list.
func FormatClasses(cs []Class) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.String()
	}
	return strings.Join(parts, ",")
}

// Config describes an injection schedule.
type Config struct {
	// Seed drives every pseudo-random choice the injector makes.
	Seed int64
	// Classes lists the fault classes to draw from; empty injects
	// nothing.
	Classes []Class
	// Every fires one permanent fault per Every observed boundaries
	// (default 1). It does not affect the transient classes, which fire
	// per task/fetch attempt under TaskEvery.
	Every int
	// AtStageEnd fires permanent faults at top-level stage boundaries
	// instead of job boundaries, exercising mid-job recovery
	// (regeneration inside a running job rather than at its start).
	AtStageEnd bool
	// MaxFaults caps the total permanent injections; 0 means unlimited.
	// Transient faults are exempt: a global cap over task-granularity
	// events would make which firings are suppressed depend on task
	// execution order, breaking the bit-identity between sequential and
	// parallel runs.
	MaxFaults int
	// TaskEvery fires roughly one transient fault per TaskEvery task or
	// fetch attempts (default 8). The decision is a pure hash of the
	// attempt's identity, not a counter, so the long-run rate is 1/N
	// while individual firings stay order-independent.
	TaskEvery int
	// StragglerFactor is the virtual-clock slowdown multiplier of
	// injected straggler windows (default 4; must exceed 1 when set).
	StragglerFactor float64
	// StragglerWindow is the number of task executions a straggler
	// window spans (default 3).
	StragglerWindow int
}

// String renders the schedule as a stable key=value summary. The classes
// field uses FormatClasses, so it round-trips through ParseClasses; zero
// fields (which the injector maps to their documented defaults) are
// omitted, and the zero Config renders as the empty string.
func (cfg Config) String() string {
	var parts []string
	if cfg.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", cfg.Seed))
	}
	if len(cfg.Classes) > 0 {
		parts = append(parts, "classes="+FormatClasses(cfg.Classes))
	}
	if cfg.Every != 0 {
		parts = append(parts, fmt.Sprintf("every=%d", cfg.Every))
	}
	if cfg.AtStageEnd {
		parts = append(parts, "at-stage-end")
	}
	if cfg.MaxFaults != 0 {
		parts = append(parts, fmt.Sprintf("max=%d", cfg.MaxFaults))
	}
	if cfg.TaskEvery != 0 {
		parts = append(parts, fmt.Sprintf("task-every=%d", cfg.TaskEvery))
	}
	if cfg.StragglerFactor != 0 {
		parts = append(parts, fmt.Sprintf("straggler-factor=%s", strconv.FormatFloat(cfg.StragglerFactor, 'g', -1, 64)))
	}
	if cfg.StragglerWindow != 0 {
		parts = append(parts, fmt.Sprintf("straggler-window=%d", cfg.StragglerWindow))
	}
	return strings.Join(parts, ",")
}

// Validate rejects misconfigured schedules with a descriptive error, so
// callers (the facade, CLI flags) fail loudly instead of the injector
// silently remapping nonsense values to defaults.
func (cfg Config) Validate() error {
	if cfg.Every < 0 {
		return fmt.Errorf("faults: Every must be >= 0 (0 means default 1), got %d", cfg.Every)
	}
	if cfg.MaxFaults < 0 {
		return fmt.Errorf("faults: MaxFaults must be >= 0 (0 means unlimited), got %d", cfg.MaxFaults)
	}
	if cfg.TaskEvery < 0 {
		return fmt.Errorf("faults: TaskEvery must be >= 0 (0 means default 8), got %d", cfg.TaskEvery)
	}
	if cfg.StragglerFactor != 0 && cfg.StragglerFactor <= 1 {
		return fmt.Errorf("faults: StragglerFactor must exceed 1 (0 means default 4), got %g", cfg.StragglerFactor)
	}
	if cfg.StragglerWindow < 0 {
		return fmt.Errorf("faults: StragglerWindow must be >= 0 (0 means default 3), got %d", cfg.StragglerWindow)
	}
	for _, cl := range cfg.Classes {
		if cl < ExecutorCacheLoss || cl > ServerCrash {
			return fmt.Errorf("faults: unknown fault class %d", int(cl))
		}
	}
	return nil
}

// Injector injects faults at cluster boundaries (permanent classes) and
// task attempts (transient classes). It implements engine.Hook and
// engine.TaskHook; attach it via engine.Config.Hook.
//
// Draw-order contract for the permanent RNG stream: every firing
// boundary consumes exactly one draw for the class choice, plus one draw
// for the victim choice if and only if victims of that class exist. A
// boundary whose drawn class has no victim (nothing cached, no complete
// shuffle) therefore consumes exactly one draw, keeping later boundaries
// of the schedule aligned regardless of when victims first appear. The
// transient classes never touch this stream — their decisions are
// stateless hashes — so adding them to a schedule cannot shift the
// permanent victim sequence.
type Injector struct {
	cfg        Config
	rng        *rand.Rand
	boundaries int

	// perm and taskClasses split cfg.Classes (deduplicated, first-seen
	// order) into the boundary-draw pool and the task-draw pool;
	// fetchFlake is pulled out because it fires on a different code path.
	perm        []Class
	taskClasses []Class
	fetchFlake  bool

	// mu guards the injection counter, which transient classes update
	// from concurrent task contexts. Leaf lock.
	mu       sync.Mutex
	injected int
}

// New creates an injector for the schedule. Zero-valued knobs take their
// documented defaults (Every 1, TaskEvery 8, StragglerFactor 4,
// StragglerWindow 3); call Config.Validate first to reject negatives.
func New(cfg Config) *Injector {
	if cfg.Every <= 0 {
		cfg.Every = 1
	}
	if cfg.TaskEvery <= 0 {
		cfg.TaskEvery = 8
	}
	if cfg.StragglerFactor <= 1 {
		cfg.StragglerFactor = 4
	}
	if cfg.StragglerWindow <= 0 {
		cfg.StragglerWindow = 3
	}
	in := &Injector{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	seen := make(map[Class]bool)
	for _, cl := range cfg.Classes {
		if seen[cl] {
			continue // duplicates would skew the uniform class draw
		}
		seen[cl] = true
		switch cl {
		case TaskFlake, Straggler:
			in.taskClasses = append(in.taskClasses, cl)
		case FetchFlake:
			in.fetchFlake = true
		case ServerCrash:
			// Scheduled by the checkpointer, never drawn: adding it to a pool
			// would shift the permanent draw sequence of existing seeds.
		default:
			in.perm = append(in.perm, cl)
		}
	}
	return in
}

// Injected returns the number of faults injected so far.
func (in *Injector) Injected() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// count records one successful injection.
func (in *Injector) count() {
	in.mu.Lock()
	in.injected++
	in.mu.Unlock()
}

// OnJobStart implements engine.Hook (no injection at job start: the DAG
// was just built against the current cache state).
func (in *Injector) OnJobStart(c *engine.Cluster, j *engine.Job) {}

// OnStageEnd implements engine.Hook.
func (in *Injector) OnStageEnd(c *engine.Cluster, st *engine.Stage) {
	if in.cfg.AtStageEnd {
		in.tick(c)
	}
}

// OnJobEnd implements engine.Hook.
func (in *Injector) OnJobEnd(c *engine.Cluster, j *engine.Job) {
	if !in.cfg.AtStageEnd {
		in.tick(c)
	}
}

// tick counts one boundary and injects a permanent fault when the period
// elapses.
func (in *Injector) tick(c *engine.Cluster) {
	if len(in.perm) == 0 {
		return
	}
	if in.cfg.MaxFaults > 0 && in.Injected() >= in.cfg.MaxFaults {
		return
	}
	in.boundaries++
	if in.boundaries%in.cfg.Every != 0 {
		return
	}
	class := in.perm[in.rng.Intn(len(in.perm))]
	if in.inject(c, class) {
		in.count()
	}
}

// splitmix folds the parts into the seed with a splitmix64-style mixer —
// a pure function, so transient fault decisions depend only on the
// attempt's identity and never on the order attempts execute in.
func splitmix(seed uint64, parts ...uint64) uint64 {
	h := seed
	for _, p := range parts {
		h ^= p
		h += 0x9e3779b97f4a7c15
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// taskDraw decides whether the attempt identified by parts draws a
// transient fault from classes, firing at a 1-in-TaskEvery rate.
func (in *Injector) taskDraw(classes []Class, parts ...uint64) (Class, bool) {
	if len(classes) == 0 {
		return 0, false
	}
	h := splitmix(uint64(in.cfg.Seed)*0x9e3779b97f4a7c15+0x1234567, parts...)
	every := uint64(in.cfg.TaskEvery)
	if h%every != 0 {
		return 0, false
	}
	return classes[(h/every)%uint64(len(classes))], true
}

// OnTaskStart implements engine.TaskHook: it may fail the attempt
// transiently (task-flake) or open a straggler window on the executor.
// Stage IDs are globally unique and deterministic, so (stage, partition,
// attempt) identifies the attempt across runs and parallelism settings.
func (in *Injector) OnTaskStart(c *engine.Cluster, ex *engine.Executor, st *engine.Stage, part, attempt int) bool {
	class, ok := in.taskDraw(in.taskClasses, 1, uint64(st.ID), uint64(part), uint64(attempt))
	if !ok {
		return false
	}
	switch class {
	case TaskFlake:
		in.count()
		return true
	case Straggler:
		if c.InjectStraggler(ex, in.cfg.StragglerFactor, in.cfg.StragglerWindow) {
			in.count()
		}
	}
	return false
}

// OnTaskEnd implements engine.TaskHook (nothing to do after a success).
func (in *Injector) OnTaskEnd(c *engine.Cluster, ex *engine.Executor, st *engine.Stage, part int) {}

// OnFetch implements engine.TaskHook: it may fail one shuffle-fetch
// attempt transiently. The executor id joins the identity because the
// same (shuffle, partition) bucket may be fetched by different executors
// (broadcast joins, rerouted tasks).
func (in *Injector) OnFetch(c *engine.Cluster, ex *engine.Executor, shuffleID, part, attempt int) bool {
	if !in.fetchFlake {
		return false
	}
	_, ok := in.taskDraw([]Class{FetchFlake}, 2, uint64(c.CurrentJob()), uint64(shuffleID), uint64(part), uint64(ex.ID), uint64(attempt))
	if ok {
		in.count()
	}
	return ok
}

// inject performs one fault of the class, choosing the victim
// pseudo-randomly over a deterministic enumeration of the cluster state.
// Returns false when no victim exists (nothing cached, no complete
// shuffle); no victim draw is consumed in that case — see the draw-order
// contract on Injector.
func (in *Injector) inject(c *engine.Cluster, class Class) bool {
	switch class {
	case ExecutorCacheLoss:
		exs := c.LiveExecutors()
		if len(exs) == 0 {
			return false
		}
		ex := exs[in.rng.Intn(len(exs))]
		c.InjectExecutorCacheLoss(ex)
		return true
	case BlockLoss:
		type cand struct {
			ex *engine.Executor
			id storage.BlockID
		}
		var cands []cand
		for _, ex := range c.LiveExecutors() {
			for _, m := range ex.Mem.Blocks() {
				cands = append(cands, cand{ex, m.ID})
			}
			for _, id := range ex.Disk.Blocks() {
				if !ex.Mem.Contains(id) {
					cands = append(cands, cand{ex, id})
				}
			}
		}
		if len(cands) == 0 {
			return false
		}
		pick := cands[in.rng.Intn(len(cands))]
		return c.InjectBlockLoss(pick.ex, pick.id)
	case ShuffleLoss:
		ids := c.CompletedShuffles()
		if len(ids) == 0 {
			return false
		}
		return c.InjectShuffleLoss(ids[in.rng.Intn(len(ids))])
	case ExecutorDeath:
		exs := c.LiveExecutors()
		if len(exs) <= 1 {
			return false // never kill the last executor
		}
		return c.InjectExecutorDeath(exs[in.rng.Intn(len(exs))])
	case BucketLoss:
		type bcand struct {
			shuffle, mapPart, bucket int
		}
		var cands []bcand
		for _, sid := range c.CompletedShuffles() {
			for _, ref := range c.CompleteBucketRefs(sid) {
				cands = append(cands, bcand{sid, ref.MapPart, ref.Bucket})
			}
		}
		if len(cands) == 0 {
			return false
		}
		pick := cands[in.rng.Intn(len(cands))]
		return c.InjectBucketLoss(pick.shuffle, pick.mapPart, pick.bucket)
	default:
		return false
	}
}
