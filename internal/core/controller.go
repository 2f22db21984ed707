package core

import (
	"sort"
	"time"

	"blaze/internal/dataflow"
	"blaze/internal/engine"
	"blaze/internal/storage"
)

// Features selects which Blaze components are active, enabling the
// paper's ablations (§7.3): +AutoCache alone, +CostAware on top, and the
// full ILP-driven unified decision layer.
type Features struct {
	// CostAware selects eviction victims by potential recovery cost
	// instead of LRU.
	CostAware bool
	// ILP enables the optimal-partition-state solver, cost-compared
	// admission, and the per-victim recompute-vs-disk state choice.
	ILP bool
	// DiskEnabled permits the d state; Blaze (MEM) in §7.4 disables it.
	DiskEnabled bool
}

// Controller is Blaze's unified decision layer (§5.6): it automatically
// caches partitions with future references, automatically unpersists
// partitions without them after each stage, selects eviction victims and
// their states by potential recovery cost, and periodically solves the
// ILP for the optimal partition states of the upcoming jobs.
type Controller struct {
	name string
	feat Features

	c   *engine.Cluster
	lin *CostLineage

	// est is the driver-context estimator, used by the ILP solver and by
	// any decision made outside a task (job and stage boundaries). perEst
	// holds one estimator per executor for task-path decisions, and
	// victims the eviction order each maintains: sharing one memo across
	// concurrently admitting executors would race. Each instance reads
	// only lineage observations and block states homed on its executor
	// (the engine's parallel-eligibility gate guarantees this), so the
	// per-executor estimates equal the sequential shared-instance ones.
	est     *Estimator
	perEst  []*Estimator
	victims []*victimIndex

	// epoch counts the driver-side changes to what a cost estimate reads
	// outside its partition column — lineage structure and reference
	// offsets (job start, skeleton, restore), the current job, retirement
	// — and cursor the stage-cursor moves. Together with the cluster's
	// DriverEpoch they decide how long estimates and the victim order
	// stay valid (Estimator, victims.go). Written in driver context only.
	epoch  uint64
	cursor uint64

	// profiled records whether a dependency-extraction skeleton seeded
	// the lineage (§7.5 compares with and without).
	profiled bool

	// Current-job reference bookkeeping (exact within the job).
	curJob      int
	curStageIdx int
	stageRefs   map[int][]int // dataset id -> stage indices referencing it

	// targetState holds the ILP's desired placements for existing
	// blocks, consulted when deciding disk-read promotions.
	targetState map[storage.BlockID]engine.Placement

	// ilpDiskCapacity, when positive, adds the optional per-executor
	// disk capacity constraint of Eq. 6 and solves the full ILP by
	// branch and bound instead of the knapsack fast path.
	ilpDiskCapacity int64

	// ilpWindow is the number of successor jobs the ILP objective looks
	// at (§5.5 uses 1 — "the current job and its successive job" — to
	// keep the solve under its latency budget).
	ilpWindow int

	// arbiter, when set, is offered every job-start ILP trigger so a
	// multi-tenant server can re-run the optimization across the union
	// of all admitted sessions' candidates (see GlobalArbiter).
	arbiter JobArbiter

	// Windowed-lineage state for micro-batch streaming (window.go).
	// curWindow is the open 1-based window (0 on one-shot runs),
	// winFirstJob the index of its first job. Nodes whose lifetime has
	// passed carry Node.retired (excluded from candidates and liveness).
	curWindow   int
	winFirstJob int
}

// JobArbiter intercepts a controller's job-start ILP trigger.
// ArbitrateJobStart either performs a (typically cluster-wide) solve
// covering the triggering controller and returns true, or returns false
// to let the controller run its session-local solve.
type JobArbiter interface {
	ArbitrateJobStart(trigger *Controller) bool
}

// New creates a Blaze controller with explicit features (used by the
// ablations). Pass a profiled skeleton via WithSkeleton, or leave the
// lineage to build on the run.
func New(name string, feat Features) *Controller {
	lin := NewCostLineage()
	lin.SetExtrapolate(true) // on-the-run mode until a skeleton is applied
	return &Controller{
		name:        name,
		feat:        feat,
		lin:         lin,
		targetState: make(map[storage.BlockID]engine.Placement),
		ilpWindow:   1,
	}
}

// NewBlaze returns the full system: auto-caching, cost-aware decisions,
// and the ILP solver over memory and disk states.
func NewBlaze() *Controller {
	return New("blaze", Features{CostAware: true, ILP: true, DiskEnabled: true})
}

// NewBlazeMemOnly returns Blaze without disk support (§7.4): potential
// disk costs are excluded and evictions always unpersist.
func NewBlazeMemOnly() *Controller {
	return New("blaze-mem", Features{CostAware: true, ILP: true, DiskEnabled: false})
}

// NewAutoCache returns the +AutoCache ablation (§7.3): automatic caching
// and unpersisting on MEM+DISK Spark, with LRU eviction and no cost
// model.
func NewAutoCache() *Controller {
	return New("autocache", Features{DiskEnabled: true})
}

// NewCostAware returns the +CostAware ablation (§7.3): auto-caching plus
// cost-aware victim selection by smallest disk access cost, but victims
// always spill and admission never compares costs.
func NewCostAware() *Controller {
	return New("costaware", Features{CostAware: true, DiskEnabled: true})
}

// WithSkeleton seeds the controller with a profiled dependency skeleton
// and returns the controller.
func (b *Controller) WithSkeleton(sk *Skeleton) *Controller {
	b.lin.ApplySkeleton(sk)
	b.lin.SetExtrapolate(false) // profiled offsets are complete
	b.profiled = true
	b.epoch++
	return b
}

// WithDiskCapacity adds the optional disk capacity constraint (Eq. 6
// extension), forcing the exact branch-and-bound ILP path.
func (b *Controller) WithDiskCapacity(bytes int64) *Controller {
	b.ilpDiskCapacity = bytes
	return b
}

// WithWindow sets how many successor jobs the ILP objective considers
// (default 1, the paper's "current job and its successive job"). Larger
// windows trade solve cost for longer-horizon placements.
func (b *Controller) WithWindow(jobs int) *Controller {
	if jobs >= 0 {
		b.ilpWindow = jobs
	}
	return b
}

// WithArbiter installs a job arbiter consulted on every job-start ILP
// trigger (nil detaches). GlobalArbiter.Register/Unregister call this;
// direct use is for tests.
func (b *Controller) WithArbiter(a JobArbiter) *Controller {
	b.arbiter = a
	return b
}

// ILPEnabled reports whether this controller runs the optimizer at all
// — only such controllers are worth registering with an arbiter.
func (b *Controller) ILPEnabled() bool { return b.feat.ILP }

// Window returns the configured ILP window in jobs (0 = current job
// only).
func (b *Controller) Window() int { return b.ilpWindow }

// Lineage exposes the cost lineage (tests and tools).
func (b *Controller) Lineage() *CostLineage { return b.lin }

// Name implements engine.Controller.
func (b *Controller) Name() string { return b.name }

// Bind implements engine.Controller. The driver estimator and the
// per-executor task-path estimators are all created here, up front:
// lazily growing perEst on the task path would race once stages run on
// parallel workers.
func (b *Controller) Bind(c *engine.Cluster) {
	b.c = c
	b.est = b.newEstimator(c)
	n := len(c.Executors())
	b.perEst = make([]*Estimator, n)
	b.victims = make([]*victimIndex, n)
	for i := 0; i < n; i++ {
		b.perEst[i] = b.newEstimator(c)
		b.victims[i] = newVictimIndex()
	}
}

func (b *Controller) newEstimator(c *engine.Cluster) *Estimator {
	e := NewEstimator(b.lin, c.Params(), b.feat.DiskEnabled, b.blockState)
	e.ShuffleOK = c.ShuffleComplete
	e.Executors = len(c.Executors())
	e.AliveAt = b.aliveAt
	e.ColumnVersion = b.columnVersion
	e.Epoch = b.epochNow
	return e
}

// estFor returns the executor's task-path estimator (the driver
// estimator when no executor is in scope).
func (b *Controller) estFor(ex *engine.Executor) *Estimator {
	if ex != nil && ex.ID < len(b.perEst) {
		return b.perEst[ex.ID]
	}
	return b.est
}

// ParallelCaps implements engine.ParallelCapable. The Blaze controller
// keeps its shared state parallel-safe (per-executor estimators and
// access maps, a locked CostLineage for task-path metric observation),
// but its estimator walks lineage across shuffle edges, so the engine
// must additionally reject stages where a shuffle edge with differing
// partition counts is reachable (RemoteReads). Evictions may
// drop blocks without a disk copy, so memory residency is not stable
// mid-stage (SpillOnlyEvictions false).
func (b *Controller) ParallelCaps() engine.ParallelCaps {
	return engine.ParallelCaps{Safe: true, RemoteReads: true}
}

// aliveAt reports whether a node's partitions will still be retained at
// the given job: auto-unpersist reclaims them after their last reference.
func (b *Controller) aliveAt(n *Node, job int) bool {
	if n == nil || n.retired {
		return false
	}
	return b.lin.LastRefJob(n) >= job
}

// horizonFor returns the job index at which a dataset's next recovery
// would happen: the current job while references remain in it, otherwise
// the next referencing job.
func (b *Controller) horizonFor(n *Node, datasetID int) int {
	for _, idx := range b.stageRefs[datasetID] {
		if idx >= b.curStageIdx {
			return b.curJob
		}
	}
	if n != nil {
		if j, ok := b.lin.NextRefJob(n, b.curJob); ok {
			return j
		}
	}
	return b.curJob + 1
}

// horizonForAdmission is horizonFor for a partition being produced right
// now: its producing stage's own reference does not count, so the horizon
// is its next real use.
func (b *Controller) horizonForAdmission(n *Node, datasetID int) int {
	for _, idx := range b.stageRefs[datasetID] {
		if idx > b.curStageIdx {
			return b.curJob
		}
	}
	if n != nil {
		if j, ok := b.lin.NextRefJob(n, b.curJob); ok {
			return j
		}
	}
	return b.curJob + 1
}

func (b *Controller) blockState(datasetID, part int) BlockState {
	ex := b.c.ExecutorFor(part)
	id := storage.BlockID{Dataset: datasetID, Partition: part}
	return BlockState{InMemory: ex.Mem.Contains(id), OnDisk: ex.Disk.Contains(id)}
}

// OnJobStart registers the job on the CostLineage, rebuilds the exact
// within-job reference index, and triggers the ILP for the upcoming
// window (§5.6: the solver runs on job submission so results are ready
// before partitions are needed).
func (b *Controller) OnJobStart(j *engine.Job) {
	b.curJob = j.ID
	b.curStageIdx = 0
	b.epoch++

	// Register the full lineage of the target (not the cache-truncated
	// stage pipelines) so ancestor edges are always known.
	members := append(j.Target.Ancestors(), j.Target)
	sort.Slice(members, func(x, y int) bool { return members[x].ID() < members[y].ID() })
	b.lin.ObserveJob(j.ID, members, j.Target)

	b.stageRefs = make(map[int][]int)
	for _, st := range j.Stages {
		for _, d := range st.Pipeline {
			b.stageRefs[d.ID()] = append(b.stageRefs[d.ID()], st.Index)
		}
	}

	if b.feat.ILP {
		// A registered arbiter may supersede the session-local solve with
		// a cluster-wide one over every admitted session's candidates; it
		// declines (returns false) when it has nothing to add — e.g. a
		// single registered session — and the local solve runs as before.
		if b.arbiter == nil || !b.arbiter.ArbitrateJobStart(b) {
			b.replan(b.jobStartPass())
		}
	}
}

// OnJobEnd implements engine.Controller.
func (b *Controller) OnJobEnd(j *engine.Job) {}

// OnStageEnd advances the stage cursor and auto-unpersists partitions
// with no remaining references, freeing memory immediately after each
// stage (§5.6, like Nectar).
func (b *Controller) OnStageEnd(st *engine.Stage, idle []time.Duration) {
	if st.Job != nil {
		b.curStageIdx = st.Index + 1
	}
	b.cursor++
	for _, v := range b.victims {
		clear(v.accessed)
	}
	// In windowed (micro-batch streaming) mode, reference-count
	// reclamation defers to lifetime retirement at window boundaries: a
	// carried dataset's references from the NEXT window are invisible
	// here (that window's DAG has not been submitted yet), so dropping
	// at futureRefs==0 would destroy exactly the carried state streaming
	// reuses. Dead blocks instead persist until retireDeadLineage ages
	// them out by last-consumer window.
	if b.curWindow >= 1 {
		return
	}
	for _, ex := range b.c.Executors() {
		for _, meta := range ex.Mem.Blocks() {
			if b.futureRefs(meta.ID.Dataset) == 0 {
				b.c.DropBlock(ex, meta.ID)
			}
		}
		for _, id := range ex.Disk.Blocks() {
			if b.futureRefs(id.Dataset) == 0 {
				b.c.DropBlock(ex, id)
			}
		}
	}
}

// refsAfter counts the dataset's anticipated references at stages with
// index >= fromStage of the current job, plus the role-induced references
// in future jobs.
func (b *Controller) refsAfter(datasetID, fromStage int) int {
	refs := 0
	for _, idx := range b.stageRefs[datasetID] {
		if idx >= fromStage {
			refs++
		}
	}
	if n := b.lin.Node(datasetID); n != nil {
		refs += b.lin.FutureJobRefs(n, b.curJob)
	}
	return refs
}

// futureRefs counts references from the current stage onward — used to
// protect resident blocks that remaining work may still read.
func (b *Controller) futureRefs(datasetID int) int {
	return b.refsAfter(datasetID, b.curStageIdx)
}

// strictFutureRefs counts references strictly after the current stage —
// used at admission time, where the producing stage's own reference must
// not count as future reuse (otherwise every shuffle intermediate would
// look cache-worthy while it is being computed).
func (b *Controller) strictFutureRefs(datasetID int) int {
	return b.refsAfter(datasetID, b.curStageIdx+1)
}

// refsInWindow counts references to the node within the ILP window (the
// current job and its successor, §5.5).
func (b *Controller) refsInWindow(n *Node) int {
	refs := 0
	if n.DatasetID >= 0 {
		for _, idx := range b.stageRefs[n.DatasetID] {
			if idx >= b.curStageIdx {
				refs++
			}
		}
	}
	for _, off := range n.refs.eff {
		j := n.CreationJob + off
		if j > b.curJob && j <= b.curJob+b.ilpWindow {
			refs++
		}
	}
	return refs
}

// PlaceComputed implements the automatic caching decision (§4.1): cache
// only partitions with future references, and with ILP enabled, cache in
// memory only when the partition's potential recovery cost beats the
// residents it would displace.
func (b *Controller) PlaceComputed(ex *engine.Executor, ds *dataflow.Dataset, part int, size int64) (engine.Placement, engine.Placement) {
	f := b.factsFor(b.victims[ex.ID], ds.ID())
	if !f.reused {
		return engine.PlaceNone, engine.PlaceNone
	}
	if !b.feat.ILP {
		// Ablations always cache (to memory, spilling on pressure).
		if b.feat.DiskEnabled {
			return engine.PlaceMemory, engine.PlaceDisk
		}
		return engine.PlaceMemory, engine.PlaceNone
	}
	// Full Blaze without an ILP verdict for this partition: compare the
	// new partition's cost against the cheapest residents it would evict.
	est := b.estFor(ex)
	est.Reset()
	if size <= ex.Mem.Free() {
		return engine.PlaceMemory, b.offMemoryPlacement(est, f, part)
	}
	newCost := est.RecoveryCostAt(f.node, part, f.admitHorizon)
	var victimCost time.Duration
	var freed int64
	for _, meta := range b.victimOrder(ex) {
		if freed >= size-ex.Mem.Free() {
			break
		}
		victimCost += time.Duration(meta.Cost * float64(time.Second))
		freed += meta.Size
	}
	if freed >= size-ex.Mem.Free() && victimCost < newCost {
		return engine.PlaceMemory, b.offMemoryPlacement(est, f, part)
	}
	return b.offMemoryPlacement(est, f, part), engine.PlaceNone
}

// diskBudgetAllows enforces the optional per-executor disk capacity
// (Eq. 6 extension) on spill decisions.
func (b *Controller) diskBudgetAllows(ex *engine.Executor, size int64) bool {
	if b.ilpDiskCapacity <= 0 {
		return true
	}
	return ex.Disk.CurrentBytes()+size <= b.ilpDiskCapacity
}

// offMemoryPlacement chooses the partition's state when it cannot or
// should not stay in memory: disk when the disk cost is the smaller
// potential recovery cost, otherwise unpersisted (§4.2).
func (b *Controller) offMemoryPlacement(est *Estimator, f datasetFacts, part int) engine.Placement {
	if !b.feat.DiskEnabled {
		return engine.PlaceNone
	}
	if !b.feat.ILP {
		return engine.PlaceDisk
	}
	n := f.node
	if n == nil || !est.PreferDiskAt(n, part, f.admitHorizon) {
		return engine.PlaceNone
	}
	if size, ok := b.lin.PartitionSize(n, part); ok {
		if !b.diskBudgetAllows(b.c.ExecutorFor(part), size) {
			return engine.PlaceNone
		}
	}
	return engine.PlaceDisk
}

// SelectVictims implements cost-aware eviction with per-victim state
// choice: full Blaze spills a victim only when its disk cost is below its
// recomputation cost; the ablations always spill (DiskEnabled) or always
// drop.
func (b *Controller) SelectVictims(ex *engine.Executor, need int64) []engine.Victim {
	ordered := b.victimOrder(ex)
	est := b.estFor(ex)
	var out []engine.Victim
	var freed int64
	for _, m := range ordered {
		if freed >= need {
			break
		}
		toDisk := b.feat.DiskEnabled
		if b.feat.ILP && toDisk {
			f := b.factsFor(b.victims[ex.ID], m.ID.Dataset)
			if f.node == nil && b.c.SharedPool() {
				// Another session's block: its owner can still recover it
				// from disk, so a valuable foreign victim spills rather
				// than vanishing.
				toDisk = m.Cost > 0 && b.diskBudgetAllows(ex, m.Size)
			} else {
				toDisk = f.node != nil && m.Cost > 0 && f.live &&
					est.PreferDiskAt(f.node, m.ID.Partition, f.horizon) &&
					b.diskBudgetAllows(ex, m.Size)
			}
		}
		out = append(out, engine.Victim{ID: m.ID, ToDisk: toDisk})
		freed += m.Size
	}
	return out
}

// PromoteOnDiskRead honors the ILP's assigned state when one exists;
// otherwise promotes partitions that still have future references.
func (b *Controller) PromoteOnDiskRead(ex *engine.Executor, id storage.BlockID) bool {
	if tgt, ok := b.targetState[id]; ok && b.feat.ILP {
		return tgt == engine.PlaceMemory
	}
	return b.futureRefs(id.Dataset) > 0
}

// OnBlockAccess records per-partition consumption for liveness tracking
// on the accessing executor's own index (blocks are only read on their
// home executor, so no other worker touches the same index).
func (b *Controller) OnBlockAccess(ex *engine.Executor, id storage.BlockID) {
	b.victims[ex.ID].markAccessed(id)
}

// OnBlockAdmitted implements engine.Controller.
func (b *Controller) OnBlockAdmitted(ex *engine.Executor, id storage.BlockID) {}

// OnBlockRemoved implements engine.Controller.
func (b *Controller) OnBlockRemoved(ex *engine.Executor, id storage.BlockID) {}

// OnComputed feeds observed partition metrics into the CostLineage
// (Fig. 7 step 5-6).
func (b *Controller) OnComputed(ex *engine.Executor, ds *dataflow.Dataset, part int, size int64, cost time.Duration) {
	if b.lin.Node(ds.ID()) == nil {
		b.lin.RegisterDataset(ds, b.curJob)
		b.epoch++
	}
	b.lin.ObservePartition(ds.ID(), part, size, cost)
}
