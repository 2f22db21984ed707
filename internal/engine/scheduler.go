package engine

import (
	"sort"
	"time"

	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/eventlog"
	"blaze/internal/storage"
)

// Job is one action-triggered execution: a DAG of stages ending in a
// result stage. In iterative workloads each iteration submits one job
// (§2.1).
type Job struct {
	ID     int
	Target *dataflow.Dataset
	// Stages is in topological order; the result stage is last.
	Stages []*Stage
	// Datasets lists every dataset reachable in this job's stage
	// pipelines, sorted by id. Dependency-aware policies (LRC, MRD) and
	// Blaze derive reference information from it.
	Datasets []*dataflow.Dataset
	// count marks a "count" action: the result stage reports partition
	// lengths (dataflow.Counted) instead of boxing rows for the driver.
	count bool
}

// Stage is a pipelined set of operators executed as parallel tasks, cut
// at shuffle boundaries.
type Stage struct {
	ID    int
	Index int
	Job   *Job
	// Boundary is the dataset whose partitions the stage's tasks
	// materialize: the shuffle-map input for map stages, the action
	// target for the result stage.
	Boundary *dataflow.Dataset
	// IsResult marks the final stage of a job.
	IsResult bool
	// ShuffleDep is the shuffle this map stage produces (valid when
	// !IsResult); NumBuckets is the reduce-side partition count.
	ShuffleDep dataflow.Dependency
	NumBuckets int
	// Pipeline lists the datasets computed within this stage: the
	// boundary and its narrow-dependency closure, truncated at cached
	// data. Task execution touches (hits or recomputes) these datasets.
	Pipeline []*dataflow.Dataset
	// Parents are the stages producing this stage's shuffle inputs.
	Parents []*Stage
	// Skipped records that the stage's shuffle outputs already existed.
	Skipped bool
	// Regenerated marks stages re-run mid-job to recover cleaned shuffle
	// data (Spark's stage resubmission on missing shuffle files).
	Regenerated bool
}

// shuffleRef pairs a shuffle dependency with the dataset that owns it,
// which determines the reduce-side bucket count.
type shuffleRef struct {
	dep   dataflow.Dependency
	owner *dataflow.Dataset
}

// allPartitionsAvailable reports whether every partition of the dataset
// is cached (memory or disk) on its home executor. Mirrors Spark's
// cache-location check that truncates lineage walks at cached RDDs.
func (c *Cluster) allPartitionsAvailable(d *dataflow.Dataset) bool {
	for p := 0; p < d.Partitions(); p++ {
		ex := c.ExecutorFor(p)
		id := storage.BlockID{Dataset: d.ID(), Partition: p}
		if !ex.Mem.Contains(id) && !ex.Disk.Contains(id) {
			return false
		}
	}
	return true
}

// narrowClosure walks narrow dependencies from the boundary, collecting
// the stage pipeline and the shuffle dependencies feeding it. The walk
// does not descend below datasets whose partitions are all cached.
func (c *Cluster) narrowClosure(boundary *dataflow.Dataset) (pipeline []*dataflow.Dataset, shuffles []shuffleRef) {
	seen := map[int]bool{}
	var walk func(d *dataflow.Dataset)
	walk = func(d *dataflow.Dataset) {
		if seen[d.ID()] {
			return
		}
		seen[d.ID()] = true
		pipeline = append(pipeline, d)
		if c.allPartitionsAvailable(d) {
			// Truncated: tasks will read the cached partitions. This also
			// applies to the boundary itself — a fully cached target needs
			// no parent stages, exactly like Spark's cache-location check
			// in getMissingParentStages.
			return
		}
		for _, dep := range d.Deps() {
			if dep.Shuffle {
				shuffles = append(shuffles, shuffleRef{dep: dep, owner: d})
			} else {
				walk(dep.Parent)
			}
		}
	}
	walk(boundary)
	return pipeline, shuffles
}

// buildJob constructs the stage DAG for an action on target.
func (c *Cluster) buildJob(target *dataflow.Dataset) *Job {
	job := &Job{ID: c.jobSeq, Target: target}
	stageByShuffle := map[int]*Stage{}
	dsSeen := map[int]*dataflow.Dataset{}

	var build func(boundary *dataflow.Dataset, isResult bool, dep dataflow.Dependency, buckets int) *Stage
	build = func(boundary *dataflow.Dataset, isResult bool, dep dataflow.Dependency, buckets int) *Stage {
		st := &Stage{
			Job:        job,
			Boundary:   boundary,
			IsResult:   isResult,
			ShuffleDep: dep,
			NumBuckets: buckets,
		}
		pipeline, shuffles := c.narrowClosure(boundary)
		st.Pipeline = pipeline
		for _, d := range pipeline {
			dsSeen[d.ID()] = d
		}
		for _, sr := range shuffles {
			if ps, ok := stageByShuffle[sr.dep.ShuffleID]; ok {
				st.Parents = append(st.Parents, ps)
				continue
			}
			// Parent stages whose shuffle outputs already exist are
			// still represented (for reference analysis) but will be
			// skipped at execution time.
			ps := build(sr.dep.Parent, false, sr.dep, sr.owner.Partitions())
			stageByShuffle[sr.dep.ShuffleID] = ps
			st.Parents = append(st.Parents, ps)
		}
		st.Index = len(job.Stages)
		st.ID = c.stageSeq
		c.stageSeq++
		job.Stages = append(job.Stages, st)
		return st
	}
	build(target, true, dataflow.Dependency{}, 0)

	job.Datasets = make([]*dataflow.Dataset, 0, len(dsSeen))
	for _, d := range dsSeen {
		job.Datasets = append(job.Datasets, d)
	}
	sort.Slice(job.Datasets, func(i, j int) bool { return job.Datasets[i].ID() < job.Datasets[j].ID() })
	return job
}

// RunJob implements dataflow.JobRunner: build the stage DAG, run stages
// in topological order with barriers, and return the result partitions —
// for a "count", Counted slices of their lengths.
func (c *Cluster) RunJob(target *dataflow.Dataset, action string) [][]dataflow.Record {
	if c.replay {
		// Resumed-driver fast-forward: the job's effects are already in
		// the checkpoint being replayed toward. Empty (not nil) partition
		// results — a count of zero — keep replay-safe drivers iterating
		// without executing.
		return make([][]dataflow.Record, target.Partitions())
	}
	c.beginJob()
	defer c.endJob()
	job := c.buildJob(target)
	job.count = action == "count"
	c.jobSeq++
	c.curJob = job.ID
	c.met.Jobs++
	c.emit(eventlog.Event{Kind: eventlog.JobStart, Time: c.Now(), Job: job.ID})
	c.ctl.OnJobStart(job)
	if c.cfg.Hook != nil {
		c.cfg.Hook.OnJobStart(c, job)
	}

	var results [][]dataflow.Record
	for _, st := range job.Stages {
		if st.IsResult {
			results = c.runStage(st)
		} else {
			c.runStage(st)
		}
	}
	c.ctl.OnJobEnd(job)
	if c.cfg.Hook != nil {
		c.cfg.Hook.OnJobEnd(c, job)
	}
	if fns := c.atJobEnd; fns != nil {
		c.atJobEnd = nil
		for _, fn := range fns {
			fn()
		}
	}
	c.emit(eventlog.Event{Kind: eventlog.JobEnd, Time: c.Now(), Job: job.ID})
	return results
}

// beginJob takes pool exclusivity for one job: through the server's gate
// when one is installed (which may park the session until fair-share
// admission picks it), else the pool's own lock. Nested stage
// regenerations go through runStage, not RunJob, so the job-level
// bracket is never re-entered.
func (c *Cluster) beginJob() {
	if c.gate != nil {
		c.gate.AcquireJob(c)
	} else {
		c.pool.Acquire()
	}
	c.inJob = true
}

// endJob releases pool exclusivity after a job. A gate that rejects
// admission by panicking out of AcquireJob (session cancellation) must
// leave the pool unlocked itself: the panic propagates before inJob is
// set, so this deferred release is a no-op then.
func (c *Cluster) endJob() {
	if !c.inJob {
		return
	}
	c.inJob = false
	if c.gate != nil {
		c.gate.ReleaseJob(c)
	} else {
		c.pool.Release()
	}
}

// runStage executes one stage's tasks on their home executors and
// applies the stage barrier. For result stages it returns the computed
// partitions.
func (c *Cluster) runStage(st *Stage) [][]dataflow.Record {
	// taskParts is the partition set this stage execution runs: every
	// boundary partition for result stages; for map stages, exactly the
	// map partitions whose shuffle outputs are missing. On a fresh
	// shuffle that is all of them, but after a partial fault (bucket
	// loss, executor death) only the invalidated producers re-run —
	// Spark's fine-grained resubmission, versus regenerating the whole
	// stage for a cleaned shuffle.
	var taskParts []int
	if st.IsResult {
		taskParts = make([]int, st.Boundary.Partitions())
		for p := range taskParts {
			taskParts[p] = p
		}
	} else {
		sid := st.ShuffleDep.ShuffleID
		if c.shuffle.Complete(sid) {
			st.Skipped = true
			c.met.SkippedStages++
			return nil
		}
		c.shuffle.Ensure(sid, st.NumBuckets, st.Boundary.Partitions())
		taskParts = c.shuffle.MissingMaps(sid)
	}
	// A stage recreating a shuffle an injected fault destroyed is
	// recovery work, whether it runs nested (regeneration mid-task) or as
	// a top-level stage the next job resubmitted; the core time the whole
	// stage consumes is the recovery cost. Partial losses are attributed
	// the same way, priced over just the re-run map tasks.
	faultRecovery := !st.IsResult && c.faultLostShuffles[st.ShuffleDep.ShuffleID]
	var partialClasses map[int]string
	if !st.IsResult && !faultRecovery {
		partialClasses = c.faultLostMaps[st.ShuffleDep.ShuffleID]
	}
	var recoveryStart time.Duration
	if faultRecovery || len(partialClasses) > 0 {
		recoveryStart = c.coreTimeSum()
	}

	var results [][]dataflow.Record
	if st.IsResult {
		results = make([][]dataflow.Record, st.Boundary.Partitions())
	}
	c.emit(eventlog.Event{Kind: eventlog.StageStart, Time: c.Now(), Job: c.curJob,
		Stage: st.ID, Dataset: st.Boundary.ID(), Regen: st.Regenerated})
	if perExec, order := c.parallelPlan(st, taskParts); perExec != nil {
		c.runStageParallel(st, taskParts, perExec, order, results)
	} else {
		for _, p := range taskParts {
			ex := c.taskExecutor(p)
			ex.PickCore() // least-loaded core runs the task
			out := c.runTask(ex, st, p)
			if st.IsResult {
				results[p] = out
			}
		}
	}
	if !st.IsResult {
		c.shuffle.MarkComplete(st.ShuffleDep.ShuffleID)
	}
	if faultRecovery {
		delete(c.faultLostShuffles, st.ShuffleDep.ShuffleID)
		cost := c.coreTimeSum() - recoveryStart
		c.met.AddFaultRecovery(c.curJob, cost)
		c.met.AddFaultRecoveryClass("shuffle", cost)
		c.emit(eventlog.Event{Kind: eventlog.Recovered, Time: c.Now(), Job: c.curJob,
			Stage: st.ID, Dataset: st.Boundary.ID(), Shuffle: st.ShuffleDep.ShuffleID, Cost: cost})
	} else if len(partialClasses) > 0 {
		c.attributePartialRecovery(st, partialClasses, c.coreTimeSum()-recoveryStart)
	}
	c.met.RanStages++
	c.emit(eventlog.Event{Kind: eventlog.StageEnd, Time: c.Now(), Job: c.curJob,
		Stage: st.ID, Dataset: st.Boundary.ID(), Regen: st.Regenerated})

	if st.Regenerated {
		// A regenerated stage executes in the middle of an outer task
		// (a reduce task found its shuffle inputs cleaned). The global
		// barrier applies only to top-level stages: synchronizing every
		// executor to the global max here would inflate clocks mid-task
		// and corrupt the idle budgets of the enclosing stage. The
		// controller is still told the stage ended — with no barrier
		// there is no idle slack to hand out.
		c.ctl.OnStageEnd(st, make([]time.Duration, len(c.execs)))
		return results
	}

	// Stage barrier: executors synchronize; the slack each executor had
	// is reported to the controller as prefetch budget (MRD hides
	// prefetch I/O in this idle time). Dead executors stay frozen and
	// report zero slack, so prefetchers never schedule work onto them.
	end := c.Now()
	idle := make([]time.Duration, len(c.execs))
	for i, ex := range c.execs {
		if ex.dead {
			continue
		}
		idle[i] = end - ex.MaxClock()
		ex.SyncTo(end)
	}
	c.updateBlacklist(st)
	c.ctl.OnStageEnd(st, idle)
	if c.cfg.Hook != nil {
		c.cfg.Hook.OnStageEnd(c, st)
	}
	return results
}

// attributePartialRecovery charges the core time a map stage spent
// re-running fault-invalidated map outputs. The stage may mix fault
// classes (a bucket loss and an executor death can invalidate outputs of
// the same shuffle), so the measured cost is split across classes
// proportionally to their invalidated-map counts, with the remainder on
// the last class so the per-class total matches the per-job total.
func (c *Cluster) attributePartialRecovery(st *Stage, classes map[int]string, cost time.Duration) {
	sid := st.ShuffleDep.ShuffleID
	perClass := map[string]int{}
	total := 0
	for _, class := range classes {
		perClass[class]++
		total++
	}
	names := make([]string, 0, len(perClass))
	for class := range perClass {
		names = append(names, class)
	}
	sort.Strings(names)
	c.met.AddFaultRecovery(c.curJob, cost)
	remaining := cost
	for i, class := range names {
		share := remaining
		if i < len(names)-1 {
			share = cost * time.Duration(perClass[class]) / time.Duration(total)
		}
		c.met.AddFaultRecoveryClass(class, share)
		remaining -= share
	}
	delete(c.faultLostMaps, sid)
	c.emit(eventlog.Event{Kind: eventlog.Recovered, Time: c.Now(), Job: c.curJob,
		Stage: st.ID, Dataset: st.Boundary.ID(), Shuffle: sid, Cost: cost, Count: total})
}

// taskExecutor returns the executor that will run the task for partition
// p: the partition's home executor unless it is currently blacklisted, in
// which case the task is deterministically rerouted over the live,
// non-blacklisted executors (by partition index, so the same partition
// lands on the same substitute in every run). If every live executor is
// blacklisted, the home executor runs the task anyway rather than
// starving the stage.
func (c *Cluster) taskExecutor(p int) *Executor {
	ex := c.ExecutorFor(p)
	if !ex.blacklisted {
		return ex
	}
	var eligible []*Executor
	for _, e := range c.execs {
		if !e.dead && !e.blacklisted {
			eligible = append(eligible, e)
		}
	}
	if len(eligible) == 0 {
		return ex
	}
	return eligible[p%len(eligible)]
}

// updateBlacklist runs at each top-level stage barrier (driver context):
// executors whose accumulated retryable failures crossed
// Resilience.BlacklistAfter are blacklisted for BlacklistCooldown
// top-level stages; already blacklisted executors count their cooldown
// down and are reinstated when it expires. Blacklisted != dead: the
// cache survives and the clocks keep participating in barriers.
func (c *Cluster) updateBlacklist(st *Stage) {
	if c.res.BlacklistAfter <= 0 {
		return
	}
	for _, ex := range c.execs {
		if ex.dead {
			continue
		}
		if ex.blacklisted {
			ex.cooldown--
			if ex.cooldown <= 0 {
				ex.blacklisted = false
				ex.flakes = 0
				c.emit(eventlog.Event{Kind: eventlog.ExecutorReinstated, Time: c.Now(), Job: c.curJob,
					Stage: st.ID, Executor: ex.ID})
			}
			continue
		}
		if ex.flakes >= c.res.BlacklistAfter {
			ex.blacklisted = true
			ex.cooldown = c.res.BlacklistCooldown
			ex.flakes = 0
			c.met.IncBlacklisted()
			c.emit(eventlog.Event{Kind: eventlog.ExecutorBlacklisted, Time: c.Now(), Job: c.curJob,
				Stage: st.ID, Executor: ex.ID, Count: c.res.BlacklistCooldown})
		}
	}
}

// runTask executes the task for one partition of the stage boundary
// inside its resilience envelope: transiently failed attempts are
// retried with exponential backoff (bounded by Resilience.MaxTaskRetries;
// the final attempt always runs for real, so tasks terminate and retries
// never exceed the budget by construction), and an execution inside a
// straggler window is inflated — and possibly raced against a
// speculative copy — after the real work is measured.
func (c *Cluster) runTask(ex *Executor, st *Stage, part int) []dataflow.Record {
	if c.taskHook != nil {
		for attempt := 1; ; attempt++ {
			if !c.taskHook.OnTaskStart(c, ex, st, part, attempt) || attempt > c.res.MaxTaskRetries {
				break
			}
			c.failTaskAttempt(ex, st, part, attempt)
		}
	}
	start := ex.Clock().Now()
	recs := c.runTaskBody(ex, st, part)
	c.applyStraggler(ex, st, part, start)
	if c.taskHook != nil {
		c.taskHook.OnTaskEnd(c, ex, st, part)
	}
	return recs
}

// failTaskAttempt charges one transiently failed task attempt: the
// wasted launch overhead plus a deterministic exponential backoff before
// the retry, both on the executor's own core clock — executor-local, so
// flaky attempts stay bit-identical under parallel stage execution.
func (c *Cluster) failTaskAttempt(ex *Executor, st *Stage, part, attempt int) {
	backoff := c.res.RetryBackoff << (attempt - 1)
	cost := c.cfg.Params.TaskOverhead + backoff
	ex.Clock().Advance(cost)
	ex.flakes++
	c.met.IncFaultInjected()
	c.met.AddTaskRetry(cost)
	c.met.AddFaultRecovery(c.curJob, cost)
	c.met.AddFaultRecoveryClass("task-flake", cost)
	c.emitEx(ex, eventlog.Event{Kind: eventlog.TaskRetry, Time: ex.Clock().Now(), Job: c.curJob,
		Stage: st.ID, Executor: ex.ID, Dataset: st.Boundary.ID(), Partition: part,
		Attempt: attempt, Cost: cost})
}

// applyStraggler inflates the just-finished execution if the executor is
// inside a straggler window and, when speculation is enabled, races a
// copy of the task on the fastest eligible executor. The task's own
// unslowed duration stands in for the stage's median task time (a
// stage's tasks are homogeneous partitions of one boundary), so the copy
// launches at the virtual instant the task exceeds SpeculativeMultiple
// times its intrinsic cost; the first finisher wins and the loser is
// killed at the winner's finish time, its core time accounted as
// straggler recovery waste. Without speculation the slowdown is
// executor-local and therefore parallel-safe; stages that could
// speculate are gated onto the sequential loop by parallelPlan.
func (c *Cluster) applyStraggler(ex *Executor, st *Stage, part int, start time.Duration) {
	if ex.slowTasks <= 0 {
		return
	}
	factor := ex.slowFactor
	ex.slowTasks--
	if ex.slowTasks == 0 {
		ex.slowFactor = 0
	}
	raw := ex.Clock().Now() - start
	if raw <= 0 || factor <= 1 {
		return
	}
	extra := time.Duration(float64(raw) * (factor - 1))
	slowFinish := start + raw + extra

	if mult := c.res.SpeculativeMultiple; mult > 1 && factor > mult {
		if copyEx, core := c.speculationTarget(ex); copyEx != nil {
			detect := start + time.Duration(float64(raw)*mult)
			copyStart := core.Now()
			if copyStart < detect {
				copyStart = detect
			}
			if copyStart < slowFinish {
				copyFinish := copyStart + c.cfg.Params.TaskOverhead + raw
				win := copyFinish < slowFinish
				finish := slowFinish
				if win {
					finish = copyFinish
				}
				// Both runners execute until the winner's finish: the
				// straggling primary past its intrinsic cost and the
				// copy's whole run are redundant work caused by the fault.
				wasted := finish - (start + raw)
				copyTime := finish - copyStart
				ex.Clock().Advance(wasted)
				core.AdvanceTo(finish)
				c.met.AddSpeculative(win)
				c.met.AddStragglerSlowdown(wasted)
				c.met.AddFaultRecovery(c.curJob, wasted+copyTime)
				c.met.AddFaultRecoveryClass("straggler", wasted+copyTime)
				c.emitEx(ex, eventlog.Event{Kind: eventlog.SpeculativeLaunch, Time: copyStart, Job: c.curJob,
					Stage: st.ID, Executor: copyEx.ID, Dataset: st.Boundary.ID(), Partition: part,
					Cost: copyTime, Win: win})
				return
			}
		}
	}
	ex.Clock().Advance(extra)
	c.met.AddStragglerSlowdown(extra)
	c.met.AddFaultRecovery(c.curJob, extra)
	c.met.AddFaultRecoveryClass("straggler", extra)
}

// speculationTarget picks the executor a speculative copy runs on: the
// live, non-blacklisted executor other than the straggler whose
// least-loaded core is earliest, ties by id order. Returns nil when the
// straggler is the only candidate.
func (c *Cluster) speculationTarget(ex *Executor) (*Executor, *costmodel.Clock) {
	var best *Executor
	var bestClock *costmodel.Clock
	for _, cand := range c.execs {
		if cand == ex || cand.dead || cand.blacklisted {
			continue
		}
		cl := cand.idleCore()
		if best == nil || cl.Now() < bestClock.Now() {
			best, bestClock = cand, cl
		}
	}
	return best, bestClock
}

// runTaskBody materializes one partition of the stage boundary and, for
// map stages, writes the shuffle output. The result stage returns rows
// (the driver boundary), or only their number for a count; map stages
// return nil because runStage ignores map-task results.
func (c *Cluster) runTaskBody(ex *Executor, st *Stage, part int) []dataflow.Record {
	tasksTotal.Add(1)
	ex.Clock().Advance(c.cfg.Params.TaskOverhead)
	c.met.Executors[ex.ID].Tasks++
	out := c.materialize(ex, st.Boundary, part)
	c.emitEx(ex, eventlog.Event{Kind: eventlog.TaskEnd, Time: ex.Clock().Now(), Job: c.curJob,
		Stage: st.ID, Executor: ex.ID, Dataset: st.Boundary.ID(), Partition: part})
	if st.IsResult {
		var recs []dataflow.Record
		if st.Job.count {
			recs = dataflow.Counted(out.Len())
		} else {
			recs = out.Records()
		}
		out.Release()
		return recs
	}
	written, err := c.writeMapOutput(st, part, ex.ID, out)
	if err != nil {
		panic(err) // stage was Ensure'd and only missing maps re-run
	}
	// Shuffle write cost: serialization dominates (shuffle files land in
	// the OS page cache); the device write is not charged, keeping the
	// "Computation+Shuffle" bucket from drowning the cache-recovery
	// costs the paper studies.
	cost := c.cfg.Params.Serialize(written)
	ex.Clock().Advance(cost)
	c.met.Executors[ex.ID].Breakdown.Shuffle += cost
	return nil
}

// materialize produces partition (ds, part) on the executor: memory
// hit, disk hit, or recursive recomputation from parents — the three
// recovery paths of Fig. 2. A hit returns a share of the stored batch
// (Payload.Batch), and a recomputed partition the controller places is
// adopted (or, with real bytes, encoded) by the store it lands in, which
// takes a share of its own: the batch returned is the task's either way,
// to read and release, never to modify.
func (c *Cluster) materialize(ex *Executor, ds *dataflow.Dataset, part int) *dataflow.Batch {
	id := storage.BlockID{Dataset: ds.ID(), Partition: part}
	params := c.cfg.Params
	stats := &c.met.Executors[ex.ID]

	// 1. Memory store.
	if block, meta, ok := ex.Mem.Read(id, ex.Clock().Now()); ok {
		if c.cfg.AlluxioMode {
			// The external store serves serialized bytes even from its
			// memory tier; every read pays deserialization (§7.2).
			cost := params.Serialize(meta.Size)
			ex.Clock().Advance(cost)
			stats.Breakdown.DiskIO += cost
			c.meter.AddModeled(storage.MemDecode, cost)
		}
		c.met.IncCacheHit()
		c.ctl.OnBlockAccess(ex, id)
		c.emitEx(ex, eventlog.Event{Kind: eventlog.BlockHit, Time: ex.Clock().Now(), Job: c.curJob,
			Executor: ex.ID, Dataset: id.Dataset, Partition: id.Partition, Bytes: meta.Size})
		return block.Batch()
	}

	// 2. Disk store.
	if block, size, ok := ex.Disk.Read(id); ok {
		cost := params.DiskRead(size)
		ex.Clock().Advance(cost)
		stats.Breakdown.DiskIO += cost
		c.meter.AddModeled(storage.DiskRead, cost)
		c.met.IncDiskHit()
		c.ctl.OnBlockAccess(ex, id)
		c.emitEx(ex, eventlog.Event{Kind: eventlog.BlockDiskHit, Time: ex.Clock().Now(), Job: c.curJob,
			Executor: ex.ID, Dataset: id.Dataset, Partition: id.Partition, Bytes: size, Cost: cost})
		if c.ctl.PromoteOnDiskRead(ex, id) {
			// The disk copy is retained (as Spark's DiskStore retains
			// spilled blocks until unpersist); a later re-eviction of the
			// promoted block therefore pays no second write.
			c.admitToMemory(ex, id, block, size)
		}
		return block.Batch()
	}

	// 3. Recompute from parents.
	c.mu.Lock()
	wasComputed := c.computedOnce[id]
	c.mu.Unlock()
	var buf [2]*dataflow.Batch // operators have at most two inputs; more go to the heap
	ins := buf[:0]
	totalIn := 0
	var fetchCost time.Duration
	for _, dep := range ds.Deps() {
		var in *dataflow.Batch
		if dep.Shuffle {
			var fc time.Duration
			in, fc = c.fetchShuffle(ex, dep, ds.Partitions(), part)
			fetchCost += fc
		} else {
			in = c.materialize(ex, dep.Parent, part)
		}
		ins = append(ins, in)
		totalIn += in.Len()
	}
	out := ds.BatchCompute(part, ins)
	for _, in := range ins {
		in.Release() // kernels must not retain inputs; see batch.go
	}
	n := max(totalIn, out.Len())
	size := out.EstimateSize()
	cost := params.Compute(costmodel.OpClass(ds.Class()), n)
	if len(ds.Deps()) == 0 {
		// Source partitions additionally pay the external input scan.
		cost += params.SourceRead(size)
	}
	ex.Clock().Advance(cost)
	stats.Breakdown.Compute += cost
	if wasComputed {
		stats.Breakdown.Recompute += cost
		c.met.IncMiss()
		c.met.AddRecompute(c.curJob, cost)
		c.emitEx(ex, eventlog.Event{Kind: eventlog.Recomputed, Time: ex.Clock().Now(), Job: c.curJob,
			Executor: ex.ID, Dataset: ds.ID(), Partition: part, Cost: cost})
	}
	c.mu.Lock()
	class, wasFaultLost := c.faultLost[id]
	if wasFaultLost {
		delete(c.faultLost, id)
	}
	c.computedOnce[id] = true
	c.mu.Unlock()
	if wasFaultLost {
		// The block was destroyed by an injected fault; this
		// recomputation is its recovery.
		c.met.AddFaultRecovery(c.curJob, cost)
		c.met.AddFaultRecoveryClass(class, cost)
		c.emitEx(ex, eventlog.Event{Kind: eventlog.Recovered, Time: ex.Clock().Now(), Job: c.curJob,
			Executor: ex.ID, Dataset: ds.ID(), Partition: part, Cost: cost})
	}

	// The reported production cost (cost_{k→i} on the CostLineage) is
	// incremental: this partition's computation plus its own shuffle
	// fetches, excluding recursive ancestor work (Eq. 4 sums the chain
	// itself).
	c.ctl.OnComputed(ex, ds, part, size, cost+fetchCost)

	primary, fallback := c.ctl.PlaceComputed(ex, ds, part, size)
	placed := false
	if primary == PlaceMemory {
		placed = c.admitToMemory(ex, id, storage.FreshBatch(out), size)
	}
	if !placed && (primary == PlaceDisk || (primary == PlaceMemory && fallback == PlaceDisk)) {
		c.writeToDisk(ex, id, storage.FreshBatch(out), size)
	}
	return out
}

// admitToMemory caches a block in executor memory, evicting victims as
// the controller directs. Returns false if space could not be freed.
func (c *Cluster) admitToMemory(ex *Executor, id storage.BlockID, block storage.Payload, size int64) bool {
	if ex.Mem.Contains(id) {
		// A duplicate admit must be rejected before any cost is charged:
		// Put would refuse it anyway, and charging the AlluxioMode
		// serialization below for an admission that never happens would
		// leave the clock advanced for phantom work.
		return false
	}
	if size > ex.Mem.Capacity() {
		return false
	}
	if !c.quotaReclaim(ex, id, size) {
		// Tenant quota exhausted even after evicting the tenant's own
		// coldest blocks: refuse the admission before any cost is
		// charged. The block falls through to the controller's fallback
		// placement (disk for MEM+DISK systems) like any admission
		// failure.
		c.met.IncQuotaRejection()
		c.emitEx(ex, eventlog.Event{Kind: eventlog.QuotaRejected, Time: ex.Clock().Now(), Job: c.curJob,
			Executor: ex.ID, Dataset: id.Dataset, Partition: id.Partition, Bytes: size,
			Tenant: c.quota.Owner(id)})
		return false
	}
	if !c.ensureFree(ex, size) {
		return false
	}
	if c.cfg.AlluxioMode {
		cost := c.cfg.Params.Serialize(size)
		ex.Clock().Advance(cost)
		c.met.Executors[ex.ID].Breakdown.DiskIO += cost
		c.meter.AddModeled(storage.MemEncode, cost)
	}
	if _, err := ex.Mem.Admit(id, block, size, ex.ID, ex.Clock().Now()); err != nil {
		return false
	}
	c.ctl.OnBlockAdmitted(ex, id)
	c.emitEx(ex, eventlog.Event{Kind: eventlog.BlockAdmitted, Time: ex.Clock().Now(), Job: c.curJob,
		Executor: ex.ID, Dataset: id.Dataset, Partition: id.Partition, Bytes: size})
	return true
}

// writeToDisk stores a block on disk (the d state) — freshly computed
// records, or the payload a spill took out of memory — charging the
// write. It reports false, charging nothing, when the disk already holds
// the block.
func (c *Cluster) writeToDisk(ex *Executor, id storage.BlockID, payload storage.Payload, size int64) bool {
	if ex.Disk.Contains(id) {
		return false
	}
	cost := c.cfg.Params.DiskWrite(size)
	ex.Clock().Advance(cost)
	c.met.Executors[ex.ID].Breakdown.DiskIO += cost
	c.meter.AddModeled(storage.DiskWrite, cost)
	if err := ex.Disk.Put(id, payload, size); err != nil {
		panic(err) // not a duplicate; a real-bytes file-write failure is fatal
	}
	c.noteDiskWrite(ex, size)
	return true
}

// fetchShuffle reads one reduce bucket, regenerating the parent stage
// if the shuffle outputs were cleaned. It returns the bucket and the
// direct fetch cost (excluding any regeneration, which is charged to its
// own stage's tasks, and excluding transient fetch-flake backoff, which
// must not pollute the incremental cost estimates controllers build on).
func (c *Cluster) fetchShuffle(ex *Executor, dep dataflow.Dependency, childParts, part int) (*dataflow.Batch, time.Duration) {
	if !c.shuffle.Complete(dep.ShuffleID) {
		c.regenerateShuffle(dep, childParts)
	}
	if c.taskHook != nil {
		// Transient fetch flakes: the bucket is intact, the attempt just
		// failed. Bounded like task retries; the verdict of the final
		// attempt is ignored so fetches always complete.
		for attempt := 1; ; attempt++ {
			if !c.taskHook.OnFetch(c, ex, dep.ShuffleID, part, attempt) || attempt > c.res.MaxFetchRetries {
				break
			}
			backoff := c.res.RetryBackoff << (attempt - 1)
			ex.Clock().Advance(backoff)
			ex.flakes++
			c.met.IncFaultInjected()
			c.met.AddFetchRetry(backoff)
			c.met.AddFaultRecovery(c.curJob, backoff)
			c.met.AddFaultRecoveryClass("fetch-flake", backoff)
			c.emitEx(ex, eventlog.Event{Kind: eventlog.FetchRetry, Time: ex.Clock().Now(), Job: c.curJob,
				Executor: ex.ID, Shuffle: dep.ShuffleID, Partition: part, Attempt: attempt, Cost: backoff})
		}
	}
	bucket, bytes, err := c.shuffle.FetchBatch(dep.ShuffleID, part)
	if err != nil {
		panic(err) // regeneration above guarantees completeness
	}
	cost := c.cfg.Params.NetTransfer(bytes) + c.cfg.Params.Serialize(bytes)
	ex.Clock().Advance(cost)
	c.met.Executors[ex.ID].Breakdown.Shuffle += cost
	return bucket, cost
}

// regenerateShuffle re-runs the map stage for a cleaned shuffle — the
// analogue of Spark resubmitting a parent stage on missing shuffle files.
// The regenerated stage's own missing inputs regenerate recursively
// through its tasks, which is how recomputation lineages extend across
// iterations (§4.3, Fig. 5).
func (c *Cluster) regenerateShuffle(dep dataflow.Dependency, childParts int) {
	st := &Stage{
		ID:          c.stageSeq,
		Boundary:    dep.Parent,
		ShuffleDep:  dep,
		NumBuckets:  childParts,
		Regenerated: true,
	}
	c.stageSeq++

	// The regeneration happens in the middle of an outer task: the
	// nested stage's tasks pick their own cores, so the active-core
	// indices must be saved and restored, or the outer tasks' remaining
	// costs would land on whichever core the last nested task used.
	// (If the shuffle was destroyed by an injected fault, runStage
	// itself attributes the recovery cost.)
	saved := make([]int, len(c.execs))
	for i, ex := range c.execs {
		saved[i] = ex.cur
	}
	c.runStage(st)
	for i, ex := range c.execs {
		ex.cur = saved[i]
	}
}

// coreTimeSum totals every core clock of every executor — the accumulated
// virtual work measure used to price fault recoveries.
func (c *Cluster) coreTimeSum() time.Duration {
	var t time.Duration
	for _, ex := range c.execs {
		for i := range ex.cores {
			t += ex.cores[i].Now()
		}
	}
	return t
}
