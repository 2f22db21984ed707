package engine

import (
	"sync"

	"blaze/internal/dataflow"
	"blaze/internal/storage"
)

// This file implements real multi-core stage execution. A stage's tasks
// are dispatched to one worker goroutine per executor; each worker runs
// its executor's tasks in ascending-partition order — exactly the
// subsequence the sequential loop would execute on that executor — so
// every executor-local effect (clock advances, cache admissions,
// evictions, policy state) is reproduced bit-for-bit. Cross-executor
// effects are either commutative sums under leaf mutexes (metrics
// counters, shuffle bytes), structurally disjoint map entries under the
// cluster mutex (computedOnce, faultLost), or buffered per task and
// replayed in ascending task order at the stage join (event log, disk
// peak). A stage is only dispatched in parallel when parallelPlan can
// prove no task will leave its executor's own state: no reachable
// recomputation path crosses an incomplete shuffle (which would trigger
// a global mid-task stage regeneration) and, for controllers that
// estimate across executors, no shuffle edge with differing partition
// counts is reachable from estimable data. Everything else
// falls back to the sequential loop, so Parallelism only ever changes
// wall-clock time, never a virtual-time result.

// ParallelStagesRan reports how many stages executed on concurrent
// workers, for tests guarding against the eligibility gate regressing
// into rejecting everything. Not part of metrics: the count
// legitimately differs between Parallelism settings.
func (c *Cluster) ParallelStagesRan() int { return c.parallelStages }

// parallelPlan decides whether the stage's tasks may run on concurrent
// per-executor workers. On success it returns the task indices grouped
// by home executor (each group in ascending task order) plus the
// executors in first-task order; otherwise both returns are nil and the
// caller must use the sequential loop.
func (c *Cluster) parallelPlan(st *Stage, taskParts []int) (map[*Executor][]int, []*Executor) {
	if c.par <= 1 || st.Regenerated || len(taskParts) < 2 {
		return nil, nil
	}
	// A metered (RealBytes) pool measures wall-clock (de)serialization and
	// file I/O; concurrent workers would contend for cores and disk and
	// distort the measurements, so measured stages always take the
	// sequential loop.
	if c.meter != nil {
		return nil, nil
	}
	// Quota-enforced pools charge a cluster-wide tenant ledger on the
	// admission path and may reclaim blocks on *other* executors;
	// concurrent workers would race those admission outcomes, so
	// quota-enforced stages always take the sequential loop.
	if c.quota != nil {
		return nil, nil
	}
	var caps ParallelCaps
	if pc, ok := c.ctl.(ParallelCapable); ok {
		caps = pc.ParallelCaps()
	}
	if !caps.Safe {
		return nil, nil
	}
	// Resilience gates. A blacklisted executor reroutes its tasks onto
	// other executors mid-stage, and an armed speculation race reads and
	// advances another executor's core from inside a task — both are
	// cross-executor effects the parallel machinery cannot buffer, so
	// such stages take the sequential loop at every Parallelism setting
	// (keeping virtual-time results bit-identical). Plain flakes and
	// stragglers without speculation stay parallel-safe: their decisions
	// are order-independent hashes and their costs are executor-local.
	if c.anyBlacklisted() {
		return nil, nil
	}
	if c.res.SpeculativeMultiple > 1 && (c.taskHook != nil || c.anyStraggling()) {
		return nil, nil
	}
	perExec := make(map[*Executor][]int)
	var order []*Executor
	for i, p := range taskParts {
		ex := c.taskExecutor(p)
		if _, ok := perExec[ex]; !ok {
			order = append(order, ex)
		}
		perExec[ex] = append(perExec[ex], i)
	}
	if len(order) < 2 {
		return nil, nil
	}
	if caps.RemoteReads && c.remoteEstimationPossible(st) {
		return nil, nil
	}
	if !c.stageIsolated(st, taskParts, caps.SpillOnlyEvictions) {
		return nil, nil
	}
	return perExec, order
}

// stablyCached reports whether every task-relevant partition of the
// dataset is cached on its home executor in a tier that cannot vanish
// while the stage's tasks run. Disk copies are stable (nothing removes
// disk blocks mid-stage); memory copies are stable only under a
// spill-only controller, where a concurrent eviction moves the block to
// disk instead of dropping it.
func (c *Cluster) stablyCached(d *dataflow.Dataset, taskParts []int, spillOnly bool) bool {
	for _, p := range taskParts {
		if p >= d.Partitions() {
			return false
		}
		ex := c.ExecutorFor(p)
		id := storage.BlockID{Dataset: d.ID(), Partition: p}
		if ex.Disk.Contains(id) {
			continue
		}
		if spillOnly && ex.Mem.Contains(id) {
			continue
		}
		return false
	}
	return true
}

// stageIsolated reports whether every recomputation path the stage's
// tasks could take — including paths exposed by the stage's own
// mid-stage evictions — stays on the task's home executor and never
// reaches an incomplete shuffle. Narrow dependencies preserve the
// partition index, so recursive recomputation is home-local by
// construction; an incomplete shuffle dependency is the one effect that
// escapes the executor (regenerating it runs a nested stage across the
// whole cluster). The walk descends narrow edges, stops at complete
// shuffles and at stably cached datasets, and rejects the stage on any
// reachable incomplete shuffle.
func (c *Cluster) stageIsolated(st *Stage, taskParts []int, spillOnly bool) bool {
	memo := make(map[int]bool)
	var safe func(d *dataflow.Dataset) bool
	safe = func(d *dataflow.Dataset) bool {
		if v, ok := memo[d.ID()]; ok {
			return v
		}
		ok := true
		if !c.stablyCached(d, taskParts, spillOnly) {
			for _, dep := range d.Deps() {
				if dep.Shuffle {
					if !c.shuffle.Complete(dep.ShuffleID) {
						ok = false
						break
					}
				} else if !safe(dep.Parent) {
					ok = false
					break
				}
			}
		}
		memo[d.ID()] = ok
		return ok
	}
	return safe(st.Boundary)
}

// remoteEstimationPossible reports whether a controller whose cost
// estimator walks lineage (caps.RemoteReads) could, during this stage,
// cross a shuffle edge whose parent and child partition counts differ.
// Such a crossing maps a partition index onto a different index,
// reaching lineage observations homed on another executor — a read that
// would race with that executor's concurrent writes. The walk starts
// from every dataset the controller can currently estimate (datasets
// with a cached block, plus the stage's own pipeline) and descends every
// edge: the estimator crosses even a complete shuffle when the shuffle's
// parent is dead at its horizon, which this gate cannot see.
func (c *Cluster) remoteEstimationPossible(st *Stage) bool {
	seeds := make(map[int]*dataflow.Dataset)
	for _, ex := range c.execs {
		for _, m := range ex.Mem.Blocks() {
			if ds := c.ctx.Dataset(m.ID.Dataset); ds != nil {
				seeds[ds.ID()] = ds
			}
		}
		for _, id := range ex.Disk.Blocks() {
			if ds := c.ctx.Dataset(id.Dataset); ds != nil {
				seeds[ds.ID()] = ds
			}
		}
	}
	for _, d := range st.Pipeline {
		seeds[d.ID()] = d
	}
	visited := make(map[int]bool)
	unsafe := false
	var walk func(d *dataflow.Dataset)
	walk = func(d *dataflow.Dataset) {
		if unsafe || visited[d.ID()] {
			return
		}
		visited[d.ID()] = true
		for _, dep := range d.Deps() {
			if dep.Shuffle && dep.Parent.Partitions() != d.Partitions() {
				unsafe = true
				return
			}
			walk(dep.Parent)
		}
	}
	for _, d := range seeds {
		walk(d)
	}
	return unsafe
}

// runStageParallel executes the planned stage on one worker goroutine
// per executor, bounded by Config.Parallelism, then replays the
// buffered per-task side effects in ascending task order so the event
// log and disk-peak accounting match the sequential loop exactly. A
// worker panic is re-raised after the join, preferring the earliest
// task by task order — where the sequential loop would have failed.
func (c *Cluster) runStageParallel(st *Stage, taskParts []int, perExec map[*Executor][]int, order []*Executor, results [][]dataflow.Record) {
	c.parallelStages++
	traces := make([]*taskTrace, len(taskParts))
	for i := range traces {
		traces[i] = &taskTrace{}
	}
	var baseDisk int64
	for _, ex := range c.execs {
		baseDisk += ex.Disk.CurrentBytes()
	}

	type workerPanic struct {
		task int
		val  any
	}
	panics := make([]*workerPanic, len(order))
	sem := make(chan struct{}, c.par)
	var wg sync.WaitGroup
	for wi, ex := range order {
		wg.Add(1)
		go func(wi int, ex *Executor, idxs []int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cur := -1
			defer func() {
				c.curTrace[ex.ID] = nil
				if r := recover(); r != nil {
					panics[wi] = &workerPanic{task: cur, val: r}
				}
			}()
			for _, i := range idxs {
				cur = i
				c.curTrace[ex.ID] = traces[i]
				ex.PickCore() // least-loaded core runs the task
				out := c.runTask(ex, st, taskParts[i])
				if st.IsResult {
					results[taskParts[i]] = out
				}
			}
		}(wi, ex, perExec[ex])
	}
	wg.Wait()

	var first *workerPanic
	for _, p := range panics {
		if p != nil && (first == nil || p.task < first.task) {
			first = p
		}
	}
	if first != nil {
		panic(first.val)
	}

	disk := baseDisk
	for _, tr := range traces {
		if c.log != nil {
			for _, e := range tr.events {
				c.log.Append(e)
			}
		}
		for _, d := range tr.diskDeltas {
			disk += d
			if disk > c.met.DiskPeakBytes {
				c.met.DiskPeakBytes = disk
			}
		}
	}
}
