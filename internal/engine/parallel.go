package engine

import (
	"sync"
	"sync/atomic"

	"blaze/internal/dataflow"
	"blaze/internal/storage"
)

// This file implements real multi-core stage execution. A stage's tasks
// run in task order, cut into segments. Within a segment the tasks are
// dispatched to per-executor workers; each worker runs its executor's
// tasks of the segment in task order — exactly the subsequence the
// sequential loop would execute on that executor — so every
// executor-local effect (clock advances, cache admissions, evictions,
// policy state) is reproduced bit-for-bit. Cross-executor effects are
// either commutative sums under leaf mutexes (metrics counters, shuffle
// bytes), structurally disjoint map entries under the cluster mutex
// (computedOnce, faultLost), or buffered per task and replayed in task
// order when the segment joins (event log, disk peak).
//
// A segment only admits a task that provably stays inside its executor:
// no path materialize can take for it reaches an incomplete shuffle,
// whose regeneration would run a nested stage across the cluster. The
// proof (isolated) is taken against the stores as they stand when the
// segment starts. Within the segment only the task's own executor — its
// earlier tasks and the task itself — can change the blocks the task
// reads, so the walk trusts a memory copy only for an executor's first
// task and only up to that task's first possible admission. At a
// segment boundary every earlier task has finished and no later one has
// started, which is the sequential loop's order; a task that fails even
// its executor's first walk runs alone on the driver and may regenerate.
// Stage-level gates (parallelizable) send the whole stage to the
// sequential loop, so Parallelism only ever changes wall-clock time,
// never a virtual-time result.

// ParallelTasksRan reports how many tasks ran on concurrent workers, for
// tests guarding against the eligibility gate regressing into rejecting
// everything. Not part of metrics: the count legitimately differs
// between Parallelism settings.
func (c *Cluster) ParallelTasksRan() int { return c.parallelTasks }

// segmenter is the reusable state of segmented dispatch, kept on the
// Cluster so that cutting and running a segment allocates nothing in the
// steady state. It is written in driver context only; during a segment
// the workers read perExec and order and each writes its own traces and
// panics slots.
type segmenter struct {
	spillOnly bool
	// memo is isolated's per-walk memo, keyed by dataset id and the
	// admitted flag (id<<1 | admitted); bit 0 of a value is the walk's
	// verdict, bit 1 whether an admission is possible after it.
	memo map[int]uint8
	// perExec holds the open segment's task indices by executor ID, in
	// task order; order lists the segment's executors by first task.
	perExec [][]int
	order   []*Executor
	// traces buffer the segment's tasks' ordered side effects, indexed
	// by task index minus the segment's start.
	traces []taskTrace
	panics []workerPanic
	next   atomic.Int32
	wg     sync.WaitGroup
	// visited is remoteEstimationPossible's walk set.
	visited map[int]bool
}

// workerPanic records the task whose panic a worker recovered; val is
// nil when there was none (recover never returns nil for a panic).
type workerPanic struct {
	task int
	val  any
}

// runTasks runs the stage's tasks (indices into taskParts) in task
// order: in segments on concurrent workers when the stage passes every
// stage-level gate, otherwise in the sequential loop.
func (c *Cluster) runTasks(st *Stage, taskParts []int, results [][]dataflow.Record) {
	if !c.parallelizable(st, taskParts) {
		c.runInline(st, taskParts, results)
		return
	}
	ran := false
	for i := 0; i < len(taskParts); {
		end, lone := c.planSegment(st.Boundary, taskParts, i)
		if len(c.seg.order) > 1 {
			c.runSegment(st, taskParts, i, end, results)
			ran = true
		} else {
			c.runInline(st, taskParts[i:end], results)
		}
		i = end
		if lone {
			c.runInline(st, taskParts[i:i+1], results)
			i++
		}
	}
	if ran {
		c.parallelStages++
	}
}

// runInline is the sequential loop: each task on its executor, one after
// another, on the driver goroutine.
func (c *Cluster) runInline(st *Stage, parts []int, results [][]dataflow.Record) {
	for _, p := range parts {
		ex := c.taskExecutor(p)
		ex.PickCore() // least-loaded core runs the task
		out := c.runTask(ex, st, p)
		if st.IsResult {
			results[p] = out
		}
	}
}

// parallelizable applies the stage-level gates: whether any of the
// stage's tasks may run on concurrent workers at all. On success it
// leaves the controller's eviction discipline in c.seg.spillOnly for the
// segment walks.
func (c *Cluster) parallelizable(st *Stage, taskParts []int) bool {
	if c.par <= 1 || st.Regenerated || len(taskParts) < 2 {
		return false
	}
	// A metered (RealBytes) pool measures wall-clock (de)serialization and
	// file I/O; concurrent workers would contend for cores and disk and
	// distort the measurements, so measured stages always take the
	// sequential loop.
	if c.meter != nil {
		return false
	}
	// Quota-enforced pools charge a cluster-wide tenant ledger on the
	// admission path and may reclaim blocks on *other* executors;
	// concurrent workers would race those admission outcomes, so
	// quota-enforced stages always take the sequential loop.
	if c.quota != nil {
		return false
	}
	var caps ParallelCaps
	if pc, ok := c.ctl.(ParallelCapable); ok {
		caps = pc.ParallelCaps()
	}
	if !caps.Safe {
		return false
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
		return false
	}
	if c.res.SpeculativeMultiple > 1 && (c.taskHook != nil || c.anyStraggling()) {
		return false
	}
	if caps.RemoteReads && c.remoteEstimationPossible(st) {
		return false
	}
	c.seg.spillOnly = caps.SpillOnlyEvictions
	return true
}

// planSegment cuts the next segment from taskParts[start:], in task
// order, into c.seg.perExec and c.seg.order. The segment ends before the
// first task whose isolation walk fails; lone reports that this task was
// its executor's first in the segment, so that no later segment can
// admit it either and it must run alone.
func (c *Cluster) planSegment(d *dataflow.Dataset, taskParts []int, start int) (end int, lone bool) {
	s := &c.seg
	for _, ex := range s.order {
		s.perExec[ex.ID] = s.perExec[ex.ID][:0]
	}
	s.order = s.order[:0]
	for j := start; j < len(taskParts); j++ {
		p := taskParts[j]
		ex := c.taskExecutor(p)
		first := len(s.perExec[ex.ID]) == 0
		if !c.isolated(ex, d, p, first) {
			return j, first
		}
		if first {
			s.order = append(s.order, ex)
		}
		s.perExec[ex.ID] = append(s.perExec[ex.ID], j)
	}
	return len(taskParts), false
}

// isolated reports whether materializing partition p of d on ex stays on
// ex, judged against the stores as they stand now: every path
// materialize can take ends at a memory or disk copy, a complete
// shuffle or a source, never at an incomplete shuffle. The walk follows
// materialize's order — memory, disk, then the dependencies in order —
// and tracks whether the task may already have admitted a block (a
// computed partition the controller may place, or a disk hit it may
// promote); an admission can evict, so past it a memory copy is no
// longer trusted and the walk descends below it. trustMem is whether the
// task starts with its executor's memory as the walk sees it: true for
// an executor's first task in a segment, false for its later ones, whose
// earlier tasks may have admitted. Under a spill-only controller an
// eviction only moves a block to disk, so memory is always trusted.
// Disk copies are always trusted: nothing removes one mid-stage.
func (c *Cluster) isolated(ex *Executor, d *dataflow.Dataset, p int, trustMem bool) bool {
	clear(c.seg.memo)
	ok, _ := c.isolatedFrom(ex, d, p, !trustMem)
	return ok
}

// isolatedFrom is isolated's memoized walk from partition p of d, entered
// with admitted set when an admission may already have happened. It also
// reports whether one may have happened once d's partition is produced.
func (c *Cluster) isolatedFrom(ex *Executor, d *dataflow.Dataset, p int, admitted bool) (ok, admittedAfter bool) {
	key := d.ID() << 1
	if admitted {
		key |= 1
	}
	if v, seen := c.seg.memo[key]; seen {
		return v&1 != 0, v&2 != 0
	}
	ok, admittedAfter = c.isolatedStep(ex, d, p, admitted)
	var v uint8
	if ok {
		v |= 1
	}
	if admittedAfter {
		v |= 2
	}
	c.seg.memo[key] = v
	return ok, admittedAfter
}

func (c *Cluster) isolatedStep(ex *Executor, d *dataflow.Dataset, p int, admitted bool) (ok, admittedAfter bool) {
	id := storage.BlockID{Dataset: d.ID(), Partition: p}
	if (!admitted || c.seg.spillOnly) && ex.Mem.Contains(id) {
		return true, admitted // a hit admits nothing
	}
	if ex.Disk.Contains(id) {
		return true, true // the controller may promote the disk hit
	}
	for _, dep := range d.Deps() {
		if dep.Shuffle {
			if !c.shuffle.Complete(dep.ShuffleID) {
				return false, true
			}
			continue
		}
		if ok, admitted = c.isolatedFrom(ex, dep.Parent, p, admitted); !ok {
			return false, true
		}
	}
	return true, true // the controller may place the computed partition
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
// parent is dead at its horizon, which this gate cannot see. The answer
// is an OR over the walk, so it reads the stores' own listings in any
// order and stops at the first widening edge.
func (c *Cluster) remoteEstimationPossible(st *Stage) bool {
	clear(c.seg.visited)
	for _, ex := range c.execs {
		for _, m := range ex.Mem.BlocksView() {
			if c.estimableWidens(m.ID) {
				return true
			}
		}
		if ex.Disk.AnyBlock(c.estimableWidens) {
			return true
		}
	}
	for _, d := range st.Pipeline {
		if c.widens(d) {
			return true
		}
	}
	return false
}

// estimableWidens is widens from the dataset of a cached block; blocks
// of datasets outside this cluster's context (other sessions of a shared
// pool) are not this controller's to estimate.
func (c *Cluster) estimableWidens(id storage.BlockID) bool {
	if c.seg.visited[id.Dataset] {
		return false
	}
	d := c.ctx.Dataset(id.Dataset)
	return d != nil && c.widens(d)
}

// widens reports whether a shuffle edge with differing partition counts
// is reachable from d through datasets not yet visited.
func (c *Cluster) widens(d *dataflow.Dataset) bool {
	if c.seg.visited[d.ID()] {
		return false
	}
	c.seg.visited[d.ID()] = true
	for _, dep := range d.Deps() {
		if dep.Shuffle && dep.Parent.Partitions() != d.Partitions() {
			return true
		}
		if c.widens(dep.Parent) {
			return true
		}
	}
	return false
}

// runSegment runs tasks start..end-1 of the planned segment on at most
// Config.Parallelism workers — the driver goroutine and helpers — each
// taking whole executors (c.seg.order) and running their tasks in task
// order, then replays the buffered per-task side effects in task order
// so the event log and disk-peak accounting match the sequential loop
// exactly. A worker panic is
// re-raised after the join, preferring the earliest task by task order —
// where the sequential loop would have failed.
func (c *Cluster) runSegment(st *Stage, taskParts []int, start, end int, results [][]dataflow.Record) {
	s := &c.seg
	n := end - start
	if cap(s.traces) < n {
		s.traces = append(s.traces[:cap(s.traces)], make([]taskTrace, n-cap(s.traces))...)
	}
	s.traces = s.traces[:n]
	for i := range s.traces {
		s.traces[i].events = s.traces[i].events[:0]
		s.traces[i].diskDeltas = s.traces[i].diskDeltas[:0]
	}
	s.panics = append(s.panics[:0], make([]workerPanic, len(s.order))...)
	var baseDisk int64
	for _, ex := range c.execs {
		baseDisk += ex.Disk.CurrentBytes()
	}

	s.next.Store(0)
	helpers := min(c.par, len(s.order)) - 1 // the driver is a worker too
	s.wg.Add(helpers)
	for range helpers {
		go c.segmentHelper(st, taskParts, start, results)
	}
	c.segmentWorker(st, taskParts, start, results)
	s.wg.Wait()
	c.parallelTasks += n

	var first *workerPanic
	for i := range s.panics {
		if p := &s.panics[i]; p.val != nil && (first == nil || p.task < first.task) {
			first = p
		}
	}
	if first != nil {
		panic(first.val)
	}

	disk := baseDisk
	for i := range s.traces {
		tr := &s.traces[i]
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

// segmentHelper is a segment worker on its own goroutine.
func (c *Cluster) segmentHelper(st *Stage, taskParts []int, start int, results [][]dataflow.Record) {
	defer c.seg.wg.Done()
	c.segmentWorker(st, taskParts, start, results)
}

// segmentWorker takes the segment's executors one at a time until none
// is left.
func (c *Cluster) segmentWorker(st *Stage, taskParts []int, start int, results [][]dataflow.Record) {
	for {
		k := int(c.seg.next.Add(1)) - 1
		if k >= len(c.seg.order) {
			return
		}
		c.runExecutorTasks(k, st, taskParts, start, results)
	}
}

// runExecutorTasks runs the segment's tasks of executor c.seg.order[k],
// recovering a panic into c.seg.panics[k].
func (c *Cluster) runExecutorTasks(k int, st *Stage, taskParts []int, start int, results [][]dataflow.Record) {
	s := &c.seg
	ex := s.order[k]
	cur := -1
	defer func() {
		c.curTrace[ex.ID] = nil
		if r := recover(); r != nil {
			s.panics[k] = workerPanic{task: cur, val: r}
		}
	}()
	for _, i := range s.perExec[ex.ID] {
		cur = i
		c.curTrace[ex.ID] = &s.traces[i-start]
		ex.PickCore() // least-loaded core runs the task
		out := c.runTask(ex, st, taskParts[i])
		if st.IsResult {
			results[taskParts[i]] = out
		}
	}
}
