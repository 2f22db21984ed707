package engine

import (
	"time"

	"blaze/internal/eventlog"
	"blaze/internal/shuffle"
	"blaze/internal/storage"
)

// This file holds the cluster-side fault-injection primitives used by
// internal/faults. Unlike DropBlock/DropDataset — which model deliberate
// unpersists — these destroy state behind the controller's back, count as
// faults in the metrics, and mark what was lost so the recovery work that
// follows (recomputation, disk reload, stage resubmission) is attributed
// per fault and per job (§4.3, Fig. 5).

// loseBlock removes one block from both tiers without unpersist
// accounting, notifying the controller, and returns the bytes destroyed.
// The block is marked with the fault class so its eventual recomputation
// is attributed to that class's recovery cost.
func (c *Cluster) loseBlock(ex *Executor, id storage.BlockID, class string) (int64, bool) {
	var bytes int64
	lost := false
	if size, ok := ex.Mem.Drop(id); ok {
		c.ctl.OnBlockRemoved(ex, id)
		bytes += size
		lost = true
	}
	if size, ok := ex.Disk.Remove(id); ok {
		// The disk copy vanishes too (executor-local storage dies with
		// the executor; a corrupted block is unreadable from either
		// tier). Only notify the controller once per block.
		if !lost {
			c.ctl.OnBlockRemoved(ex, id)
		}
		bytes += size
		lost = true
	}
	if lost {
		c.faultLost[id] = class
		c.met.FaultBlocksLost++
		c.met.FaultBytesLost += bytes
	}
	return bytes, lost
}

// InjectBlockLoss destroys a single cached block (memory and disk copies)
// on the executor — modeling corruption or eviction by the OS. Returns
// false if the executor holds no such block.
func (c *Cluster) InjectBlockLoss(ex *Executor, id storage.BlockID) bool {
	bytes, ok := c.loseBlock(ex, id, "block")
	if !ok {
		return false
	}
	c.met.FaultsInjected++
	c.emit(eventlog.Event{Kind: eventlog.FaultInjected, Time: c.Now(), Job: c.curJob,
		Executor: ex.ID, Dataset: id.Dataset, Partition: id.Partition, Bytes: bytes,
		Fault: "block-loss"})
	return true
}

// InjectExecutorCacheLoss destroys every cached block (both tiers) of one
// executor — modeling an executor restart. Returns the number of blocks
// and bytes destroyed.
func (c *Cluster) InjectExecutorCacheLoss(ex *Executor) (blocks int, bytes int64) {
	blocks, bytes = c.loseAllBlocks(ex, "exec")
	c.met.FaultsInjected++
	c.emit(eventlog.Event{Kind: eventlog.FaultInjected, Time: c.Now(), Job: c.curJob,
		Executor: ex.ID, Bytes: bytes, Fault: "executor-cache-loss"})
	return blocks, bytes
}

// loseAllBlocks destroys every cached block (both tiers) of the executor,
// tagging each with the fault class.
func (c *Cluster) loseAllBlocks(ex *Executor, class string) (blocks int, bytes int64) {
	ids := make([]storage.BlockID, 0)
	for _, m := range ex.Mem.Blocks() {
		ids = append(ids, m.ID)
	}
	for _, id := range ex.Disk.Blocks() {
		if !ex.Mem.Contains(id) {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		b, ok := c.loseBlock(ex, id, class)
		if ok {
			blocks++
			bytes += b
		}
	}
	return blocks, bytes
}

// InjectExecutorDeath kills one executor: its cached blocks are lost like
// an executor restart, its map-output files become unreachable (so their
// producing map tasks must re-run, like Spark handling a lost
// MapOutputTracker registration), its clocks freeze, and its partition
// slots migrate round-robin to the surviving executors in sorted-id order.
// The rebalancing work — one task-launch overhead per adopted slot — is
// charged to the adopting survivors and attributed as exec-death recovery.
// Returns false if the executor is already dead or is the last one alive.
func (c *Cluster) InjectExecutorDeath(ex *Executor) bool {
	if ex.dead || len(c.LiveExecutors()) <= 1 {
		return false
	}

	_, bytes := c.loseAllBlocks(ex, "exec-death")
	lost := c.shuffle.LoseExecutorOutputs(ex.ID)
	for _, l := range lost {
		m := c.faultLostMaps[l.Shuffle]
		if m == nil {
			m = make(map[int]string)
			c.faultLostMaps[l.Shuffle] = m
		}
		m[l.MapPart] = "exec-death"
		c.met.FaultMapOutputsLost++
		c.met.FaultShuffleBytesLost += l.Bytes
	}
	ex.dead = true
	c.met.FaultsInjected++
	c.met.ExecutorDeaths++
	c.emit(eventlog.Event{Kind: eventlog.ExecutorDead, Time: c.Now(), Job: c.curJob,
		Executor: ex.ID, Bytes: bytes, Count: len(lost)})

	// Migrate the dead executor's partition slots. Deaths are injected at
	// scheduling boundaries, after the stage barrier, so every clock
	// already agrees; survivors still sync to the victim's frozen clock as
	// an invariant, then absorb its slots round-robin in sorted-id order.
	survivors := c.LiveExecutors()
	frozen := ex.MaxClock()
	for _, s := range survivors {
		s.SyncTo(frozen)
	}
	perSlot := c.cfg.Params.TaskOverhead
	var migrated int
	var rebalance time.Duration
	for slot, owner := range c.assign {
		if c.execs[owner] != ex {
			continue
		}
		recv := survivors[migrated%len(survivors)]
		c.setAssign(slot, recv.ID)
		recv.PickCore().Advance(perSlot)
		c.met.Executors[recv.ID].RebalanceTime += perSlot
		migrated++
		rebalance += perSlot
	}
	c.met.MigratedPartitions += migrated
	c.met.RebalanceTime += rebalance
	if migrated > 0 {
		c.met.AddFaultRecovery(c.curJob, rebalance)
		c.met.AddFaultRecoveryClass("exec-death", rebalance)
	}
	c.emit(eventlog.Event{Kind: eventlog.PartitionsMigrated, Time: c.Now(), Job: c.curJob,
		Executor: ex.ID, Count: migrated, Cost: rebalance})

	// The death invalidated the optimizer's plan: candidates migrated,
	// cached copies died. Controllers that can repair re-solve over the
	// survivors now, so admissions and promotions after the death follow
	// a plan that matches reality. Deaths are injected identically at
	// every Parallelism setting, so the repair (and its events, emitted
	// into the main log here — the death is part of the run) is too.
	if pr, ok := c.ctl.(PlanRepairer); ok {
		pr.RepairPlan(c.curWindow)
	}
	return true
}

// InjectStraggler opens a transient straggler window on the executor:
// its next window task executions (including one currently starting) run
// at factor times their intrinsic cost. Unlike the destructive faults
// nothing is lost — the inflation itself is the fault, and it is
// attributed to the "straggler" class as it accrues. Safe to call from a
// task context (the injector's OnTaskStart): every touched field is
// executor-local or behind a leaf lock, and the event is emitted through
// the task-ordered buffer. Returns false if the executor is dead,
// already straggling, or the parameters are degenerate.
func (c *Cluster) InjectStraggler(ex *Executor, factor float64, window int) bool {
	if ex.dead || ex.slowTasks > 0 || factor <= 1 || window <= 0 {
		return false
	}
	ex.slowFactor = factor
	ex.slowTasks = window
	c.met.IncFaultInjected()
	c.emitEx(ex, eventlog.Event{Kind: eventlog.FaultInjected, Time: ex.Clock().Now(), Job: c.curJob,
		Executor: ex.ID, Fault: "straggler", Count: window, Factor: factor})
	return true
}

// InjectBucketLoss destroys a single map-output bucket of a shuffle — one
// lost shuffle file, shuffle_map_bucket. Only the producing map task must
// re-run; the engine re-executes exactly the invalidated producers when
// the shuffle is next needed. Returns false if the bucket does not exist.
func (c *Cluster) InjectBucketLoss(shuffleID, mapPart, bucket int) bool {
	bytes, ok := c.shuffle.LoseBucket(shuffleID, mapPart, bucket)
	if !ok {
		return false
	}
	m := c.faultLostMaps[shuffleID]
	if m == nil {
		m = make(map[int]string)
		c.faultLostMaps[shuffleID] = m
	}
	m[mapPart] = "bucket"
	c.met.FaultsInjected++
	c.met.FaultBucketsLost++
	c.met.FaultMapOutputsLost++
	c.met.FaultShuffleBytesLost += bytes
	c.emit(eventlog.Event{Kind: eventlog.BucketLost, Time: c.Now(), Job: c.curJob,
		Shuffle: shuffleID, Partition: mapPart, Bucket: bucket, Bytes: bytes})
	return true
}

// InjectShuffleLoss cleans a completed shuffle's outputs — modeling lost
// shuffle files, which force Spark-style stage resubmission when a reduce
// task next fetches them. Returns false if the shuffle was not complete.
func (c *Cluster) InjectShuffleLoss(shuffleID int) bool {
	if !c.shuffle.Complete(shuffleID) {
		return false
	}
	c.shuffle.Clean(shuffleID)
	c.faultLostShuffles[shuffleID] = true
	// The whole-shuffle loss supersedes any pending partial marks: the
	// full regeneration is attributed to the shuffle-loss class.
	delete(c.faultLostMaps, shuffleID)
	c.met.FaultsInjected++
	c.met.FaultShufflesLost++
	c.emit(eventlog.Event{Kind: eventlog.FaultInjected, Time: c.Now(), Job: c.curJob,
		Shuffle: shuffleID, Fault: "shuffle-loss"})
	return true
}

// CompletedShuffles lists the ids of all currently complete shuffles in
// ascending order — the candidates for shuffle-loss injection.
func (c *Cluster) CompletedShuffles() []int {
	return c.shuffle.CompleteIDs()
}

// CompleteBucketRefs lists the present non-empty map-output buckets of a
// shuffle in (map partition, bucket) ascending order — the candidates for
// bucket-loss injection.
func (c *Cluster) CompleteBucketRefs(shuffleID int) []shuffle.BucketRef {
	return c.shuffle.BucketRefs(shuffleID)
}
