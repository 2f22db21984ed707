package engine

// Regression tests for the recovery path: stage regeneration must not
// disturb the cost attribution of the outer tasks it interrupts, and
// fault injection must be fully recoverable and correctly accounted.

import (
	"reflect"
	"testing"
	"time"

	"blaze/internal/cachepolicy"
	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/eventlog"
	"blaze/internal/metrics"
	"blaze/internal/storage"
)

// shuffledPair builds src -> reduce with the given partition counts and
// runs one job so the shuffle is complete, returning the reduce dataset
// and its shuffle dependency.
func shuffledPair(t *testing.T, ctx *dataflow.Context, name string, parts int) (*dataflow.Dataset, dataflow.Dependency) {
	t.Helper()
	src := ctx.Source(name+"-src@0", parts, func(part int) []dataflow.Record {
		var out []dataflow.Record
		for i := part; i < parts*10; i += parts {
			out = append(out, dataflow.Record{Key: int64(i), Value: int64(i)})
		}
		return out
	})
	red := src.ReduceByKey(name+"-red@0", parts, func(a, b any) any { return a.(int64) + b.(int64) })
	red.Count()
	for _, dep := range red.Deps() {
		if dep.Shuffle {
			return red, dep
		}
	}
	t.Fatal("no shuffle dependency on reduce dataset")
	return nil, dataflow.Dependency{}
}

// TestRegenerationPreservesActiveCore is the regression test for the
// core-index clobbering bug: a nested regenerated stage picks its own
// cores via PickCore, and before the fix it left ex.cur pointing at the
// nested task's core, so the outer task's remaining costs landed on the
// wrong clock.
func TestRegenerationPreservesActiveCore(t *testing.T) {
	ctx := dataflow.NewContext()
	c, err := NewCluster(Config{
		Executors:         1,
		CoresPerExecutor:  2,
		MemoryPerExecutor: 1 << 20,
		Params:            costmodel.Default(),
		Controller:        NewSparkMemOnly(),
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	red, dep := shuffledPair(t, ctx, "rc", 1)
	_ = red
	c.shuffle.Clean(dep.ShuffleID)

	ex := c.execs[0]
	// Put the outer task on core 0 and make core 1 the least loaded, so
	// the nested regeneration task will pick core 1.
	ex.cores[0].Advance(time.Millisecond)
	ex.cur = 0
	before1 := ex.cores[1].Now()

	// Fetching the cleaned shuffle regenerates the map stage mid-"task".
	fetchShuffleOn(c, rowPlane{}, ex, dep, 1, 0)

	if ex.cores[1].Now() == before1 {
		t.Fatal("setup broken: nested regeneration did not run on core 1")
	}
	if ex.cur != 0 {
		t.Fatalf("regeneration clobbered the active core: cur = %d, want 0", ex.cur)
	}
}

// TestRegeneratedStageSkipsGlobalBarrier is the regression test for the
// mid-task barrier bug: before the fix, the nested runStage synchronized
// every executor to the global max clock in the middle of the outer task.
func TestRegeneratedStageSkipsGlobalBarrier(t *testing.T) {
	ctx := dataflow.NewContext()
	c, err := NewCluster(Config{
		Executors:         2,
		MemoryPerExecutor: 1 << 20,
		Params:            costmodel.Default(),
		Controller:        NewSparkMemOnly(),
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	// One partition: all tasks of the regenerated stage live on executor 0.
	_, dep := shuffledPair(t, ctx, "rb", 1)
	c.shuffle.Clean(dep.ShuffleID)

	// Push executor 1 far ahead; a leaked barrier would drag executor 0
	// to this clock mid-task.
	far := time.Hour
	c.execs[1].SyncTo(far)

	ex := c.execs[0]
	ex.PickCore()
	fetchShuffleOn(c, rowPlane{}, ex, dep, 1, 0)

	if got := ex.MaxClock(); got >= far {
		t.Fatalf("regenerated stage applied the global barrier: executor 0 at %v", got)
	}
}

// TestSpillCountsOnlyActualDiskWrites is the regression test for the
// EvictionsToDisk over-count: re-evicting a block whose disk copy was
// retained from an earlier spill writes nothing and must not count as a
// to-disk eviction.
func TestSpillCountsOnlyActualDiskWrites(t *testing.T) {
	ctx := dataflow.NewContext()
	c, err := NewCluster(Config{
		Executors:         1,
		MemoryPerExecutor: 1 << 20,
		Params:            costmodel.Default(),
		Controller:        NewSparkMemDisk(),
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	ds := ctx.Source("sp-src@0", 1, func(int) []dataflow.Record {
		return []dataflow.Record{{Key: 1, Value: int64(1)}}
	}).Map("sp-data@0", func(r dataflow.Record) dataflow.Record { return r })
	ds.Cache()
	ds.Count()
	ex := c.execs[0]
	id := storage.BlockID{Dataset: ds.ID(), Partition: 0}
	meta, ok := ex.Mem.Peek(id)
	if !ok {
		t.Fatal("setup: block not cached")
	}
	size := meta.Size

	if !c.SpillBlock(ex, id) {
		t.Fatal("first spill failed")
	}
	if !c.PromoteBlock(ex, id, true) {
		t.Fatal("promote failed")
	}
	if !c.SpillBlock(ex, id) {
		t.Fatal("second spill failed")
	}
	m := c.Metrics()
	if m.Evictions != 2 {
		t.Fatalf("Evictions = %d, want 2", m.Evictions)
	}
	if m.EvictionsToDisk != 1 {
		t.Fatalf("EvictionsToDisk = %d, want 1 (second spill wrote nothing)", m.EvictionsToDisk)
	}
	if got := m.Executors[0].EvictedToDiskBytes; got != size {
		t.Fatalf("EvictedToDiskBytes = %d, want %d", got, size)
	}
}

// TestClusterDiskPeakIsConcurrent is the regression test for the
// DiskPeakBytes over-count: per-executor peaks at different virtual times
// must not be summed; the cluster-wide peak is the maximum concurrent
// footprint.
func TestClusterDiskPeakIsConcurrent(t *testing.T) {
	ctx := dataflow.NewContext()
	c, err := NewCluster(Config{
		Executors:         2,
		MemoryPerExecutor: 1 << 20,
		Params:            costmodel.Default(),
		Controller:        NewSparkMemDisk(),
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	ex0, ex1 := c.execs[0], c.execs[1]
	recs := []dataflow.Record{{Key: 1, Value: int64(1)}}
	a := storage.BlockID{Dataset: 100, Partition: 0}
	b := storage.BlockID{Dataset: 101, Partition: 1}

	c.writeToDisk(ex0, a, storage.Fresh(recs), 100) // cluster footprint 100
	c.DropBlock(ex0, a)                             // back to 0
	c.writeToDisk(ex1, b, storage.Fresh(recs), 60)  // cluster footprint 60

	m := c.Finish()
	if m.DiskPeakBytes != 100 {
		t.Fatalf("cluster DiskPeakBytes = %d, want 100 (not the 160 sum of per-executor peaks)", m.DiskPeakBytes)
	}
	if m.Executors[0].DiskPeakBytes != 100 || m.Executors[1].DiskPeakBytes != 60 {
		t.Fatalf("per-executor peaks = %d, %d; want 100, 60",
			m.Executors[0].DiskPeakBytes, m.Executors[1].DiskPeakBytes)
	}
}

// TestStatefulPolicyPerExecutorIsolation asserts that a stateful policy
// configured on an annotation controller learns per executor: accesses on
// one executor must not pollute the frequency state another executor's
// eviction decisions use.
func TestStatefulPolicyPerExecutorIsolation(t *testing.T) {
	ctx := dataflow.NewContext()
	ctl := NewAnnotation("tinylfu", MemDisk, cachepolicy.NewTinyLFU(16), false)
	c, err := NewCluster(Config{
		Executors:         2,
		MemoryPerExecutor: 1 << 20,
		Params:            costmodel.Default(),
		Controller:        ctl,
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	ex0, ex1 := c.execs[0], c.execs[1]

	p0, p1 := ctl.policyFor(ex0), ctl.policyFor(ex1)
	if p0 == p1 {
		t.Fatal("stateful policy instance shared across executors")
	}

	a := storage.BlockID{Dataset: 1, Partition: 0}
	b := storage.BlockID{Dataset: 2, Partition: 0}
	// Block a is hot on executor 0 only; block b is warm on executor 1.
	for i := 0; i < 8; i++ {
		ctl.OnBlockAccess(ex0, a)
	}
	ctl.OnBlockAccess(ex1, b)

	metas := func() []*storage.BlockMeta {
		return []*storage.BlockMeta{
			{ID: a, Size: 10, LastAccess: 2},
			{ID: b, Size: 10, LastAccess: 1},
		}
	}
	// On executor 0, a is frequent: b must be evicted first.
	if got := p0.Order(metas())[0].ID; got != b {
		t.Fatalf("executor 0 evicts %v first, want %v", got, b)
	}
	// On executor 1, a was never seen: a must be evicted first. With a
	// single shared instance, executor 0's accesses would leak in and
	// flip this ordering.
	if got := p1.Order(metas())[0].ID; got != a {
		t.Fatalf("executor 1 evicts %v first, want %v (cross-executor state pollution)", got, a)
	}
}

// shuffleKiller is an engine.Hook that destroys one completed shuffle
// after every top-level stage, so later stages of the same job find it
// missing mid-run and must regenerate it.
type shuffleKiller struct{ n int }

func (k *shuffleKiller) OnJobStart(c *Cluster, j *Job) {}
func (k *shuffleKiller) OnStageEnd(c *Cluster, st *Stage) {
	ids := c.CompletedShuffles()
	if len(ids) == 0 {
		return
	}
	c.InjectShuffleLoss(ids[k.n%len(ids)])
	k.n++
}
func (k *shuffleKiller) OnJobEnd(c *Cluster, j *Job) {}

// TestRegenerationPathUnderShuffleLoss covers the regeneration path
// end-to-end: a multi-iteration workload whose shuffles are destroyed
// mid-run must (1) still compute the reference results, (2) attribute the
// regenerated stages and recoveries in the event log, and (3) not panic
// any controller on the st.Job == nil stages regeneration produces.
func TestRegenerationPathUnderShuffleLoss(t *testing.T) {
	refCtx := dataflow.NewContext()
	dataflow.NewLocalRunner(refCtx)
	want := iterativeWorkload(refCtx, 4, 4, 40, false)

	controllers := []func() Controller{
		func() Controller { return NewSparkMemOnly() },
		func() Controller { return NewSparkMemDisk() },
		func() Controller { return NewLRC(MemDisk) },
		func() Controller { return NewMRD(MemDisk) },
		func() Controller { return NewAnnotation("tinylfu", MemDisk, cachepolicy.NewTinyLFU(32), false) },
	}
	for _, mk := range controllers {
		ctl := mk()
		log := eventlog.New()
		ctx := dataflow.NewContext()
		c, err := NewCluster(Config{
			Executors:         2,
			MemoryPerExecutor: 4 * 1024,
			Params:            costmodel.Default(),
			Controller:        ctl,
			EventLog:          log,
			Hook:              &shuffleKiller{},
		}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		got := iterativeWorkload(ctx, 4, 4, 40, false)
		if got != want {
			t.Errorf("%s: result %v != reference %v under shuffle loss", ctl.Name(), got, want)
		}
		m := c.Finish()
		if m.FaultsInjected == 0 || m.FaultShufflesLost == 0 {
			t.Fatalf("%s: no shuffle faults injected (%d faults)", ctl.Name(), m.FaultsInjected)
		}
		if m.TotalFaultRecovery() == 0 {
			t.Errorf("%s: shuffle loss recovered but no recovery time attributed", ctl.Name())
		}

		regen, recovered := 0, 0
		for _, e := range log.Events() {
			switch {
			case e.Kind == eventlog.StageEnd && e.Regen:
				regen++
				if e.Job < 0 || e.Job >= m.Jobs {
					t.Fatalf("%s: regenerated stage attributed to job %d of %d", ctl.Name(), e.Job, m.Jobs)
				}
			case e.Kind == eventlog.Recovered:
				recovered++
				if e.Cost <= 0 {
					t.Fatalf("%s: recovery event without cost", ctl.Name())
				}
			}
		}
		if regen == 0 {
			t.Fatalf("%s: no regenerated stages recorded", ctl.Name())
		}
		if recovered == 0 {
			t.Fatalf("%s: no recovery events recorded", ctl.Name())
		}
		sum := eventlog.Summarize(log)
		totalRegen := 0
		for _, j := range sum.Jobs {
			totalRegen += j.Regenerated
		}
		if totalRegen != regen {
			t.Fatalf("%s: summary regenerated %d != %d events", ctl.Name(), totalRegen, regen)
		}
	}
}

// TestExecutorCacheLossRecovers injects a full executor cache loss
// between jobs and asserts recomputation-based recovery restores results
// and attributes the recovery to the right job.
func TestExecutorCacheLossRecovers(t *testing.T) {
	refCtx := dataflow.NewContext()
	dataflow.NewLocalRunner(refCtx)
	want := iterativeWorkload(refCtx, 3, 4, 40, true)

	ctx := dataflow.NewContext()
	log := eventlog.New()
	c, err := NewCluster(Config{
		Executors:         2,
		MemoryPerExecutor: 1 << 20,
		Params:            costmodel.Default(),
		Controller:        NewSparkMemOnly(),
		EventLog:          log,
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Kill executor 0's cache after every job via a hook-free direct
	// wrapper on the runner, exercising InjectExecutorCacheLoss.
	inner := ctx.Runner()
	ctx.SetRunner(runnerFunc{
		run: func(target *dataflow.Dataset, action string) [][]dataflow.Record {
			out := inner.RunJob(target, action)
			c.InjectExecutorCacheLoss(c.Executors()[0])
			return out
		},
		inner: inner,
	})

	got := iterativeWorkload(ctx, 3, 4, 40, true)
	if got != want {
		t.Fatalf("result %v != reference %v under executor cache loss", got, want)
	}
	m := c.Finish()
	if m.FaultsInjected == 0 {
		t.Fatal("no faults recorded")
	}
	if m.FaultBlocksLost == 0 || m.FaultBytesLost == 0 {
		t.Fatalf("executor cache loss destroyed nothing: blocks=%d bytes=%d", m.FaultBlocksLost, m.FaultBytesLost)
	}
	if m.TotalFaultRecovery() == 0 {
		t.Fatal("lost cached blocks were recomputed but no fault recovery attributed")
	}
}

// TestExecutorDeathMigratesPartitions kills one executor between jobs of
// an iterative workload and asserts (1) results stay bit-identical to the
// fault-free reference, (2) the dead executor's partition slots migrate
// to survivors and no further tasks land on it, (3) its map outputs are
// invalidated and the rebalancing + re-run work is attributed to the
// exec-death class.
func TestExecutorDeathMigratesPartitions(t *testing.T) {
	refCtx := dataflow.NewContext()
	dataflow.NewLocalRunner(refCtx)
	want := iterativeWorkload(refCtx, 3, 6, 40, true)

	ctx := dataflow.NewContext()
	log := eventlog.New()
	c, err := NewCluster(Config{
		Executors:         3,
		MemoryPerExecutor: 1 << 20,
		Params:            costmodel.Default(),
		Controller:        NewSparkMemDisk(),
		EventLog:          log,
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	victim := c.Executors()[1]
	jobs := 0
	inner := ctx.Runner()
	ctx.SetRunner(runnerFunc{
		run: func(target *dataflow.Dataset, action string) [][]dataflow.Record {
			out := inner.RunJob(target, action)
			jobs++
			if jobs == 1 {
				// Seal-epoch moves aside, the slot reassignment itself must
				// move DriverEpoch: controllers cache costs that depend on
				// which executor a partition index is homed on.
				assigned := c.assignEpoch
				if !c.InjectExecutorDeath(victim) {
					t.Fatal("death injection refused")
				}
				if c.assignEpoch == assigned {
					t.Error("executor death moved partition slots without moving the assignment epoch")
				}
			}
			return out
		},
		inner: inner,
	})

	got := iterativeWorkload(ctx, 3, 6, 40, true)
	if got != want {
		t.Fatalf("result %v != reference %v under executor death", got, want)
	}

	if !victim.Dead() {
		t.Fatal("victim not marked dead")
	}
	if live := c.LiveExecutors(); len(live) != 2 || live[0].ID != 0 || live[1].ID != 2 {
		t.Fatalf("LiveExecutors = %v", live)
	}
	// Every partition slot resolves to a survivor; the victim's slot 1
	// was rebalanced round-robin over the sorted survivors.
	for p := 0; p < 6; p++ {
		if ex := c.ExecutorFor(p); ex.Dead() {
			t.Fatalf("partition %d still homed on the dead executor", p)
		}
	}
	tasksOnVictim := c.Metrics().Executors[victim.ID].Tasks
	frozen := victim.MaxClock()

	m := c.Finish()
	if m.ExecutorDeaths != 1 {
		t.Fatalf("ExecutorDeaths = %d, want 1", m.ExecutorDeaths)
	}
	if m.MigratedPartitions != 1 {
		t.Fatalf("MigratedPartitions = %d, want 1 (one slot of three)", m.MigratedPartitions)
	}
	if m.RebalanceTime <= 0 {
		t.Fatal("no rebalance time charged")
	}
	if m.Executors[victim.ID].RebalanceTime != 0 {
		t.Fatal("rebalance time charged to the dead executor")
	}
	if m.FaultMapOutputsLost == 0 || m.FaultShuffleBytesLost == 0 {
		t.Fatalf("death lost no map outputs: maps=%d bytes=%d",
			m.FaultMapOutputsLost, m.FaultShuffleBytesLost)
	}
	if m.FaultRecoveryByClass["exec-death"] <= 0 {
		t.Fatalf("no exec-death recovery attributed: %v", m.FaultRecoveryByClass)
	}
	if got := c.Metrics().Executors[victim.ID].Tasks; got != tasksOnVictim {
		t.Fatalf("dead executor ran more tasks: %d -> %d", tasksOnVictim, got)
	}
	if victim.MaxClock() != frozen {
		t.Fatalf("dead executor clock advanced: %v -> %v", frozen, victim.MaxClock())
	}

	// A dead executor cannot die twice, and the last survivor is spared.
	if c.InjectExecutorDeath(victim) {
		t.Fatal("second death of the same executor accepted")
	}
	if !c.InjectExecutorDeath(c.Executors()[0]) {
		t.Fatal("death of executor 0 refused")
	}
	if c.InjectExecutorDeath(c.Executors()[2]) {
		t.Fatal("killing the last live executor accepted")
	}

	var deadEvents, migEvents int
	for _, e := range log.Events() {
		switch e.Kind {
		case eventlog.ExecutorDead:
			deadEvents++
		case eventlog.PartitionsMigrated:
			migEvents++
			if e.Count <= 0 {
				t.Fatal("migration event without slot count")
			}
		}
	}
	if deadEvents != 2 || migEvents != 2 {
		t.Fatalf("events: %d executor_dead, %d partitions_migrated; want 2, 2", deadEvents, migEvents)
	}
}

// countTasksUnderLoss runs a two-job shuffle workload, injects the given
// fault between the jobs, and returns the total tasks executed plus the
// second job's results — the harness for comparing partial-bucket against
// whole-shuffle recovery.
func countTasksUnderLoss(t *testing.T, parts int, inject func(c *Cluster, shuffleID int)) (int, [][]dataflow.Record, *metrics.App) {
	t.Helper()
	ctx := dataflow.NewContext()
	c, err := NewCluster(Config{
		Executors:         2,
		MemoryPerExecutor: 1 << 20,
		Params:            costmodel.Default(),
		Controller:        NewSparkMemOnly(),
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	red, dep := shuffledPair(t, ctx, "pb", parts)
	inject(c, dep.ShuffleID)
	got := red.Collect()
	total := 0
	for i := range c.Metrics().Executors {
		total += c.Metrics().Executors[i].Tasks
	}
	return total, got, c.Finish()
}

// TestBucketLossRerunsFewerMapsThanShuffleLoss is the acceptance test for
// partial shuffle recovery: with >1 reducer, losing one bucket must
// re-run strictly fewer map tasks than losing the whole shuffle, while
// both recover to identical results.
func TestBucketLossRerunsFewerMapsThanShuffleLoss(t *testing.T) {
	const parts = 4
	none, want, _ := countTasksUnderLoss(t, parts, func(c *Cluster, sid int) {})

	bucketTasks, gotB, mB := countTasksUnderLoss(t, parts, func(c *Cluster, sid int) {
		if !c.InjectBucketLoss(sid, 2, 1) {
			t.Fatal("bucket loss refused")
		}
	})
	shuffleTasks, gotS, mS := countTasksUnderLoss(t, parts, func(c *Cluster, sid int) {
		if !c.InjectShuffleLoss(sid) {
			t.Fatal("shuffle loss refused")
		}
	})

	if !reflect.DeepEqual(gotB, want) || !reflect.DeepEqual(gotS, want) {
		t.Fatal("recovered results differ from fault-free reference")
	}
	// Bucket loss re-runs exactly the one producing map task on top of
	// the fault-free schedule; whole-shuffle loss re-runs all maps.
	if bucketTasks != none+1 {
		t.Fatalf("bucket loss ran %d tasks, want %d (fault-free %d + 1 map)", bucketTasks, none+1, none)
	}
	if shuffleTasks != none+parts {
		t.Fatalf("shuffle loss ran %d tasks, want %d", shuffleTasks, none+parts)
	}
	if bucketTasks >= shuffleTasks {
		t.Fatalf("bucket loss must re-run strictly fewer tasks: %d vs %d", bucketTasks, shuffleTasks)
	}
	if mB.FaultBucketsLost != 1 || mB.FaultMapOutputsLost != 1 {
		t.Fatalf("bucket metrics: buckets=%d maps=%d", mB.FaultBucketsLost, mB.FaultMapOutputsLost)
	}
	if mB.FaultRecoveryByClass["bucket"] <= 0 {
		t.Fatalf("no bucket recovery attributed: %v", mB.FaultRecoveryByClass)
	}
	if mS.FaultRecoveryByClass["shuffle"] <= 0 {
		t.Fatalf("no shuffle recovery attributed: %v", mS.FaultRecoveryByClass)
	}
	if mB.TotalFaultRecovery() >= mS.TotalFaultRecovery() {
		t.Fatalf("partial recovery should cost less: %v vs %v",
			mB.TotalFaultRecovery(), mS.TotalFaultRecovery())
	}
}

// runnerFunc adapts a function to dataflow.JobRunner for test wrappers.
type runnerFunc struct {
	run   func(*dataflow.Dataset, string) [][]dataflow.Record
	inner dataflow.JobRunner
}

func (r runnerFunc) RunJob(d *dataflow.Dataset, action string) [][]dataflow.Record {
	return r.run(d, action)
}
func (r runnerFunc) Unpersist(d *dataflow.Dataset) { r.inner.Unpersist(d) }
func (r runnerFunc) Release(d *dataflow.Dataset)   { r.inner.Release(d) }
