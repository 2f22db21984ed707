package engine

import (
	"sort"
	"testing"
	"time"

	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/eventlog"
	"blaze/internal/metrics"
	"blaze/internal/storage"
)

// iterativeWorkload builds a PageRank-shaped iterative chain: each
// iteration shuffles contributions and derives new ranks, optionally
// caching them and releasing the previous iteration's ranks (the GraphX
// annotation pattern, Fig. 1). It returns the final ranks dataset values
// summed per run for correctness checks.
func iterativeWorkload(ctx *dataflow.Context, iters, parts, rowsPerPart int, cache bool) float64 {
	src := ctx.Source("src", parts, func(part int) []dataflow.Record {
		out := make([]dataflow.Record, rowsPerPart)
		for i := range out {
			key := int64(part*rowsPerPart + i)
			out[i] = dataflow.Record{Key: key, Value: float64(1)}
		}
		return out
	})
	ranks := src
	var prev *dataflow.Dataset
	for it := 1; it <= iters; it++ {
		contribs := ranks.FlatMap("contribs", func(r dataflow.Record) []dataflow.Record {
			v := r.Value.(float64) / 2
			return []dataflow.Record{
				{Key: r.Key, Value: v},
				{Key: (r.Key + 1) % int64(parts*rowsPerPart), Value: v},
			}
		})
		sums := contribs.ReduceByKey("sums", parts, func(a, b any) any {
			return a.(float64) + b.(float64)
		})
		newRanks := sums.Map("ranks", func(r dataflow.Record) dataflow.Record {
			return dataflow.Record{Key: r.Key, Value: 0.15 + 0.85*r.Value.(float64)}
		})
		if cache {
			newRanks.Cache()
		}
		newRanks.Count() // action: one job per iteration
		if prev != nil {
			prev.Release()
		}
		prev = newRanks
		ranks = newRanks
	}
	total := 0.0
	for _, part := range ranks.Collect() {
		for _, r := range part {
			total += r.Value.(float64)
		}
	}
	return total
}

func newTestCluster(t *testing.T, ctl Controller, memPerExec int64, alluxio bool) (*Cluster, *dataflow.Context) {
	t.Helper()
	ctx := dataflow.NewContext()
	c, err := NewCluster(Config{
		Executors:         4,
		MemoryPerExecutor: memPerExec,
		Params:            costmodel.Default(),
		Controller:        ctl,
		AlluxioMode:       alluxio,
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return c, ctx
}

func TestResultsMatchLocalRunner(t *testing.T) {
	// Reference result from the naive evaluator.
	refCtx := dataflow.NewContext()
	dataflow.NewLocalRunner(refCtx)
	want := iterativeWorkload(refCtx, 4, 6, 50, true)

	for _, ctl := range []Controller{NewSparkMemOnly(), NewSparkMemDisk(), NewLRC(MemDisk), NewMRD(MemDisk)} {
		c, ctx := newTestCluster(t, ctl, 4*1024, false) // tiny memory → heavy eviction
		got := iterativeWorkload(ctx, 4, 6, 50, true)
		if got != want {
			t.Errorf("%s: result %v != reference %v", ctl.Name(), got, want)
		}
		c.Finish()
	}
}

func TestCachingAvoidsRecompute(t *testing.T) {
	c, ctx := newTestCluster(t, NewSparkMemOnly(), 64*1024*1024, false)
	ds := ctx.Source("data", 4, func(part int) []dataflow.Record {
		return []dataflow.Record{{Key: int64(part), Value: float64(part)}}
	}).Map("mapped", func(r dataflow.Record) dataflow.Record { return r })
	ds.Cache()
	ds.Count()
	ds.Count()
	m := c.Finish()
	if m.Misses != 0 {
		t.Fatalf("cached dataset recomputed: %d misses", m.Misses)
	}
	if m.CacheHits == 0 {
		t.Fatal("expected cache hits on second job")
	}
}

func TestUncachedRecomputes(t *testing.T) {
	c, ctx := newTestCluster(t, NewSparkMemOnly(), 64*1024*1024, false)
	ds := ctx.Source("data", 4, func(part int) []dataflow.Record {
		return []dataflow.Record{{Key: int64(part), Value: float64(part)}}
	}).Map("mapped", func(r dataflow.Record) dataflow.Record { return r })
	ds.Count()
	ds.Count()
	m := c.Finish()
	if m.Misses == 0 {
		t.Fatal("uncached dataset should recompute on second job")
	}
}

func TestMemOnlyNeverTouchesDisk(t *testing.T) {
	c, ctx := newTestCluster(t, NewSparkMemOnly(), 4*1024, false)
	iterativeWorkload(ctx, 4, 4, 100, true)
	m := c.Finish()
	if m.DiskBytesWritten != 0 {
		t.Fatalf("MEM_ONLY wrote %d bytes of cache data to disk", m.DiskBytesWritten)
	}
	if m.Evictions == 0 {
		t.Fatal("tiny memory should force evictions")
	}
	if m.TotalBreakdown().DiskIO != 0 {
		t.Fatalf("MEM_ONLY charged disk I/O: %v", m.TotalBreakdown().DiskIO)
	}
}

func TestMemDiskSpills(t *testing.T) {
	c, ctx := newTestCluster(t, NewSparkMemDisk(), 4*1024, false)
	iterativeWorkload(ctx, 4, 4, 100, true)
	m := c.Finish()
	if m.DiskBytesWritten == 0 {
		t.Fatal("MEM+DISK under pressure should spill to disk")
	}
	if m.EvictionsToDisk == 0 {
		t.Fatal("expected evictions to disk")
	}
	if m.TotalBreakdown().DiskIO == 0 {
		t.Fatal("expected disk I/O time for caching")
	}
}

func TestStageSkippingAcrossJobs(t *testing.T) {
	c, ctx := newTestCluster(t, NewSparkMemOnly(), 64*1024*1024, false)
	ds := ctx.Source("data", 4, func(part int) []dataflow.Record {
		return []dataflow.Record{{Key: int64(part), Value: float64(part)}}
	}).ReduceByKey("reduced", 4, func(a, b any) any { return a })
	ds.Count()
	ds.Count() // second job reuses the shuffle outputs
	m := c.Finish()
	if m.SkippedStages == 0 {
		t.Fatal("second job should skip the completed map stage")
	}
}

func TestReleaseCleansShuffleAndRegenerates(t *testing.T) {
	c, ctx := newTestCluster(t, NewSparkMemOnly(), 64*1024*1024, false)
	src := ctx.Source("data", 4, func(part int) []dataflow.Record {
		return []dataflow.Record{{Key: int64(part), Value: float64(part)}}
	})
	reduced := src.ReduceByKey("reduced", 4, func(a, b any) any { return a })
	reduced.Count()
	ranBefore := c.Metrics().RanStages
	src.Release() // cleans the shuffle produced from src
	// A new consumer of the same shuffle must regenerate it.
	reduced.Map("m", func(r dataflow.Record) dataflow.Record { return r }).Count()
	m := c.Finish()
	if m.RanStages <= ranBefore+1 {
		t.Fatalf("expected regeneration stages, ran %d then %d", ranBefore, m.RanStages)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	c, ctx := newTestCluster(t, NewSparkMemOnly(), 64*1024*1024, false)
	iterativeWorkload(ctx, 2, 8, 20, true)
	c.Finish()
	var clocks []time.Duration
	for _, ex := range c.Executors() {
		clocks = append(clocks, ex.MaxClock())
	}
	for _, cl := range clocks {
		if cl != clocks[0] {
			t.Fatalf("clocks diverged after Finish: %v", clocks)
		}
	}
	if clocks[0] == 0 {
		t.Fatal("virtual time did not advance")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() *metrics.App {
		ctx := dataflow.NewContext()
		c, err := NewCluster(Config{
			Executors:         4,
			MemoryPerExecutor: 4 * 1024,
			Params:            costmodel.Default(),
			Controller:        NewSparkMemDisk(),
		}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		iterativeWorkload(ctx, 5, 6, 60, true)
		return c.Finish()
	}
	a, b := run(), run()
	if a.ACT != b.ACT {
		t.Fatalf("ACT differs across identical runs: %v vs %v", a.ACT, b.ACT)
	}
	if a.Evictions != b.Evictions || a.CacheHits != b.CacheHits || a.DiskBytesWritten != b.DiskBytesWritten {
		t.Fatalf("metrics differ: %+v vs %+v", a, b)
	}
}

func TestAlluxioChargesSerialization(t *testing.T) {
	c, ctx := newTestCluster(t, NewAlluxio(), 64*1024*1024, true)
	ds := ctx.Source("data", 4, func(part int) []dataflow.Record {
		return []dataflow.Record{{Key: int64(part), Value: float64(part)}}
	}).Map("mapped", func(r dataflow.Record) dataflow.Record { return r })
	ds.Cache()
	ds.Count()
	ds.Count()
	m := c.Finish()
	if m.TotalBreakdown().DiskIO == 0 {
		t.Fatal("Alluxio mode should charge (de)serialization on memory-tier caching")
	}
}

func TestEvictionSkewRecorded(t *testing.T) {
	c, ctx := newTestCluster(t, NewSparkMemDisk(), 4*1024, false)
	iterativeWorkload(ctx, 4, 8, 80, true)
	m := c.Finish()
	var evicted int64
	for _, ex := range m.Executors {
		evicted += ex.EvictedBytes
	}
	if evicted == 0 {
		t.Fatal("expected evicted bytes under pressure")
	}
	// Every executor's stats must be accounted (some may be zero, but
	// the vector length matches the cluster).
	if len(m.Executors) != 4 {
		t.Fatalf("executor stats length %d, want 4", len(m.Executors))
	}
}

func TestRecomputeAttributedToJobs(t *testing.T) {
	c, ctx := newTestCluster(t, NewSparkMemOnly(), 4*1024, false)
	mk := func(name string) *dataflow.Dataset {
		return ctx.Source(name, 4, func(part int) []dataflow.Record {
			out := make([]dataflow.Record, 100)
			for i := range out {
				out[i] = dataflow.Record{Key: int64(part*100 + i), Value: float64(i)}
			}
			return out
		}).Map(name+"-m", func(r dataflow.Record) dataflow.Record { return r })
	}
	a, b := mk("a"), mk("b")
	a.Cache()
	b.Cache()
	a.Count() // job 0: a cached, fills memory
	b.Count() // job 1: b cached, evicts a (LRU)
	a.Count() // job 2: a must be recomputed
	m := c.Finish()
	if m.TotalRecompute() == 0 {
		t.Fatal("evicted cached data should be recomputed under MEM_ONLY")
	}
	if len(m.RecomputeByJob) < 3 || m.RecomputeByJob[2] == 0 {
		t.Fatalf("recomputation must be attributed to job 2: %v", m.RecomputeByJob)
	}
	if m.RecomputeByJob[0] != 0 {
		t.Fatalf("job 0 computed fresh data, not recomputation: %v", m.RecomputeByJob)
	}
}

func TestUnpersistFreesMemory(t *testing.T) {
	c, ctx := newTestCluster(t, NewSparkMemOnly(), 64*1024*1024, false)
	ds := ctx.Source("data", 4, func(part int) []dataflow.Record {
		return []dataflow.Record{{Key: int64(part), Value: float64(part)}}
	}).Map("mapped", func(r dataflow.Record) dataflow.Record { return r })
	ds.Cache()
	ds.Count()
	used := int64(0)
	for _, ex := range c.Executors() {
		used += ex.Mem.Capacity() - ex.Mem.Free()
	}
	if used == 0 {
		t.Fatal("cached data should occupy memory")
	}
	ds.Unpersist()
	for _, ex := range c.Executors() {
		if used := ex.Mem.Capacity() - ex.Mem.Free(); used != 0 {
			t.Fatalf("executor %d still holds %d bytes after unpersist", ex.ID, used)
		}
	}
	if c.Metrics().Unpersists == 0 {
		t.Fatal("unpersist not counted")
	}
}

func TestMemoryNeverExceedsCapacity(t *testing.T) {
	const cap = 3 * 1024
	ctx := dataflow.NewContext()
	c, err := NewCluster(Config{
		Executors:         3,
		MemoryPerExecutor: cap,
		Params:            costmodel.Default(),
		Controller:        NewSparkMemDisk(),
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	iterativeWorkload(ctx, 4, 6, 120, true)
	for _, ex := range c.Executors() {
		if used := ex.Mem.Capacity() - ex.Mem.Free(); used > cap {
			t.Fatalf("executor %d used %d > capacity %d", ex.ID, used, cap)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	ctx := dataflow.NewContext()
	if _, err := NewCluster(Config{Executors: 0, MemoryPerExecutor: 1, Params: costmodel.Default(), Controller: NewSparkMemOnly()}, ctx); err == nil {
		t.Fatal("zero executors should be rejected")
	}
	if _, err := NewCluster(Config{Executors: 1, MemoryPerExecutor: 0, Params: costmodel.Default(), Controller: NewSparkMemOnly()}, ctx); err == nil {
		t.Fatal("zero memory should be rejected")
	}
	if _, err := NewCluster(Config{Executors: 1, MemoryPerExecutor: 1, Params: costmodel.Default()}, ctx); err == nil {
		t.Fatal("missing controller should be rejected")
	}
}

func TestBlockPlacementLocality(t *testing.T) {
	c, ctx := newTestCluster(t, NewSparkMemOnly(), 64*1024*1024, false)
	ds := ctx.Source("data", 8, func(part int) []dataflow.Record {
		return []dataflow.Record{{Key: int64(part), Value: float64(part)}}
	}).Map("mapped", func(r dataflow.Record) dataflow.Record { return r })
	ds.Cache()
	ds.Count()
	// Every partition p must be cached on executor p mod E.
	for p := 0; p < 8; p++ {
		ex := c.ExecutorFor(p)
		if !ex.Mem.Contains(storage.BlockID{Dataset: ds.ID(), Partition: p}) {
			t.Fatalf("partition %d not cached on home executor %d", p, ex.ID)
		}
	}
	c.Finish()
}

func TestJobDAGDatasetsSorted(t *testing.T) {
	c, ctx := newTestCluster(t, NewSparkMemOnly(), 64*1024*1024, false)
	_ = c
	src := ctx.Source("data", 2, func(part int) []dataflow.Record {
		return []dataflow.Record{{Key: int64(part), Value: float64(part)}}
	})
	red := src.ReduceByKey("r", 2, func(a, b any) any { return a })
	job := c.buildJob(red)
	if len(job.Stages) != 2 || !job.Stages[len(job.Stages)-1].IsResult {
		t.Fatalf("unexpected stage structure: %d stages", len(job.Stages))
	}
	if !sort.SliceIsSorted(job.Datasets, func(i, j int) bool {
		return job.Datasets[i].ID() < job.Datasets[j].ID()
	}) {
		t.Fatal("job datasets not sorted")
	}
}

func TestEventLogRecordsLifecycle(t *testing.T) {
	log := eventlog.New()
	ctx := dataflow.NewContext()
	c, err := NewCluster(Config{
		Executors:         2,
		MemoryPerExecutor: 4 * 1024,
		Params:            costmodel.Default(),
		Controller:        NewSparkMemDisk(),
		EventLog:          log,
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	iterativeWorkload(ctx, 3, 4, 80, true)
	c.Finish()

	if log.Len() == 0 {
		t.Fatal("event log empty")
	}
	kinds := map[eventlog.Kind]int{}
	for _, e := range log.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []eventlog.Kind{eventlog.JobStart, eventlog.JobEnd, eventlog.TaskEnd, eventlog.BlockAdmitted, eventlog.BlockHit} {
		if kinds[k] == 0 {
			t.Errorf("no %s events recorded", k)
		}
	}
	if kinds[eventlog.JobStart] != kinds[eventlog.JobEnd] {
		t.Fatalf("unbalanced job events: %d starts, %d ends", kinds[eventlog.JobStart], kinds[eventlog.JobEnd])
	}
	sum := eventlog.Summarize(log)
	if len(sum.Jobs) != kinds[eventlog.JobStart] {
		t.Fatalf("summary jobs %d != job starts %d", len(sum.Jobs), kinds[eventlog.JobStart])
	}
	// Spills under pressure must be attributed to datasets.
	foundNamed := false
	for _, d := range sum.Datasets {
		if d.Name != "" && d.Admitted > 0 {
			foundNamed = true
		}
	}
	if !foundNamed {
		t.Fatal("no named dataset summaries")
	}
}

func TestClusterAccessors(t *testing.T) {
	c, _ := newTestCluster(t, NewSparkMemOnly(), 1024, false)
	if err := c.Params().Validate(); err != nil {
		t.Fatal(err)
	}
	if c.ShuffleComplete(12345) {
		t.Fatal("unknown shuffle should not be complete")
	}
	c.AddProfilingTime(3 * time.Second)
	if m := c.Finish(); m.ACT < 3*time.Second {
		t.Fatalf("profiling time not charged into ACT: %v", m.ACT)
	}
	for _, ex := range c.Executors() {
		if len(ex.cores) != 1 {
			t.Fatalf("default cores = %d, want 1", len(ex.cores))
		}
	}
	if NewSparkMemOnly().Name() != "spark-mem" || NewAlluxio().Name() != "spark-alluxio" {
		t.Fatal("controller names wrong")
	}
}

// removalCounter counts OnBlockRemoved notifications per block.
type removalCounter struct {
	*AnnotationController
	removed map[storage.BlockID]int
}

func (r *removalCounter) OnBlockRemoved(ex *Executor, id storage.BlockID) { r.removed[id]++ }

// TestDropNotifiesOncePerBlock: a block resident in memory and on disk
// that DropBlock, DropDataset or an injected loss removes from both
// tiers is announced to the controller once, as OnBlockRemoved promises.
func TestDropNotifiesOncePerBlock(t *testing.T) {
	ctl := &removalCounter{NewSparkMemDisk(), map[storage.BlockID]int{}}
	c, ctx := newTestCluster(t, ctl, 1<<20, false)
	ds := ctx.Source("data", 3, func(part int) []dataflow.Record { return nil })
	ex := c.Executors()[0]
	recs := []dataflow.Record{{Key: 1, Value: 1.5}}
	ids := make([]storage.BlockID, 3)
	for p := range ids {
		ids[p] = storage.BlockID{Dataset: ds.ID(), Partition: p}
		if _, err := ex.Mem.Put(ids[p], recs, 40, ex.ID, 0); err != nil {
			t.Fatal(err)
		}
		if err := ex.Disk.Put(ids[p], storage.Fresh(recs), 40); err != nil {
			t.Fatal(err)
		}
	}
	c.DropBlock(ex, ids[0])
	if !c.InjectBlockLoss(ex, ids[1]) {
		t.Fatal("InjectBlockLoss found no block")
	}
	c.DropDataset(ds)
	for _, id := range ids {
		if n := ctl.removed[id]; n != 1 {
			t.Errorf("block %v: %d OnBlockRemoved notifications, want 1", id, n)
		}
		if ex.Mem.Contains(id) || ex.Disk.Contains(id) {
			t.Errorf("block %v still resident", id)
		}
	}
	if n := c.Metrics().Unpersists; n != 2 {
		t.Errorf("%d unpersists counted, want 2 (DropBlock and DropDataset)", n)
	}
	c.Finish()
}
