package engine

import (
	"testing"
	"time"

	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/storage"
)

// diamond builds src -> (left, right) -> join, a diamond DAG with two
// shuffles sharing one grandparent.
func diamond(ctx *dataflow.Context) (*dataflow.Dataset, *dataflow.Dataset) {
	src := ctx.Source("d-src@0", 4, func(part int) []dataflow.Record {
		var out []dataflow.Record
		for i := part; i < 40; i += 4 {
			out = append(out, dataflow.Record{Key: int64(i), Value: int64(i)})
		}
		return out
	})
	left := src.ReduceByKey("d-left@0", 4, func(a, b any) any { return a })
	right := src.Map("d-map@0", func(r dataflow.Record) dataflow.Record {
		return dataflow.Record{Key: r.Key, Value: r.Value.(int64) * 2}
	}).ReduceByKey("d-right@0", 4, func(a, b any) any { return a })
	join := dataflow.ShuffleJoin("d-join@0", 4, left, right, func(_ int, l, r []dataflow.Record) []dataflow.Record {
		vals := map[int64]int64{}
		for _, rec := range r {
			vals[rec.Key] = rec.Value.(int64)
		}
		var out []dataflow.Record
		for _, rec := range l {
			if v, ok := vals[rec.Key]; ok {
				out = append(out, dataflow.Record{Key: rec.Key, Value: rec.Value.(int64) + v})
			}
		}
		return out
	})
	return src, join
}

func TestDiamondJobStructure(t *testing.T) {
	c, ctx := newTestCluster(t, NewSparkMemOnly(), 1<<20, false)
	_, join := diamond(ctx)
	job := c.buildJob(join)
	// Stages: left map, (map+right) map for both shuffle sides of the
	// join plus the two reduce map stages, then the result stage last.
	if got := len(job.Stages); got != 5 {
		t.Fatalf("diamond stages = %d, want 5", got)
	}
	if !job.Stages[len(job.Stages)-1].IsResult {
		t.Fatal("last stage must be the result stage")
	}
	// The shared grandparent appears in exactly the two map-side
	// pipelines that compute it.
	seen := 0
	for _, st := range job.Stages {
		for _, d := range st.Pipeline {
			if d.Name() == "d-src@0" {
				seen++
			}
		}
	}
	if seen != 2 {
		t.Fatalf("src appears in %d pipelines, want 2", seen)
	}
}

func TestDiamondComputesCorrectly(t *testing.T) {
	refCtx := dataflow.NewContext()
	dataflow.NewLocalRunner(refCtx)
	_, refJoin := diamond(refCtx)
	wantSum := int64(0)
	for _, part := range refJoin.Collect() {
		for _, r := range part {
			wantSum += r.Value.(int64)
		}
	}

	c, ctx := newTestCluster(t, NewSparkMemDisk(), 2048, false)
	_, join := diamond(ctx)
	gotSum := int64(0)
	for _, part := range join.Collect() {
		for _, r := range part {
			gotSum += r.Value.(int64)
		}
	}
	if gotSum != wantSum {
		t.Fatalf("diamond sum = %d, want %d", gotSum, wantSum)
	}
	c.Finish()
}

func TestTruncationAtFullyCachedBoundary(t *testing.T) {
	c, ctx := newTestCluster(t, NewSparkMemOnly(), 1<<20, false)
	src := ctx.Source("t-src@0", 4, func(part int) []dataflow.Record {
		return []dataflow.Record{{Key: int64(part), Value: int64(part)}}
	})
	red := src.ReduceByKey("t-red@0", 4, func(a, b any) any { return a })
	red.Cache()
	red.Count()
	// Release the parent: the shuffle is cleaned, but red is fully
	// cached, so a new job on red must have a single (result) stage and
	// must not regenerate anything.
	src.Release()
	ranBefore := c.Metrics().RanStages
	job := c.buildJob(red)
	if len(job.Stages) != 1 {
		t.Fatalf("fully cached target should build 1 stage, got %d", len(job.Stages))
	}
	red.Count()
	if got := c.Metrics().RanStages; got != ranBefore+1 {
		t.Fatalf("cached-target job ran %d stages, want 1", got-ranBefore)
	}
	if c.Metrics().Misses != 0 {
		t.Fatal("no recomputation should occur for a fully cached target")
	}
}

func TestPartitionCountsPreserved(t *testing.T) {
	c, ctx := newTestCluster(t, NewSparkMemOnly(), 1<<20, false)
	src := ctx.Source("p-src@0", 6, func(part int) []dataflow.Record {
		return []dataflow.Record{{Key: int64(part), Value: int64(part)}}
	})
	red := src.ReduceByKey("p-red@0", 3, func(a, b any) any { return a })
	parts := red.Collect()
	if len(parts) != 3 {
		t.Fatalf("reduce produced %d partitions, want 3", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total != 6 {
		t.Fatalf("reduce lost records: %d, want 6", total)
	}
	c.Finish()
}

func TestMRDPrefetchPromotesFromDisk(t *testing.T) {
	// Force blocks onto disk, then verify MRD's barrier-idle prefetching
	// brings soon-referenced blocks back into memory without charging
	// executor clocks.
	ctx := dataflow.NewContext()
	ctl := NewMRD(MemDisk)
	c, err := NewCluster(Config{
		Executors:         2,
		MemoryPerExecutor: 1 << 20,
		Params:            costmodel.Default(),
		Controller:        ctl,
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	ds := ctx.Source("m-src@0", 4, func(part int) []dataflow.Record {
		out := make([]dataflow.Record, 50)
		for i := range out {
			out[i] = dataflow.Record{Key: int64(part*50 + i), Value: float64(i)}
		}
		return out
	}).Map("m-data@0", func(r dataflow.Record) dataflow.Record { return r })
	ds.Cache()
	ds.Count()
	// Manually demote every block to disk-only (as if evicted earlier).
	for _, ex := range c.Executors() {
		for _, m := range ex.Mem.Blocks() {
			c.SpillBlock(ex, m.ID)
		}
	}
	for _, ex := range c.Executors() {
		if ex.Mem.Free() != ex.Mem.Capacity() {
			t.Fatal("setup: memory not empty")
		}
	}
	// A new job referencing ds gives its blocks a finite reference
	// distance; prefetch happens at stage barriers of that job.
	ds.Count()
	// After the job, at least reads happened from disk or memory; the
	// prefetch path must not have corrupted anything and the metrics
	// stay consistent.
	m := c.Finish()
	if m.DiskHits == 0 && m.CacheHits == 0 {
		t.Fatal("no accesses recorded")
	}
}

func TestSpillKeepsDiskCopyOnRepeatEviction(t *testing.T) {
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
	ds := ctx.Source("k-src@0", 1, func(int) []dataflow.Record {
		return []dataflow.Record{{Key: 1, Value: int64(1)}}
	}).Map("k-data@0", func(r dataflow.Record) dataflow.Record { return r })
	ds.Cache()
	ds.Count()
	ex := c.Executors()[0]
	id := storage.BlockID{Dataset: ds.ID(), Partition: 0}

	if !c.SpillBlock(ex, id) {
		t.Fatal("first spill failed")
	}
	written := ex.Disk.TotalWritten()
	if !c.PromoteBlock(ex, id, true) {
		t.Fatal("promote failed")
	}
	if !ex.Disk.Contains(id) {
		t.Fatal("promotion must retain the disk copy")
	}
	if !c.SpillBlock(ex, id) {
		t.Fatal("second spill failed")
	}
	if ex.Disk.TotalWritten() != written {
		t.Fatalf("re-eviction rewrote the disk copy: %d -> %d", written, ex.Disk.TotalWritten())
	}
}

func TestMultiCoreSpeedsUpStages(t *testing.T) {
	run := func(cores int) (float64, time.Duration) {
		ctx := dataflow.NewContext()
		c, err := NewCluster(Config{
			Executors:         2,
			CoresPerExecutor:  cores,
			MemoryPerExecutor: 1 << 20,
			Params:            costmodel.Default(),
			Controller:        NewSparkMemOnly(),
		}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		sum := iterativeWorkload(ctx, 3, 8, 60, true)
		return sum, c.Finish().ACT
	}
	sum1, act1 := run(1)
	sum4, act4 := run(4)
	if sum1 != sum4 {
		t.Fatalf("results differ across core counts: %v vs %v", sum1, sum4)
	}
	if act4 >= act1 {
		t.Fatalf("4 cores (%v) should beat 1 core (%v)", act4, act1)
	}
	// With 8 partitions over 2 executors (4 tasks each), 4 cores should
	// approach but not exceed a 4x win (barriers and shared stages).
	if act4 < act1/5 {
		t.Fatalf("impossible speedup: %v -> %v", act1, act4)
	}
}

func TestMultiCoreDeterministic(t *testing.T) {
	run := func() time.Duration {
		ctx := dataflow.NewContext()
		c, err := NewCluster(Config{
			Executors:         3,
			CoresPerExecutor:  3,
			MemoryPerExecutor: 4 * 1024,
			Params:            costmodel.Default(),
			Controller:        NewSparkMemDisk(),
		}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		iterativeWorkload(ctx, 4, 9, 60, true)
		return c.Finish().ACT
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("multi-core runs not deterministic: %v vs %v", a, b)
	}
}
