package core

import (
	"testing"
	"time"

	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/engine"
	"blaze/internal/storage"
)

// decisionFixture builds a Blaze-controlled cluster with two cached
// single-partition datasets whose metrics the test then overrides to
// steer the cost model.
type decisionFixture struct {
	ctl *Controller
	c   *engine.Cluster
	ctx *dataflow.Context
	a   *dataflow.Dataset // "big but cheap to recompute"
	b   *dataflow.Dataset // "small but expensive to recompute"
}

func newDecisionFixture(t *testing.T) *decisionFixture {
	t.Helper()
	ctx := dataflow.NewContext()
	ctl := NewBlaze()
	c, err := engine.NewCluster(engine.Config{
		Executors:         1,
		MemoryPerExecutor: 1 << 20,
		Params:            costmodel.Default(),
		Controller:        ctl,
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string) *dataflow.Dataset {
		return ctx.Source(name+"-src@0", 1, func(int) []dataflow.Record {
			return []dataflow.Record{{Key: 1, Value: int64(1)}}
		}).Map(name+"@0", func(r dataflow.Record) dataflow.Record { return r })
	}
	a, b := mk("bigcheap"), mk("smallcostly")
	// Pre-seed far-future reference offsets (as a profiled skeleton
	// would) so auto-unpersist keeps both datasets alive for the test.
	for _, role := range []string{"bigcheap", "smallcostly", "bigcheap-src", "smallcostly-src"} {
		ctl.lin.addRefOffset(role, 10)
	}
	a.Count()
	b.Count()
	f := &decisionFixture{ctl: ctl, c: c, ctx: ctx, a: a, b: b}
	ex := c.Executors()[0]
	for _, ds := range []*dataflow.Dataset{a, b} {
		if !ex.Mem.Contains(storage.BlockID{Dataset: ds.ID(), Partition: 0}) {
			t.Fatalf("setup: %s not cached", ds.Name())
		}
	}
	return f
}

func TestVictimDispositionFollowsCosts(t *testing.T) {
	f := newDecisionFixture(t)
	lin := f.ctl.lin
	// a: 10 MB partition that takes 1ms to recompute → recompute wins.
	lin.ObservePartition(f.a.ID(), 0, 10<<20, time.Millisecond)
	// b: 1 KB partition that takes 10s to recompute → disk wins.
	lin.ObservePartition(f.b.ID(), 0, 1024, 10*time.Second)
	// Also make their sources expensive/cheap consistently.
	for _, ds := range f.ctx.Datasets() {
		switch ds.Name() {
		case "bigcheap-src@0":
			lin.ObservePartition(ds.ID(), 0, 1024, time.Millisecond)
		case "smallcostly-src@0":
			lin.ObservePartition(ds.ID(), 0, 1024, 10*time.Second)
		}
	}

	ex := f.c.Executors()[0]
	victims := f.ctl.SelectVictims(ex, 1<<30) // evict everything
	if len(victims) < 2 {
		t.Fatalf("expected 2 victims, got %d", len(victims))
	}
	byDS := map[int]engine.Victim{}
	for _, v := range victims {
		byDS[v.ID.Dataset] = v
	}
	if v, ok := byDS[f.a.ID()]; !ok || v.ToDisk {
		t.Fatalf("big-cheap partition should be dropped for recomputation, got %+v", v)
	}
	if v, ok := byDS[f.b.ID()]; !ok || !v.ToDisk {
		t.Fatalf("small-expensive partition should be spilled to disk, got %+v", v)
	}
}

func TestVictimOrderEvictsCheapestFirst(t *testing.T) {
	f := newDecisionFixture(t)
	lin := f.ctl.lin
	// a is nearly free to recover; b is precious.
	lin.ObservePartition(f.a.ID(), 0, 2048, time.Microsecond)
	lin.ObservePartition(f.b.ID(), 0, 2048, 10*time.Second)

	ex := f.c.Executors()[0]
	victims := f.ctl.SelectVictims(ex, 1024) // only one victim needed
	if len(victims) == 0 {
		t.Fatal("no victims selected")
	}
	// The precious partition must never be the preferred victim; the
	// cheap one (or its near-free source) goes first.
	if victims[0].ID.Dataset == f.b.ID() {
		t.Fatalf("expensive partition chosen as first victim: %+v", victims[0])
	}
	// And in a full ordering, b comes last.
	all := f.ctl.SelectVictims(ex, 1<<30)
	if last := all[len(all)-1]; last.ID.Dataset != f.b.ID() {
		t.Fatalf("expensive partition should be the last victim, got dataset %d", last.ID.Dataset)
	}
}

func TestMemOnlyBlazeNeverSpills(t *testing.T) {
	ctx := dataflow.NewContext()
	ctl := NewBlazeMemOnly()
	c, err := engine.NewCluster(engine.Config{
		Executors:         1,
		MemoryPerExecutor: 1 << 20,
		Params:            costmodel.Default(),
		Controller:        ctl,
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	ds := ctx.Source("m-src@0", 1, func(int) []dataflow.Record {
		return []dataflow.Record{{Key: 1, Value: int64(1)}}
	}).Map("m@0", func(r dataflow.Record) dataflow.Record { return r })
	ctl.lin.addRefOffset("m", 10)
	ds.Count()
	// Even for an arbitrarily expensive partition, disk is not an option.
	ctl.lin.ObservePartition(ds.ID(), 0, 1024, time.Hour)
	for _, v := range ctl.SelectVictims(c.Executors()[0], 1<<30) {
		if v.ToDisk {
			t.Fatalf("memory-only Blaze must never spill, got %+v", v)
		}
	}
}

func TestAblationsAlwaysSpill(t *testing.T) {
	for _, mk := range []func() *Controller{NewAutoCache, NewCostAware} {
		ctx := dataflow.NewContext()
		ctl := mk()
		c, err := engine.NewCluster(engine.Config{
			Executors:         1,
			MemoryPerExecutor: 1 << 20,
			Params:            costmodel.Default(),
			Controller:        ctl,
		}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		ctl.lin.addRefOffset("a", 10)
		ds := ctx.Source("a-src@0", 1, func(int) []dataflow.Record {
			return []dataflow.Record{{Key: 1, Value: int64(1)}}
		}).Map("a@0", func(r dataflow.Record) dataflow.Record { return r })
		ds.Count()
		victims := ctl.SelectVictims(c.Executors()[0], 1<<30)
		if len(victims) == 0 {
			t.Fatalf("%s: no victims", ctl.Name())
		}
		for _, v := range victims {
			if !v.ToDisk {
				t.Fatalf("%s always spills to disk (the §7.3 ablation semantics), got %+v", ctl.Name(), v)
			}
		}
	}
}

func TestPlaceComputedSkipsZeroRefData(t *testing.T) {
	ctx := dataflow.NewContext()
	ctl := NewBlaze()
	c, err := engine.NewCluster(engine.Config{
		Executors:         1,
		MemoryPerExecutor: 1 << 20,
		Params:            costmodel.Default(),
		Controller:        ctl,
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	// A one-shot dataset: computed once, never referenced again.
	ds := ctx.Source("once-src@0", 1, func(int) []dataflow.Record {
		return []dataflow.Record{{Key: 1, Value: int64(1)}}
	}).Map("once@0", func(r dataflow.Record) dataflow.Record { return r })
	ds.Count()
	ex := c.Executors()[0]
	// Nothing should be cached after the single job + auto-unpersist.
	if used := ex.Mem.Capacity() - ex.Mem.Free(); used != 0 {
		t.Fatalf("one-shot data occupies %d bytes after its job", used)
	}
}

// TestPlaceComputedIntoFreeMemorySeesEviction is the regression case for
// the admission fast path: with memory free, PlaceComputed only chooses
// the off-memory fallback, and that choice must be priced under the
// states of this round — here, right after the partition's only ancestor
// left both tiers — not under whatever an earlier round memoized.
func TestPlaceComputedIntoFreeMemorySeesEviction(t *testing.T) {
	f := newDecisionFixture(t)
	lin := f.ctl.lin
	ex := f.c.Executors()[0]
	var src *dataflow.Dataset
	for _, ds := range f.ctx.Datasets() {
		if ds.Name() == "bigcheap-src@0" {
			src = ds
		}
	}
	srcID := storage.BlockID{Dataset: src.ID(), Partition: 0}
	if !ex.Mem.Contains(srcID) {
		t.Fatal("setup: the ancestor is not cached")
	}
	// Recomputing the partition is free while its ancestor is resident
	// and takes 10s once it is not; spilling 1 KB sits in between.
	lin.ObservePartition(f.a.ID(), 0, 1024, time.Nanosecond)
	lin.ObservePartition(src.ID(), 0, 1024, 10*time.Second)

	primary, fallback := f.ctl.PlaceComputed(ex, f.a, 0, 1024)
	if primary != engine.PlaceMemory || fallback != engine.PlaceNone {
		t.Fatalf("with the ancestor resident: placement = %v/%v, want memory/none", primary, fallback)
	}
	f.c.DropBlock(ex, srcID)
	primary, fallback = f.ctl.PlaceComputed(ex, f.a, 0, 1024)
	if primary != engine.PlaceMemory || fallback != engine.PlaceDisk {
		t.Fatalf("right after the ancestor was evicted: placement = %v/%v, want memory/disk", primary, fallback)
	}
}
