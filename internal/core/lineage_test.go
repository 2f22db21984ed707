package core

import (
	"testing"
	"time"

	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/storage"
)

func TestParseName(t *testing.T) {
	cases := []struct {
		in   string
		role string
		iter int
	}{
		{"ranks@3", "ranks", 3},
		{"ranks", "ranks", 0},
		{"a@b@7", "a@b", 7},
		{"weird@", "weird@", 0},
		{"x@-2", "x", -2},
	}
	for _, c := range cases {
		role, iter := ParseName(c.in)
		if role != c.role || iter != c.iter {
			t.Errorf("ParseName(%q) = (%q, %d), want (%q, %d)", c.in, role, iter, c.role, c.iter)
		}
	}
}

// chain builds src -> mapped@1 -> reduced@1 and registers it on a fresh
// lineage.
func chain(t *testing.T) (*CostLineage, *dataflow.Context, []*dataflow.Dataset) {
	t.Helper()
	ctx := dataflow.NewContext()
	dataflow.NewLocalRunner(ctx)
	src := ctx.Source("src", 2, func(part int) []dataflow.Record {
		return []dataflow.Record{{Key: int64(part), Value: float64(part)}}
	})
	mapped := src.Map("mapped@1", func(r dataflow.Record) dataflow.Record { return r })
	reduced := mapped.ReduceByKey("reduced@1", 2, func(a, b any) any { return a })
	l := NewCostLineage()
	l.ObserveJob(0, []*dataflow.Dataset{src, mapped, reduced}, reduced)
	return l, ctx, []*dataflow.Dataset{src, mapped, reduced}
}

func TestRegisterBuildsEdges(t *testing.T) {
	l, _, ds := chain(t)
	n := l.Node(ds[2].ID())
	if n == nil {
		t.Fatal("reduced not registered")
	}
	if n.Key.Role != "reduced" || n.Key.Iter != 1 {
		t.Fatalf("key = %+v", n.Key)
	}
	if len(n.Parents) != 1 || !n.Parents[0].Shuffle {
		t.Fatalf("parents = %+v, want one shuffle edge", n.Parents)
	}
	mapped := l.nodes[n.Parents[0].Parent]
	if mapped == nil || mapped.Key.Role != "mapped" {
		t.Fatalf("parent node = %+v", mapped)
	}
	if len(mapped.Parents) != 1 || mapped.Parents[0].Shuffle {
		t.Fatalf("mapped parents = %+v, want one narrow edge", mapped.Parents)
	}
}

func TestOrdinalDisambiguation(t *testing.T) {
	ctx := dataflow.NewContext()
	dataflow.NewLocalRunner(ctx)
	a := ctx.Source("tmp@1", 1, func(int) []dataflow.Record { return nil })
	b := ctx.Source("tmp@1", 1, func(int) []dataflow.Record { return nil })
	l := NewCostLineage()
	l.ObserveJob(0, []*dataflow.Dataset{a, b}, b)
	na, nb := l.Node(a.ID()), l.Node(b.ID())
	if na == nb || na.Key == nb.Key {
		t.Fatalf("duplicate names must get distinct ordinals: %+v vs %+v", na.Key, nb.Key)
	}
	if na.Key.Ordinal != 0 || nb.Key.Ordinal != 1 {
		t.Fatalf("ordinals = %d, %d", na.Key.Ordinal, nb.Key.Ordinal)
	}
}

func TestRefOffsetsLearnedOnTheRun(t *testing.T) {
	l, _, ds := chain(t)
	reduced := ds[2]
	// Job 1 references reduced again (created in job 0).
	l.ObserveJob(1, []*dataflow.Dataset{reduced}, reduced)
	n := l.Node(reduced.ID())
	// After seeing offset 1 for role "reduced", a node created at job 0
	// is predicted to be referenced at job 1.
	if got := l.FutureJobRefs(n, 0); got != 1 {
		t.Fatalf("FutureJobRefs after job 0 = %d, want 1", got)
	}
	if got := l.FutureJobRefs(n, 1); got != 0 {
		t.Fatalf("FutureJobRefs after job 1 = %d, want 0", got)
	}
	if next, ok := l.NextRefJob(n, 0); !ok || next != 1 {
		t.Fatalf("NextRefJob = %d,%v want 1,true", next, ok)
	}
}

func TestObserveAndInduct(t *testing.T) {
	ctx := dataflow.NewContext()
	dataflow.NewLocalRunner(ctx)
	l := NewCostLineage()
	// Sizes grow linearly with the iteration: 100, 200, 300 → predict
	// 400 at iteration 4.
	var last *dataflow.Dataset
	for it := 1; it <= 3; it++ {
		name := "ranks@" + itoa(it)
		ds := ctx.Source(name, 2, func(int) []dataflow.Record { return nil })
		l.ObserveJob(it-1, []*dataflow.Dataset{ds}, ds)
		l.ObservePartition(ds.ID(), 0, int64(100*it), time.Duration(10*it)*time.Millisecond)
		last = ds
	}
	_ = last
	// A future node at iteration 4 (structure only).
	future := &Node{Key: NodeKey{Role: "ranks", Iter: 4}, DatasetID: -1, Parts: 2}
	size, ok := l.PartitionSize(future, 0)
	if !ok {
		t.Fatal("induction failed")
	}
	if size < 350 || size > 450 {
		t.Fatalf("inducted size = %d, want ≈400", size)
	}
	cost, ok := l.PartitionCost(future, 0)
	if !ok || cost < 35*time.Millisecond || cost > 45*time.Millisecond {
		t.Fatalf("inducted cost = %v, want ≈40ms", cost)
	}
}

func TestObservedBeatsInduction(t *testing.T) {
	ctx := dataflow.NewContext()
	dataflow.NewLocalRunner(ctx)
	l := NewCostLineage()
	ds := ctx.Source("x@1", 1, func(int) []dataflow.Record { return nil })
	l.ObserveJob(0, []*dataflow.Dataset{ds}, ds)
	l.ObservePartition(ds.ID(), 0, 777, time.Second)
	n := l.Node(ds.ID())
	size, ok := l.PartitionSize(n, 0)
	if !ok || size != 777 {
		t.Fatalf("size = %d,%v want 777,true", size, ok)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := []byte{}
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

// --- Estimator tests ---

type fakeState map[storage.BlockID]BlockState

func (f fakeState) fn(datasetID, part int) BlockState {
	return f[storage.BlockID{Dataset: datasetID, Partition: part}]
}

func TestEstimatorEq3DiskCost(t *testing.T) {
	l, _, ds := chain(t)
	params := costmodel.Default()
	const size = 50 * 1024 * 1024
	l.ObservePartition(ds[1].ID(), 0, size, 100*time.Millisecond)
	st := fakeState{}
	e := NewEstimator(l, params, true, st.fn)
	n := l.Node(ds[1].ID())

	// Not on disk: write + read.
	if got, want := e.DiskCost(n, 0), params.DiskWrite(size)+params.DiskRead(size); got != want {
		t.Fatalf("disk cost off-disk = %v, want %v", got, want)
	}
	// On disk: read only.
	st[storage.BlockID{Dataset: ds[1].ID(), Partition: 0}] = BlockState{OnDisk: true}
	e.Reset()
	if got, want := e.DiskCost(n, 0), params.DiskRead(size); got != want {
		t.Fatalf("disk cost on-disk = %v, want %v", got, want)
	}
}

func TestEstimatorEq4Recursion(t *testing.T) {
	l, _, ds := chain(t)
	params := costmodel.Default()
	src, mapped, reduced := l.Node(ds[0].ID()), l.Node(ds[1].ID()), l.Node(ds[2].ID())
	l.ObservePartition(ds[0].ID(), 0, 1000, 10*time.Second)
	l.ObservePartition(ds[1].ID(), 0, 1000, 5*time.Second)
	l.ObservePartition(ds[2].ID(), 0, 1000, 2*time.Second)
	st := fakeState{}
	e := NewEstimator(l, params, true, st.fn)

	// Nothing cached: recompute(reduced) = own(2s) + own(mapped 5s) +
	// own(src 10s) chained.
	if got := e.RecomputeCostAt(reduced, 0, -1); got != 17*time.Second {
		t.Fatalf("full chain recompute = %v, want 17s", got)
	}
	// mapped in memory → chain cut: 2s.
	st[storage.BlockID{Dataset: ds[1].ID(), Partition: 0}] = BlockState{InMemory: true}
	e.Reset()
	if got := e.RecomputeCostAt(reduced, 0, -1); got != 2*time.Second {
		t.Fatalf("recompute with cached parent = %v, want 2s", got)
	}
	// mapped on disk instead: recovery of mapped = min(diskRead, 15s);
	// disk read of 1000 bytes is microseconds → ~2s + tiny.
	delete(st, storage.BlockID{Dataset: ds[1].ID(), Partition: 0})
	st[storage.BlockID{Dataset: ds[1].ID(), Partition: 0}] = BlockState{OnDisk: true}
	e.Reset()
	got := e.RecomputeCostAt(reduced, 0, -1)
	if got < 2*time.Second || got > 2*time.Second+10*time.Millisecond {
		t.Fatalf("recompute with disk parent = %v, want ≈2s", got)
	}
	_ = src
	_ = mapped
}

func TestEstimatorEq2MinAndPreferDisk(t *testing.T) {
	l, _, ds := chain(t)
	params := costmodel.Default()
	n := l.Node(ds[1].ID())
	st := fakeState{}

	// Small partition, long compute → disk preferred.
	l.ObservePartition(ds[1].ID(), 0, 1024, 30*time.Second)
	l.ObservePartition(ds[0].ID(), 0, 1024, 30*time.Second)
	e := NewEstimator(l, params, true, st.fn)
	if !e.PreferDiskAt(n, 0, -1) {
		t.Fatal("small+expensive partition should prefer disk")
	}
	if e.RecoveryCostAt(n, 0, -1) != e.DiskCost(n, 0) {
		t.Fatal("recovery cost should be the (smaller) disk cost")
	}

	// Huge partition, trivial compute → recompute preferred.
	l.ObservePartition(ds[1].ID(), 1, 4*1024*1024*1024, time.Millisecond)
	l.ObservePartition(ds[0].ID(), 1, 1024, time.Millisecond)
	e.Reset()
	if e.PreferDiskAt(n, 1, -1) {
		t.Fatal("huge+cheap partition should prefer recomputation")
	}

	// Disk disabled → never prefer disk, recovery = recompute.
	e2 := NewEstimator(l, params, false, st.fn)
	if e2.PreferDiskAt(n, 0, -1) {
		t.Fatal("disk disabled must never prefer disk")
	}
	if e2.RecoveryCostAt(n, 0, -1) != e2.RecomputeCostAt(n, 0, -1) {
		t.Fatal("disk disabled recovery must equal recompute")
	}
}

func TestEstimatorHypothetical(t *testing.T) {
	l, _, ds := chain(t)
	params := costmodel.Default()
	l.ObservePartition(ds[0].ID(), 0, 1000, 10*time.Second)
	l.ObservePartition(ds[1].ID(), 0, 1000, 5*time.Second)
	l.ObservePartition(ds[2].ID(), 0, 1000, 2*time.Second)
	st := fakeState{}
	e := NewEstimator(l, params, true, st.fn)
	reduced := l.Node(ds[2].ID())

	if got := e.RecomputeCostAt(reduced, 0, -1); got != 17*time.Second {
		t.Fatalf("base = %v", got)
	}
	e.SetHypothetical(map[storage.BlockID]bool{
		{Dataset: ds[1].ID(), Partition: 0}: true,
	})
	if got := e.RecomputeCostAt(reduced, 0, -1); got != 2*time.Second {
		t.Fatalf("hypothetical parent in memory = %v, want 2s", got)
	}
}

func TestMapPartition(t *testing.T) {
	if mapPartition(3, 4, 4) != 3 {
		t.Fatal("co-partitioned should map identity")
	}
	if mapPartition(5, 8, 2) != 1 {
		t.Fatal("mismatched counts should map modulo")
	}
	if mapPartition(5, 8, 0) != 0 {
		t.Fatal("zero parent parts should map to 0")
	}
}

func TestControllerAccessors(t *testing.T) {
	b := NewBlaze()
	if b.Name() != "blaze" {
		t.Fatalf("name = %q", b.Name())
	}
	if b.Lineage() == nil {
		t.Fatal("lineage accessor broken")
	}
	if b.WithWindow(2); b.ilpWindow != 2 {
		t.Fatal("WithWindow ignored")
	}
	if b.WithWindow(-5); b.ilpWindow != 2 {
		t.Fatal("negative window should be rejected")
	}
	if NewBlazeMemOnly().Name() != "blaze-mem" || NewAutoCache().Name() != "autocache" || NewCostAware().Name() != "costaware" {
		t.Fatal("preset names wrong")
	}
}

func TestProfilingOverheadOnlyWhenProfiled(t *testing.T) {
	// The flag travels in the controller's checkpoint state.
	if NewBlaze().profiled {
		t.Fatal("a controller without a skeleton reports itself profiled")
	}
	sk := &Skeleton{RefOffsets: map[string][]int{}, Nodes: map[NodeKey]*Node{}}
	if !NewBlaze().WithSkeleton(sk).profiled {
		t.Fatal("a skeleton-seeded controller does not report itself profiled")
	}
}
