package dataflow

import (
	"sort"
	"testing"
	"testing/quick"
)

// buildInts creates a source of the integers [0, n) spread over parts
// partitions, value = key.
func buildInts(ctx *Context, n, parts int) *Dataset {
	return ctx.Source("ints", parts, func(part int) []Record {
		var out []Record
		for i := part; i < n; i += parts {
			out = append(out, Record{Key: int64(i), Value: int64(i)})
		}
		return out
	})
}

func collectValues(t *testing.T, parts [][]Record) []int64 {
	t.Helper()
	var vals []int64
	for _, p := range parts {
		for _, r := range p {
			vals = append(vals, r.Value.(int64))
		}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

func TestSourceAndCollect(t *testing.T) {
	ctx := NewContext()
	NewLocalRunner(ctx)
	ds := buildInts(ctx, 10, 3)
	vals := collectValues(t, ds.Collect())
	if len(vals) != 10 {
		t.Fatalf("collected %d values, want 10", len(vals))
	}
	for i, v := range vals {
		if v != int64(i) {
			t.Fatalf("vals[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestMapFilterFlatMap(t *testing.T) {
	ctx := NewContext()
	NewLocalRunner(ctx)
	ds := buildInts(ctx, 10, 2)
	doubled := ds.Map("doubled", func(r Record) Record {
		return Record{Key: r.Key, Value: r.Value.(int64) * 2}
	})
	evens := doubled.Filter("evens", func(r Record) bool { return r.Value.(int64)%4 == 0 })
	pairs := evens.FlatMap("pairs", func(r Record) []Record { return []Record{r, r} })

	vals := collectValues(t, pairs.Collect())
	// doubled = 0,2,..,18; %4==0 → 0,4,8,12,16; duplicated → 10 values.
	if len(vals) != 10 {
		t.Fatalf("got %d values, want 10: %v", len(vals), vals)
	}
	if vals[0] != 0 || vals[9] != 16 {
		t.Fatalf("unexpected values %v", vals)
	}
}

func TestReduceByKey(t *testing.T) {
	ctx := NewContext()
	NewLocalRunner(ctx)
	ds := buildInts(ctx, 100, 4)
	// Key by i%5 and sum.
	keyed := ds.Map("keyed", func(r Record) Record {
		return Record{Key: r.Key % 5, Value: int64(1)}
	})
	counts := keyed.ReduceByKey("counts", 3, func(a, b any) any {
		return a.(int64) + b.(int64)
	})
	total := int64(0)
	seen := map[int64]int64{}
	for _, part := range counts.Collect() {
		for _, r := range part {
			seen[r.Key] = r.Value.(int64)
			total += r.Value.(int64)
		}
	}
	if total != 100 {
		t.Fatalf("total count = %d, want 100", total)
	}
	if len(seen) != 5 {
		t.Fatalf("distinct keys = %d, want 5", len(seen))
	}
	for k, v := range seen {
		if v != 20 {
			t.Fatalf("count[%d] = %d, want 20", k, v)
		}
	}
}

func TestGroupByKey(t *testing.T) {
	ctx := NewContext()
	NewLocalRunner(ctx)
	ds := buildInts(ctx, 12, 3)
	keyed := ds.Map("keyed", func(r Record) Record {
		return Record{Key: r.Key % 4, Value: r.Value}
	})
	groups := keyed.GroupByKey("groups", 2)
	total := 0
	for _, part := range groups.Collect() {
		for _, r := range part {
			vs := r.Value.([]any)
			if len(vs) != 3 {
				t.Fatalf("group %d has %d values, want 3", r.Key, len(vs))
			}
			total += len(vs)
		}
	}
	if total != 12 {
		t.Fatalf("grouped %d values, want 12", total)
	}
}

func TestShuffleJoin(t *testing.T) {
	ctx := NewContext()
	NewLocalRunner(ctx)
	left := ctx.Source("left", 2, func(part int) []Record {
		if part == 0 {
			return []Record{{Key: 1, Value: int64(10)}, {Key: 2, Value: int64(20)}}
		}
		return []Record{{Key: 3, Value: int64(30)}}
	})
	right := ctx.Source("right", 3, func(part int) []Record {
		if part == 0 {
			return []Record{{Key: 1, Value: int64(100)}, {Key: 3, Value: int64(300)}}
		}
		return nil
	})
	joined := ShuffleJoin("joined", 2, left, right, func(_ int, l, r []Record) []Record {
		rv := map[int64]int64{}
		for _, rec := range r {
			rv[rec.Key] = rec.Value.(int64)
		}
		var out []Record
		for _, rec := range l {
			if v, ok := rv[rec.Key]; ok {
				out = append(out, Record{Key: rec.Key, Value: rec.Value.(int64) + v})
			}
		}
		return out
	})
	sums := map[int64]int64{}
	for _, part := range joined.Collect() {
		for _, r := range part {
			sums[r.Key] = r.Value.(int64)
		}
	}
	if len(sums) != 2 || sums[1] != 110 || sums[3] != 330 {
		t.Fatalf("join result = %v, want {1:110, 3:330}", sums)
	}
}

func TestZipRequiresEqualPartitions(t *testing.T) {
	ctx := NewContext()
	NewLocalRunner(ctx)
	a := buildInts(ctx, 4, 2)
	b := buildInts(ctx, 4, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("zip with unequal partitions should panic")
		}
	}()
	Zip("bad", OpLight, a, b, func(_ int, l, r []Record) []Record { return l })
}

func TestZipCombinesPartitionWise(t *testing.T) {
	ctx := NewContext()
	NewLocalRunner(ctx)
	a := buildInts(ctx, 6, 2)
	b := buildInts(ctx, 6, 2)
	summed := Zip("summed", OpLight, a, b, func(_ int, l, r []Record) []Record {
		out := make([]Record, len(l))
		for i := range l {
			out[i] = Record{Key: l[i].Key, Value: l[i].Value.(int64) + r[i].Value.(int64)}
		}
		return out
	})
	vals := collectValues(t, summed.Collect())
	want := []int64{0, 2, 4, 6, 8, 10}
	for i, v := range want {
		if vals[i] != v {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
}

func TestBarrierBroadcast(t *testing.T) {
	ctx := NewContext()
	NewLocalRunner(ctx)
	data := buildInts(ctx, 10, 2)
	// A tiny "model" dataset whose single record must be visible to every
	// partition of the derived dataset.
	model := ctx.Source("model", 1, func(int) []Record {
		return []Record{{Key: 0, Value: int64(100)}}
	})
	shifted := Barrier("shifted", OpLight, data, model, func(_ int, l, bc []Record) []Record {
		base := bc[0].Value.(int64)
		out := make([]Record, len(l))
		for i, r := range l {
			out[i] = Record{Key: r.Key, Value: r.Value.(int64) + base}
		}
		return out
	})
	vals := collectValues(t, shifted.Collect())
	if vals[0] != 100 || vals[9] != 109 {
		t.Fatalf("broadcast shift failed: %v", vals)
	}
}

func TestCacheAnnotations(t *testing.T) {
	ctx := NewContext()
	NewLocalRunner(ctx)
	ds := buildInts(ctx, 4, 2)
	if ds.IsCached() {
		t.Fatal("fresh dataset should not be cached")
	}
	ds.Cache()
	if !ds.IsCached() {
		t.Fatal("Cache() should mark the dataset")
	}
	ds.Unpersist()
	if ds.IsCached() {
		t.Fatal("Unpersist() should clear the mark")
	}
}

func TestReleaseRecorded(t *testing.T) {
	ctx := NewContext()
	r := NewLocalRunner(ctx)
	ds := buildInts(ctx, 4, 2)
	ds.Release()
	if !r.Released[ds.ID()] {
		t.Fatal("release not recorded by runner")
	}
}

func TestAncestors(t *testing.T) {
	ctx := NewContext()
	NewLocalRunner(ctx)
	a := buildInts(ctx, 4, 2)
	b := a.Map("b", func(r Record) Record { return r })
	c := b.ReduceByKey("c", 2, func(x, y any) any { return x })
	d := Zip("d", OpLight, c, c.Map("c2", func(r Record) Record { return r }),
		func(_ int, l, _ []Record) []Record { return l })

	anc := d.Ancestors()
	ids := map[int]bool{}
	for _, x := range anc {
		ids[x.ID()] = true
	}
	for _, want := range []*Dataset{a, b, c} {
		if !ids[want.ID()] {
			t.Fatalf("ancestors missing %s", want.Name())
		}
	}
	if ids[d.ID()] {
		t.Fatal("dataset should not be its own ancestor")
	}
}

func TestHashPartitionInRange(t *testing.T) {
	f := func(key int64, parts uint8) bool {
		p := int(parts)%64 + 1
		b := HashPartition(key, p)
		return b >= 0 && b < p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashPartitionSpreads(t *testing.T) {
	const parts = 10
	counts := make([]int, parts)
	for k := int64(0); k < 10000; k++ {
		counts[HashPartition(k, parts)]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("bucket %d has %d of 10000 keys; hash is too skewed", i, c)
		}
	}
}

func TestJobTargetsRecorded(t *testing.T) {
	ctx := NewContext()
	r := NewLocalRunner(ctx)
	ds := buildInts(ctx, 4, 2)
	ds.Count()
	ds.Map("m", func(rec Record) Record { return rec }).Count()
	if len(r.JobTargets) != 2 {
		t.Fatalf("recorded %d jobs, want 2", len(r.JobTargets))
	}
	if r.JobTargets[0] != ds {
		t.Fatal("first job target mismatch")
	}
}

// Property: MergeByKey conserves the sum for an additive combiner.
func TestMergeByKeyConservesSum(t *testing.T) {
	f := func(keys []uint8) bool {
		var in []Record
		var want int64
		for i, k := range keys {
			in = append(in, Record{Key: int64(k % 7), Value: int64(i)})
			want += int64(i)
		}
		out := MergeByKey(in, func(a, b any) any { return a.(int64) + b.(int64) })
		var got int64
		seen := map[int64]bool{}
		for _, r := range out {
			if seen[r.Key] {
				return false // duplicate key after merge
			}
			seen[r.Key] = true
			got += r.Value.(int64)
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapPartitions(t *testing.T) {
	ctx := NewContext()
	NewLocalRunner(ctx)
	ds := buildInts(ctx, 12, 3)
	// Per-partition reversal exercises whole-partition transforms.
	rev := ds.MapPartitions("rev", OpMedium, func(part int, in []Record) []Record {
		out := make([]Record, len(in))
		for i, r := range in {
			out[len(in)-1-i] = r
		}
		return out
	})
	if rev.Class() != OpMedium {
		t.Fatal("class not preserved")
	}
	vals := collectValues(t, rev.Collect())
	if len(vals) != 12 || vals[0] != 0 || vals[11] != 11 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestSourcePanicsOnBadPartitions(t *testing.T) {
	ctx := NewContext()
	defer func() {
		if recover() == nil {
			t.Fatal("zero partitions should panic")
		}
	}()
	ctx.Source("bad", 0, func(int) []Record { return nil })
}

func TestContextDatasetLookup(t *testing.T) {
	ctx := NewContext()
	NewLocalRunner(ctx)
	a := buildInts(ctx, 4, 2)
	if ctx.Dataset(a.ID()) != a {
		t.Fatal("lookup by id broken")
	}
	if ctx.Dataset(-1) != nil || ctx.Dataset(999) != nil {
		t.Fatal("out-of-range lookup should be nil")
	}
	if len(ctx.Datasets()) != 1 {
		t.Fatalf("registry has %d datasets", len(ctx.Datasets()))
	}
}

func TestCollectWithoutRunnerPanics(t *testing.T) {
	ctx := NewContext()
	ds := ctx.Source("s", 1, func(int) []Record { return nil })
	defer func() {
		if recover() == nil {
			t.Fatal("collect without runner should panic")
		}
	}()
	ds.Collect()
}

// countRunner answers every job with Counted partitions and records the
// actions it was asked for.
type countRunner struct{ actions []string }

func (r *countRunner) RunJob(target *Dataset, action string) [][]Record {
	r.actions = append(r.actions, action)
	out := make([][]Record, target.Partitions())
	for p := range out {
		out[p] = Counted(1000 * (p + 1))
	}
	return out
}
func (r *countRunner) Unpersist(*Dataset) {}
func (r *countRunner) Release(*Dataset)   {}

// TestCountIsAnAction: Count asks the runner for "count", not "collect",
// and sums the lengths of whatever it answers — Counted slices included.
func TestCountIsAnAction(t *testing.T) {
	ctx := NewContext()
	r := &countRunner{}
	ctx.SetRunner(r)
	ds := ctx.Source("s", 3, func(int) []Record { return nil })
	if n := ds.Count(); n != 1000+2000+3000 {
		t.Fatalf("Count = %d, want 6000", n)
	}
	if len(r.actions) != 1 || r.actions[0] != "count" {
		t.Fatalf("runner saw actions %v, want [count]", r.actions)
	}
	if c := Counted(5); len(c) != 5 || cap(c) != 5 || c[4] != (Record{}) {
		t.Fatalf("Counted(5) = len %d cap %d, last %+v", len(c), cap(c), c[4])
	}
}
