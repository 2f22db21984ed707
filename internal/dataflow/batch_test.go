package dataflow

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// sizedVal is a Sized struct payload standing in for workload types.
type sizedVal struct{ N int64 }

func (s sizedVal) SizeBytes() int64 { return 8 + s.N }

// TestBatchRoundTrip checks FromRecords/Records is lossless for every
// built-in column type, including key order, values and the
// nil-vs-empty distinction.
func TestBatchRoundTrip(t *testing.T) {
	cases := map[string][]Record{
		"nil":    nil,
		"empty":  {},
		"f64":    {{Key: 3, Value: 1.5}, {Key: 1, Value: -2.25}, {Key: 3, Value: 0.0}},
		"i64":    {{Key: 9, Value: int64(-4)}, {Key: 2, Value: int64(7)}},
		"floats": {{Key: 1, Value: []float64{1, 2, 3}}, {Key: 2, Value: []float64(nil)}, {Key: 5, Value: []float64{4}}},
		"boxed":  {{Key: 1, Value: "a"}, {Key: 2, Value: "bc"}},
		"mixed":  {{Key: 1, Value: 1.5}, {Key: 2, Value: "x"}, {Key: 3, Value: int64(2)}},
		"sized":  {{Key: 1, Value: sizedVal{N: 8}}, {Key: 2, Value: sizedVal{N: 0}}},
	}
	for name, recs := range cases {
		for _, b := range []*Batch{FromRecords(recs), Rows(recs)} {
			got := b.Records()
			if (recs == nil) != (got == nil) {
				t.Errorf("%s (row form %v): nil-ness not preserved: in=%v out=%v", name, b.RowForm(), recs == nil, got == nil)
			}
			if !reflect.DeepEqual(recs, got) || b.Len() != len(recs) {
				t.Errorf("%s (row form %v): round trip mismatch:\nin:  %+v\nout: %+v", name, b.RowForm(), recs, got)
			}
			if want := EstimateRecords(recs); b.EstimateSize() != want {
				t.Errorf("%s (row form %v): EstimateSize=%d, EstimateRecords=%d", name, b.RowForm(), b.EstimateSize(), want)
			}
			b.Release()
		}
	}
}

// TestRowFormIsShared: a row-form batch is its own copy and its own
// share, and releasing it leaves it intact for every other holder.
func TestRowFormIsShared(t *testing.T) {
	recs := []Record{{Key: 1, Value: 1.5}, {Key: 2, Value: "x"}}
	b := Rows(recs)
	if b.Share() != b || b.Keep() != b || b.CloneExact() != b {
		t.Fatal("sharing or copying a row-form batch copied it")
	}
	b.Release()
	if got := b.Records(); !b.RowForm() || len(got) != 2 || &got[0] != &recs[0] {
		t.Fatalf("Release changed a row-form batch: %+v", got)
	}
}

// TestSlicePoolRoundTripAllocatesNothing: once warm, drawing an array
// from a pool and putting it back allocates nothing — not even the
// header the pool carries it in.
func TestSlicePoolRoundTripAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop what it is given")
	}
	roundTrip := func() {
		PutI64Slice(GetI64Slice(64))
		PutF64Slice(GetF64Slice(64))
		PutI32Slice(GetI32Slice(64))
		putAnySlice(getAnySlice(64))
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("a get/put round trip through the slice pools allocates %.1f times", allocs)
	}
}

// emptyPools empties the slice pools: sync.Pool keeps what it holds for
// at most two collections.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// TestPoolSizeClasses: a draw is an array of the smallest power-of-two
// class that fits (a giant one past the largest class is exact), and
// every growth path — Batch.Append, a Ragged push, AppendBatch — moves
// to the next class, so an array built in the pools stays at most twice
// its contents and a store adopts it (Keep) rather than copying it.
func TestPoolSizeClasses(t *testing.T) {
	emptyPools() // no array of another test's making sits in a class
	for _, c := range []struct{ hint, want int }{
		{0, 8}, {8, 8}, {9, 16}, {1000, 1024}, {1 << 20, 1 << 20}, {maxPooledCap + 1, maxPooledCap + 1},
	} {
		if got := cap(GetF64Slice(c.hint)); got < c.want || got >= 2*c.want && c.hint <= maxPooledCap {
			t.Errorf("GetF64Slice(%d) has capacity %d, want the class of %d", c.hint, got, c.want)
		}
	}
	floats := NewBatch(0)
	sums := NewBatch(0)
	for i := range 3000 {
		floats.Append(int64(i), []float64{float64(i), 1})
		sums.Append(int64(i), float64(i))
	}
	sums.AppendBatch(sums.CloneExact())
	for name, b := range map[string]*Batch{"ragged": floats, "dense": sums} {
		if b.loose() {
			t.Errorf("%s: a batch grown in the pools has an array more than twice its contents", name)
		}
		if b.Keep() != b {
			t.Errorf("%s: Keep copied a batch grown in the pools", name)
		}
	}
}

// TestBatchSizeEquivalence is the sizing identity the engine's
// bit-identical metrics rest on: for every built-in column type,
// SizeBytes must equal the sum of ValueSize(Value(i)) and EstimateSize
// must equal EstimateRecords of the boxed rows. TestColumnSizeIdentity
// covers the workload packages' columns.
func TestBatchSizeEquivalence(t *testing.T) {
	recs := []Record{
		{Key: 1, Value: 0.5}, {Key: 2, Value: 1.5}, {Key: 3, Value: 2.5},
	}
	vals := [][]Record{
		recs,
		{{Key: 1, Value: int64(7)}, {Key: 2, Value: int64(-1)}},
		{{Key: 1, Value: []float64{1, 2}}, {Key: 2, Value: []float64(nil)}},
		{{Key: 1, Value: "hello"}, {Key: 2, Value: []byte{1, 2, 3}}},
		{{Key: 1, Value: sizedVal{N: 100}}},
	}
	for _, rs := range vals {
		b := FromRecords(rs)
		var sum int64
		for i := 0; i < b.Len(); i++ {
			sum += ValueSize(b.Col.Value(i))
		}
		if got := b.Col.SizeBytes(); got != sum {
			t.Errorf("col %T: SizeBytes=%d, ValueSize of the values sums to %d", b.Col, got, sum)
		}
		if got, want := b.EstimateSize(), EstimateRecords(rs); got != want {
			t.Errorf("col %T: EstimateSize=%d EstimateRecords=%d", b.Col, got, want)
		}
		b.Release()
	}
}

// TestBatchAppendFromBatch checks the unboxed routing path (shuffle
// bucket building) produces the same rows as boxing would.
func TestBatchAppendFromBatch(t *testing.T) {
	src := FromRecords([]Record{
		{Key: 1, Value: []float64{1, 2}}, {Key: 2, Value: []float64{3}}, {Key: 3, Value: []float64(nil)},
	})
	dst := NewBatch(0)
	dst.NonNil = true
	for _, i := range []int{2, 0, 1} {
		dst.AppendFromBatch(src, i)
	}
	want := []Record{
		{Key: 3, Value: []float64(nil)}, {Key: 1, Value: []float64{1, 2}}, {Key: 2, Value: []float64{3}},
	}
	if got := dst.Records(); !reflect.DeepEqual(got, want) {
		t.Errorf("AppendFromBatch mismatch:\ngot:  %+v\nwant: %+v", got, want)
	}
	src.Release()
	dst.Release()
}

// TestBatchValueCopies checks the aliasing contract: boxed values must
// not share backing storage with the (pooled) column arrays.
func TestBatchValueCopies(t *testing.T) {
	b := FromRecords([]Record{{Key: 1, Value: []float64{1, 2, 3}}})
	v := b.Col.Value(0).([]float64)
	fc := b.Col.(*Ragged[float64, []float64, FloatsKind])
	fc.Flat[0] = 99
	if v[0] != 1 {
		t.Fatal("Value aliases the column's backing array")
	}
	b.Release()
}

// TestMergeBatchByKeyF64 checks the unboxed combiner agrees with the
// boxed mergeByKey on order and values.
func TestMergeBatchByKeyF64(t *testing.T) {
	recs := []Record{
		{Key: 5, Value: 1.0}, {Key: 2, Value: 2.0}, {Key: 5, Value: 3.5},
		{Key: 7, Value: 0.25}, {Key: 2, Value: -1.0}, {Key: 5, Value: 2.0},
	}
	add := func(a, b float64) float64 { return a + b }
	want := mergeByKey(recs, func(a, b any) any { return a.(float64) + b.(float64) })
	in := FromRecords(recs)
	out := MergeBatchByKeyF64(in, add)
	if got := out.Records(); !reflect.DeepEqual(got, want) {
		t.Errorf("merge mismatch:\ngot:  %+v\nwant: %+v", got, want)
	}
	in.Release()
	out.Release()
}

// TestBatchMigrate checks mixed-type partitions fall back to the boxed
// column without losing earlier elements.
func TestBatchMigrate(t *testing.T) {
	b := NewBatch(0)
	b.NonNil = true
	b.Append(1, 1.5)
	b.Append(2, "s")
	b.Append(3, 2.5)
	want := []Record{{Key: 1, Value: 1.5}, {Key: 2, Value: "s"}, {Key: 3, Value: 2.5}}
	if got := b.Records(); !reflect.DeepEqual(got, want) {
		t.Errorf("migrate mismatch:\ngot:  %+v\nwant: %+v", got, want)
	}
	if _, ok := b.Col.(*AnyColumn); !ok {
		t.Errorf("expected AnyColumn after migration, got %T", b.Col)
	}
	b.Release()
}

// TestCombineSmallAndLargeAgree checks both combines on both sides of the
// smallCombine threshold against a plain map-based reference: same keys
// in first-seen order, and per key the same left-to-right accumulation
// (a non-associative combiner makes any reordering visible).
func TestCombineSmallAndLargeAgree(t *testing.T) {
	f := func(a, b float64) float64 { return a*1.5 - b }
	rng := rand.New(rand.NewSource(11))
	for n := 0; n <= 3*smallCombine; n++ {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{Key: int64(rng.Intn(1 + n/2)), Value: rng.Float64()}
		}
		acc := make(map[int64]float64)
		var order []int64
		for _, r := range recs {
			if v, seen := acc[r.Key]; seen {
				acc[r.Key] = f(v, r.Value.(float64))
			} else {
				acc[r.Key] = r.Value.(float64)
				order = append(order, r.Key)
			}
		}
		want := make([]Record, 0, len(order))
		for _, k := range order {
			want = append(want, Record{Key: k, Value: acc[k]})
		}
		if got := mergeByKey(recs, func(a, b any) any { return f(a.(float64), b.(float64)) }); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: row combine\ngot:  %v\nwant: %v", n, got, want)
		}
		in := FromRecords(recs)
		out := MergeBatchByKeyF64(in, f)
		if got := out.Records(); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: batch combine\ngot:  %v\nwant: %v", n, got, want)
		}
		in.Release()
		out.Release()
	}
}

// TestResidentCopiesAreExact: whatever large arrays the pools hold, a
// copy for a long-lived owner (CloneExact) sits on arrays of exactly its
// size, and a routed bucket and the container it views, drawn from the
// size-classed pools, on arrays at most twice their contents past the
// smallest class: a small cached block or retained bucket never pins a
// large released array.
func TestResidentCopiesAreExact(t *testing.T) {
	emptyPools() // each draw below is a miss of its class or an array put here
	for i := 0; i < 4; i++ {
		PutI64Slice(make([]int64, 1<<16))
		PutF64Slice(make([]float64, 1<<16))
		PutI32Slice(make([]int32, 1<<16))
	}
	check := func(what string, b *Batch, fits func(n, c int) bool) {
		t.Helper()
		_, arrays := b.Col.(FlatColumn).Layout()
		if !fits(len(b.Keys), cap(b.Keys)) {
			t.Errorf("%s: %d keys on an array of %d", what, len(b.Keys), cap(b.Keys))
		}
		for i, a := range arrays {
			var n, c int
			switch {
			case a.F64 != nil:
				n, c = len(*a.F64), cap(*a.F64)
			case a.I64 != nil:
				n, c = len(*a.I64), cap(*a.I64)
			default:
				n, c = len(*a.Off), cap(*a.Off)
			}
			if !fits(n, c) {
				t.Errorf("%s: column array %d holds %d on an array of %d", what, i, n, c)
			}
		}
	}
	exact := func(n, c int) bool { return c == n }
	classed := func(n, c int) bool { return c <= max(2*n, 1<<minClass) }
	floats := FromRecords([]Record{{Key: 1, Value: []float64{1, 2}}, {Key: 2, Value: []float64{3}}})
	check("CloneExact", floats.CloneExact(), exact)
	sums := FromRecords([]Record{{Key: 1, Value: 1.0}, {Key: 2, Value: 2.0}, {Key: 3, Value: 3.0}})
	big := NewBatch(0)
	for i := range 1000 {
		big.Append(int64(i), float64(i))
	}
	for _, in := range []*Batch{sums, floats, big} {
		buckets, owned := NewRouter(2).Split(in)
		for _, bb := range append(buckets, owned...) {
			if bb != nil {
				check("Split bucket", bb, classed)
			}
		}
	}
}

// TestCloneAndAppendBatch: a CloneExact shares no array with its
// source, and AppendBatch concatenates flat and boxed columns like
// AppendFromBatch record by record, growing the clone's exact arrays.
func TestCloneAndAppendBatch(t *testing.T) {
	for name, recs := range map[string][]Record{
		"f64":    {{Key: 1, Value: 1.5}, {Key: 2, Value: -2.0}},
		"floats": {{Key: 3, Value: []float64{1, 2}}, {Key: 4, Value: []float64(nil)}, {Key: 5, Value: []float64{3}}},
		"any":    {{Key: 6, Value: "s"}, {Key: 7, Value: 2.0}},
	} {
		src := FromRecords(recs)
		c := src.CloneExact()
		src.Release()
		if got := c.Records(); !reflect.DeepEqual(got, recs) {
			t.Errorf("%s: clone reads %v after its source was released, want %v", name, got, recs)
		}
		want := append(append([]Record(nil), recs...), recs...)
		c.AppendBatch(FromRecords(recs))
		if got := c.Records(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: AppendBatch gives %v, want %v", name, got, want)
		}
	}
}
