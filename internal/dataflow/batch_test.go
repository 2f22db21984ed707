package dataflow

import (
	"math/rand"
	"reflect"
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
		b := FromRecords(recs)
		got := b.Records()
		if (recs == nil) != (got == nil) {
			t.Errorf("%s: nil-ness not preserved: in=%v out=%v", name, recs == nil, got == nil)
		}
		if !reflect.DeepEqual(recs, got) {
			t.Errorf("%s: round trip mismatch:\nin:  %+v\nout: %+v", name, recs, got)
		}
		if want := EstimateRecords(recs); b.EstimateSize() != want {
			t.Errorf("%s: EstimateSize=%d, EstimateRecords=%d", name, b.EstimateSize(), want)
		}
		b.Release()
	}
}

// TestBatchSizeEquivalence is the sizing identity the engine's
// bit-identical metrics rest on: for every column type, SizeAt(i) must
// equal ValueSize(Value(i)) and EstimateSize must equal EstimateRecords
// of the boxed rows.
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
		for i := 0; i < b.Len(); i++ {
			boxed := b.Col.Value(i)
			if got, want := b.Col.SizeAt(i), ValueSize(boxed); got != want {
				t.Errorf("col %T elem %d: SizeAt=%d ValueSize(Value)=%d", b.Col, i, got, want)
			}
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
	fc := b.Col.(*FloatsColumn)
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

// TestRegisteredColumnSelected checks the registry routes a registered
// payload type to its typed column.
func TestRegisteredColumnSelected(t *testing.T) {
	type regVal struct{ X float64 }
	RegisterColumnType(regVal{}, func(capHint int) Column { return NewAnyColumn(capHint) })
	b := FromRecords([]Record{{Key: 1, Value: regVal{X: 1}}})
	if _, ok := b.Col.(*AnyColumn); !ok {
		t.Errorf("registered builder not used, got %T", b.Col)
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
