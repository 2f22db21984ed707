package storage_test

// Fuzz target for the partition codec: EncodeRecords/DecodeRecords must
// be an exact round trip over the registered workload value types, for
// any record mix, including the empty and nil partitions, and must take
// the typed columnar path exactly when the partition is homogeneous in a
// type that has a flat column. CI runs the seed corpus alongside the ILP
// fuzz targets (go test -run Fuzz); local fuzzing explores further with
// go test -fuzz=FuzzRecordsRoundTrip.

import (
	"math"
	"reflect"
	"testing"

	"blaze/internal/dataflow"
	"blaze/internal/graphx"
	"blaze/internal/mllib"
	"blaze/internal/storage"
)

func init() {
	// The workload packages register their own types; the fuzz mix also
	// uses these base slice types.
	storage.RegisterValueType([]byte{})
	storage.RegisterValueType([]int64{})
	storage.RegisterValueType("")
}

// fuzzValue derives one registered-type value from the fuzz inputs.
// selector picks the type; the scalars seed its contents.
func fuzzValue(selector uint8, k int64, f float64, s string, b []byte) any {
	switch selector % 10 {
	case 0:
		return f
	case 1:
		return k
	case 2:
		return s
	case 3:
		return append([]byte(nil), b...)
	case 4:
		return []float64{f, f * 2, -f}
	case 5:
		return []int64{k, -k}
	case 6:
		return graphx.AdjList{Dsts: []int64{k, k + 1, k + 2}}
	case 7:
		return graphx.VertexRank{Adj: []int64{k}, Rank: f}
	case 8:
		return mllib.LabeledPoint{X: []float64{f, f + 1}, Y: f}
	default:
		return mllib.Vector{V: []float64{f}}
	}
}

func FuzzRecordsRoundTrip(f *testing.F) {
	f.Add(uint8(0), int64(0), 0.0, "", []byte(nil), uint8(0))
	f.Add(uint8(1), int64(42), 1.5, "hello", []byte{1, 2, 3}, uint8(3))
	f.Add(uint8(6), int64(-7), math.Inf(1), "π", []byte{0xff}, uint8(5))
	f.Add(uint8(8), int64(math.MaxInt64), -0.0, "a\x00b", []byte{}, uint8(7))
	f.Add(uint8(9), int64(math.MinInt64), math.SmallestNonzeroFloat64, "長い文字列", []byte("gob"), uint8(255))
	// Homogeneous partitions (n's top bit) of every selector, with a NaN
	// that carries payload bits.
	nan := math.Float64frombits(0x7ff8_0000_0000_beef)
	for sel := uint8(0); sel < 10; sel++ {
		f.Add(sel, int64(sel), nan, "s", []byte{7}, uint8(0x80|6))
	}

	f.Fuzz(func(t *testing.T, selector uint8, k int64, fv float64, s string, b []byte, n uint8) {
		// n%4 == 0 exercises the degenerate partitions: nil and empty.
		var recs []dataflow.Record
		switch {
		case n%4 == 0:
			recs = nil
		case n%4 == 1:
			recs = []dataflow.Record{}
		default:
			// The top bit of n keeps one value type for the whole
			// partition; otherwise the type rotates record by record.
			recs = make([]dataflow.Record, int(n%16)+1)
			for i := range recs {
				sel := selector
				if n&0x80 == 0 {
					sel += uint8(i)
				}
				recs[i] = dataflow.Record{Key: k + int64(i), Value: fuzzValue(sel, k+int64(i), fv, s, b)}
			}
		}
		wantMarker := dataflow.BlockTyped
		for _, r := range recs {
			switch r.Value.(type) {
			case float64, int64, []float64, graphx.AdjList, graphx.VertexRank, mllib.Vector:
				if reflect.TypeOf(r.Value) == reflect.TypeOf(recs[0].Value) {
					continue
				}
			}
			wantMarker = dataflow.BlockGob // mixed, or string / []byte / []int64 / LabeledPoint
		}

		data, err := storage.EncodeRecords(recs)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if data[0] != wantMarker {
			t.Fatalf("partition %#v encoded with marker %d, want %d", recs, data[0], wantMarker)
		}
		back, err := storage.DecodeRecords(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if (recs == nil) != (back == nil) {
			t.Fatalf("nilness lost: in nil=%v out nil=%v", recs == nil, back == nil)
		}
		if len(back) != len(recs) {
			t.Fatalf("%d records became %d", len(recs), len(back))
		}
		for i := range recs {
			if back[i].Key != recs[i].Key {
				t.Fatalf("record %d: key %d became %d", i, recs[i].Key, back[i].Key)
			}
			if reflect.TypeOf(back[i].Value) != reflect.TypeOf(recs[i].Value) ||
				!reflect.DeepEqual(floatBits(normalizeEmpty(back[i].Value)), floatBits(normalizeEmpty(recs[i].Value))) {
				t.Fatalf("record %d: value %#v became %#v", i, recs[i].Value, back[i].Value)
			}
		}
	})
}

// floatBits replaces every float of a fuzz value by its bit pattern:
// reflect.DeepEqual calls NaN unequal to itself, and the codec must
// return the very bits it was given, NaN payload included.
func floatBits(v any) any {
	bits := func(fs ...float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	switch x := v.(type) {
	case float64:
		return bits(x)
	case []float64:
		return bits(x...)
	case graphx.VertexRank:
		return []any{x.Adj, bits(x.Rank)}
	case mllib.LabeledPoint:
		return []any{bits(x.X...), bits(x.Y)}
	case mllib.Vector:
		return bits(x.V...)
	}
	return v
}

// normalizeEmpty maps empty byte slices to nil: gob does not preserve
// the nil-vs-empty distinction inside values (only the codec's
// partition-level wrapper does, by design), so the value comparison
// treats them as equal.
func normalizeEmpty(v any) any {
	if b, ok := v.([]byte); ok && len(b) == 0 {
		return []byte(nil)
	}
	return v
}
