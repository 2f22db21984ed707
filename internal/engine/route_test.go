package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"blaze/internal/dataflow"
	"blaze/internal/storage"
)

// rowRoute is the reference every route must equal: a map task's output
// split into numBuckets reduce buckets record by record, then each bucket
// combined map-side.
func rowRoute(dep dataflow.Dependency, numBuckets int, out []dataflow.Record) ([][]dataflow.Record, []int64, int64) {
	buckets := make([][]dataflow.Record, numBuckets)
	if dep.Broadcast {
		for b := range buckets {
			buckets[b] = out
		}
	} else {
		for _, r := range out {
			b := dataflow.HashPartition(r.Key, numBuckets)
			buckets[b] = append(buckets[b], r)
		}
	}
	bucketBytes := make([]int64, numBuckets)
	var written int64
	for b, brs := range buckets {
		if len(brs) == 0 {
			continue
		}
		if dep.Combine != nil {
			brs = dataflow.MergeByKey(brs, dep.Combine)
			buckets[b] = brs
		}
		bucketBytes[b] = storage.EstimateRecords(brs)
		written += bucketBytes[b]
	}
	return buckets, bucketBytes, written
}

// TestCombineThenRouteEqualsRouteThenCombine: a columnar map output is
// combined whole once and then routed; the reference routes first and
// combines each bucket. Every key lands in one bucket, so the two must
// agree bucket for bucket — keys in first-seen order, float bits, the
// nil-vs-empty distinction and the accounted bytes. The combiner is not
// associative or commutative (a*0.5+b), so any change to the order in
// which a key's values accumulate shows in the bits. The same output in
// row form, routed by rows, must agree too.
func TestCombineThenRouteEqualsRouteThenCombine(t *testing.T) {
	f := func(a, b float64) float64 { return a*0.5 + b }
	dep := dataflow.Dependency{Shuffle: true, CombineF64: f,
		Combine: func(a, b any) any { return f(a.(float64), b.(float64)) }}
	rng := rand.New(rand.NewSource(26))
	for _, buckets := range []int{1, 7, 32, 128} {
		for trial := 0; trial < 24; trial++ {
			// From a handful of records (the scan combine) to a few
			// thousand (the indexed one), keys drawn from a range about the
			// size of the output or much smaller, so most keys repeat.
			n := rng.Intn(8) << uint(rng.Intn(10))
			span := int64(1 + rng.Intn(2*n+1))
			recs := make([]dataflow.Record, n)
			for i := range recs {
				recs[i] = dataflow.Record{Key: rng.Int63n(span) - span/2, Value: rng.NormFloat64()}
			}
			want, wantBytes, wantWritten := rowRoute(dep, buckets, recs)
			for _, in := range []*dataflow.Batch{dataflow.FromRecords(recs), dataflow.Rows(recs)} {
				name := fmt.Sprintf("buckets %d, %d records over %d keys, row form %v", buckets, n, span, in.RowForm())
				got, owned, gotBytes, gotWritten := route(dep, dataflow.NewRouter(buckets), in)
				if len(got) != buckets || gotWritten != wantWritten {
					t.Fatalf("%s: %d buckets, %d bytes written; want %d, %d", name, len(got), gotWritten, buckets, wantWritten)
				}
				for b, rows := range want {
					bb := got[b]
					if gotBytes[b] != wantBytes[b] {
						t.Fatalf("%s: bucket %d accounts %d bytes, want %d", name, b, gotBytes[b], wantBytes[b])
					}
					have := bb.Records()
					if (have == nil) != (rows == nil) || len(have) != len(rows) {
						t.Fatalf("%s: bucket %d holds %d records (nil %v), want %d (nil %v)",
							name, b, len(have), have == nil, len(rows), rows == nil)
					}
					for i, r := range rows {
						g := have[i]
						if g.Key != r.Key || math.Float64bits(g.Value.(float64)) != math.Float64bits(r.Value.(float64)) {
							t.Fatalf("%s: bucket %d record %d is (%d, %x), want (%d, %x)", name, b, i,
								g.Key, math.Float64bits(g.Value.(float64)), r.Key, math.Float64bits(r.Value.(float64)))
						}
					}
				}
				for _, o := range owned {
					o.Release()
				}
			}
		}
	}
}

// floatsKind puts []float64 values in a Ragged column for
// TestRouteRaggedByRows; no workload registers one.
type floatsKind struct{}

func (floatsKind) Name() string                            { return "test.floats" }
func (floatsKind) HasLead() bool                           { return false }
func (floatsKind) Box(_ float64, span []float64) []float64 { return span }
func (floatsKind) Unbox(v []float64) (float64, []float64)  { return 0, v }

func init() { dataflow.RegisterKind(floatsKind{}) }

// TestRouteRaggedByRows: a map output in a Ragged column with no
// combiner is routed by rows, and its buckets hold the records, in
// output order, and account the bytes of routing record by record.
func TestRouteRaggedByRows(t *testing.T) {
	var dep dataflow.Dependency
	rng := rand.New(rand.NewSource(44))
	for _, buckets := range []int{1, 7, 32} {
		recs := make([]dataflow.Record, 200)
		for i := range recs {
			var v []float64 // an empty span reads back nil
			for range rng.Intn(4) {
				v = append(v, rng.NormFloat64())
			}
			recs[i] = dataflow.Record{Key: rng.Int63n(90), Value: v}
		}
		in := dataflow.FromRecords(recs)
		if _, ok := in.Col.(*dataflow.Ragged[float64, []float64, floatsKind]); !ok {
			t.Fatalf("[]float64 values gave a %T column, want Ragged", in.Col)
		}
		want, wantBytes, wantWritten := rowRoute(dep, buckets, recs)
		got, owned, gotBytes, gotWritten := route(dep, dataflow.NewRouter(buckets), in)
		if gotWritten != wantWritten {
			t.Fatalf("%d buckets: %d bytes written, want %d", buckets, gotWritten, wantWritten)
		}
		for b, rows := range want {
			if have := got[b].Records(); !reflect.DeepEqual(have, rows) || gotBytes[b] != wantBytes[b] {
				t.Fatalf("%d buckets: bucket %d holds %v (%d bytes), want %v (%d bytes)", buckets, b, have, gotBytes[b], rows, wantBytes[b])
			}
		}
		for _, o := range owned {
			o.Release()
		}
	}
}
