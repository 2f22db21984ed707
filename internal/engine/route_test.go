package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"blaze/internal/dataflow"
)

// TestCombineThenRouteEqualsRouteThenCombine: the columnar plane combines
// a map task's whole output once and then routes it; the row plane routes
// first and combines each bucket. Every key lands in one bucket, so the
// two must agree bucket for bucket — keys in first-seen order, float bits,
// the nil-vs-empty distinction and the accounted bytes. The combiner is
// not associative or commutative (a*0.5+b), so any change to the order in
// which a key's values accumulate shows in the bits.
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
			name := fmt.Sprintf("buckets %d, %d records over %d keys", buckets, n, span)

			want, wantBytes, wantWritten := rowPlane{}.route(dep, buckets, recs)
			got, gotBytes, gotWritten := vecPlane{}.route(dep, dataflow.NewRouter(buckets), dataflow.FromRecords(recs))
			if len(got) != buckets || gotWritten != wantWritten {
				t.Fatalf("%s: %d buckets, %d bytes written; want %d, %d", name, len(got), gotWritten, buckets, wantWritten)
			}
			for b, rows := range want {
				bb := got[b]
				if gotBytes[b] != wantBytes[b] {
					t.Fatalf("%s: bucket %d accounts %d bytes, want %d", name, b, gotBytes[b], wantBytes[b])
				}
				if (bb.Records() == nil) != (rows == nil) || bb.Len() != len(rows) {
					t.Fatalf("%s: bucket %d holds %d records (nil %v), want %d (nil %v)",
						name, b, bb.Len(), bb.Records() == nil, len(rows), rows == nil)
				}
				for i, r := range rows {
					v := bb.Col.(*dataflow.F64Column).Vals[i]
					if bb.Keys[i] != r.Key || math.Float64bits(v) != math.Float64bits(r.Value.(float64)) {
						t.Fatalf("%s: bucket %d record %d is (%d, %x), want (%d, %x)", name, b, i,
							bb.Keys[i], math.Float64bits(v), r.Key, math.Float64bits(r.Value.(float64)))
					}
				}
				bb.Release()
			}
		}
	}
}
