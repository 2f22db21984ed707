package mllib

import (
	"math"
	"reflect"
	"testing"

	"blaze/internal/dataflow"
)

// mkPoints builds n deterministic dim-dimensional points with values
// engineered to produce near-ties so the comparison covers the strict
// less-than tie-breaking of the assignment sweep.
func mkPoints(n, dim int) []dataflow.Record {
	recs := make([]dataflow.Record, n)
	for i := range recs {
		v := make([]float64, dim)
		for j := range v {
			v[j] = math.Sin(float64(i*dim+j)) * float64(1+j)
		}
		recs[i] = dataflow.Record{Key: int64(i), Value: Vector{V: v}}
	}
	return recs
}

func mkCenters(k, dim int, skip map[int]bool) []dataflow.Record {
	var recs []dataflow.Record
	for c := 0; c < k; c++ {
		if skip[c] {
			continue
		}
		v := make([]float64, dim)
		for j := range v {
			v[j] = math.Cos(float64(c*dim+j)) * float64(1+j)
		}
		recs = append(recs, dataflow.Record{Key: int64(c), Value: Vector{V: v}})
	}
	return recs
}

// TestStatsKernelMatchesRowClosure pins the core kernel contract at
// several dimensions: the sweep must produce bit-identical statistics
// to the row closure (same clusters, same order, bit-equal sums and
// counts).
func TestStatsKernelMatchesRowClosure(t *testing.T) {
	for _, dim := range []int{2, 4, 8} {
		for _, k := range []int{1, 3, 8} {
			ps := mkPoints(257, dim)
			cs := mkCenters(k, dim, nil)
			row := BenchStatsRow(ps, cs, k)
			out := statsKernel(k)(0, []*dataflow.Batch{dataflow.FromRecords(ps), dataflow.FromRecords(cs)})
			if out == nil {
				t.Fatalf("dim=%d k=%d: kernel declined typed input", dim, k)
			}
			if got := out.Records(); !reflect.DeepEqual(got, row) {
				t.Fatalf("dim=%d k=%d: kernel diverges from row closure\nrow: %+v\nkernel: %+v", dim, k, row, got)
			}
			out.Release()
		}
	}
}

// TestStatsKernelAbsentCenters covers a broadcast with fewer centers
// than K — a missing tail (clusters 5..7) and a hole (cluster 3, the
// shape an emptied cluster leaves): both paths must skip the absent
// clusters identically.
func TestStatsKernelAbsentCenters(t *testing.T) {
	const k = 8
	for _, dim := range []int{2, 4, 8} {
		for _, cs := range [][]dataflow.Record{
			mkCenters(5, dim, nil),
			mkCenters(k, dim, map[int]bool{3: true}),
		} {
			ps := mkPoints(100, dim)
			row := BenchStatsRow(ps, cs, k)
			out := statsKernel(k)(0, []*dataflow.Batch{dataflow.FromRecords(ps), dataflow.FromRecords(cs)})
			if out == nil {
				t.Fatalf("dim=%d, %d centers: kernel declined", dim, len(cs))
			}
			if got := out.Records(); !reflect.DeepEqual(got, row) {
				t.Fatalf("dim=%d, %d centers: mismatch with absent centers\nrow: %+v\nkernel: %+v", dim, len(cs), row, got)
			}
			out.Release()
		}
	}
}

// TestStatsKernelDeclinesRagged: a partition with mixed dimensions must
// make the kernel decline (return nil) so the row escape hatch runs,
// on the specialized paths as well as the generic one.
func TestStatsKernelDeclinesRagged(t *testing.T) {
	for _, dim := range []int{2, 4, 8} {
		ps := mkPoints(10, dim)
		ps[7].Value = Vector{V: make([]float64, dim+1)}
		cs := mkCenters(4, dim, nil)
		out := statsKernel(4)(0, []*dataflow.Batch{dataflow.FromRecords(ps), dataflow.FromRecords(cs)})
		if out != nil {
			t.Fatalf("dim=%d: kernel accepted ragged partition", dim)
		}
	}
}

// TestWCSSKernelMatchesRowSum checks the WCSS kernel against a direct
// row-side recomputation of the same partial sum.
func TestWCSSKernelMatchesRowSum(t *testing.T) {
	const k, dim = 4, 3
	ps := mkPoints(123, dim)
	cs := mkCenters(k, dim, nil)
	centers := make([][]float64, k)
	for _, c := range cs {
		centers[c.Key] = c.Value.(Vector).V
	}
	want := 0.0
	for _, p := range ps {
		x := p.Value.(Vector).V
		best := math.Inf(1)
		for _, ctr := range centers {
			d := 0.0
			for j := range x {
				diff := x[j] - ctr[j]
				d += diff * diff
			}
			if d < best {
				best = d
			}
		}
		want += best
	}
	out := wcssKernel(k)(0, []*dataflow.Batch{dataflow.FromRecords(ps), dataflow.FromRecords(cs)})
	if out == nil {
		t.Fatal("kernel declined")
	}
	recs := out.Records()
	if len(recs) != 1 || recs[0].Value.(float64) != want {
		t.Fatalf("wcss mismatch: got %+v want %v", recs, want)
	}
	out.Release()
}
