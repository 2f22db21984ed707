package graphx

// Exported hot-path surfaces for the throughput benchmarks
// (bench_hotpath_test.go and bench/'s kernel layer): deterministic
// PageRank partition builders plus the row closure and batch kernel of
// the contributions operator, the workload's hottest stage. The row
// function is the same logic the workload registers; the batch function
// is the same kernel the engine runs, so kernel-level measurements
// reflect the real per-task data plane.

import (
	"blaze/internal/dataflow"
)

// BenchPRPartition builds one deterministic rank-graph partition of
// verts vertices with out-degree deg, in both representations.
func BenchPRPartition(verts, deg int) ([]dataflow.Record, *dataflow.Batch) {
	recs := make([]dataflow.Record, verts)
	for i := range recs {
		adj := make([]int64, deg)
		for j := range adj {
			adj[j] = int64((i*31 + j*17) % verts)
		}
		recs[i] = dataflow.Record{Key: int64(i), Value: VertexRank{Adj: adj, Rank: 1 + float64(i%7)/7}}
	}
	return recs, dataflow.FromRecords(recs)
}

// BenchContribsRow runs the contributions FlatMap the way the row task
// loop does: one closure call and one boxed []Record per input record.
func BenchContribsRow(recs []dataflow.Record) []dataflow.Record {
	f := func(r dataflow.Record) []dataflow.Record {
		v := r.Value.(VertexRank)
		if len(v.Adj) == 0 {
			return nil
		}
		share := v.Rank / float64(len(v.Adj))
		out := make([]dataflow.Record, len(v.Adj))
		for i, dst := range v.Adj {
			out[i] = dataflow.Record{Key: dst, Value: share}
		}
		return out
	}
	var out []dataflow.Record
	for _, r := range recs {
		out = append(out, f(r)...)
	}
	return out
}

// BenchContribsBatch runs the contributions kernel the way the
// vectorized task loop does. The caller owns (and should Release) the
// returned batch.
func BenchContribsBatch(in *dataflow.Batch) *dataflow.Batch {
	return contribsKernel()(0, []*dataflow.Batch{in})
}
