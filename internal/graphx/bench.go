package graphx

// Exported hot-path surfaces for the throughput benchmarks
// (bench_hotpath_test.go and bench/'s kernel layer): deterministic
// PageRank partition builders plus the row closure and batch kernel of
// the contributions operator, the workload's hottest stage. Both call
// what the workload registers — rankContribs and contribsKernel — so
// kernel-level measurements reflect the real per-task data plane by
// construction.

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
// loop does: one rankContribs call and one boxed []Record per input
// record.
func BenchContribsRow(recs []dataflow.Record) []dataflow.Record {
	var out []dataflow.Record
	for _, r := range recs {
		out = append(out, rankContribs(r)...)
	}
	return out
}

// BenchContribsBatch runs the contributions kernel the way the
// vectorized task loop does. The caller owns (and should Release) the
// returned batch.
func BenchContribsBatch(in *dataflow.Batch) *dataflow.Batch {
	return contribsKernel()(0, []*dataflow.Batch{in})
}
