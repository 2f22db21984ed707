package mllib

// Exported hot-path surfaces for the throughput benchmarks: a
// deterministic k-means partition builder plus the row closure and
// batch kernel of the assignment Barrier (km-stats), the workload's
// hottest stage. Both call what the workload registers — assignStats and
// statsKernel — so kernel-level measurements reflect the real per-task
// data plane by construction.

import (
	"blaze/internal/dataflow"
)

// BenchKMeansPartition builds one deterministic partition of n points
// of dimension dim plus a broadcast set of k centroids, in both
// representations. Returns points, centroids as rows and as batches.
func BenchKMeansPartition(n, dim, k int) (ps []dataflow.Record, cs []dataflow.Record, pb, cb *dataflow.Batch) {
	ps = make([]dataflow.Record, n)
	for i := range ps {
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64((i*13+j*7)%97) / 97
		}
		ps[i] = dataflow.Record{Key: int64(i), Value: Vector{V: v}}
	}
	cs = make([]dataflow.Record, k)
	for c := range cs {
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64((c*29+j*11)%97) / 97
		}
		cs[c] = dataflow.Record{Key: int64(c), Value: Vector{V: v}}
	}
	return ps, cs, dataflow.FromRecords(ps), dataflow.FromRecords(cs)
}

// BenchStatsRow runs the assignment Barrier the way the row task loop
// does: boxed records, a map of *sumCount accumulators.
func BenchStatsRow(ps, cs []dataflow.Record, k int) []dataflow.Record {
	return assignStats(k)(0, ps, cs)
}

// BenchStatsBatch runs the assignment kernel the way the vectorized
// task loop does. The caller owns (and should Release) the returned
// batch.
func BenchStatsBatch(pb, cb *dataflow.Batch, k int) *dataflow.Batch {
	return statsKernel(k)(0, []*dataflow.Batch{pb, cb})
}
