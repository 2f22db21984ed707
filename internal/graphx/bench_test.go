package graphx

import (
	"testing"

	"blaze/internal/dataflow"
)

// BenchmarkHotpathPRRankUpdateBatch times one iteration's rank update of
// one partition shaped like pr-dataplane's (24,000 vertices over 32
// partitions, out-degree 8): the rank graph zipped with its contribution
// sums (the partition's own contributions, combined), new ranks over the
// graph's borrowed keys and edges. It sits beside the root package's
// Hotpath benchmarks, which reach the kernels only through exported
// entry points.
func BenchmarkHotpathPRRankUpdateBatch(b *testing.B) {
	_, graph := BenchPRPartition(750, 8)
	contribs := contribsKernel()(0, []*dataflow.Batch{graph})
	sums := dataflow.MergeBatchByKeyF64(contribs, func(a, b float64) float64 { return a + b })
	contribs.Release()
	update := rankUpdateKernel(0.15)
	ins := []*dataflow.Batch{graph, sums}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := update(0, ins)
		if out == nil {
			b.Fatal("kernel declined")
		}
		out.Release()
	}
}
