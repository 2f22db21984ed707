package blaze_test

import (
	"reflect"
	"testing"

	"blaze"
	"blaze/internal/core"
	"blaze/internal/dataflow"
	"blaze/internal/datagen"
	"blaze/internal/engine"
	"blaze/internal/graphx"
)

// TestRealBytesCodecOnRealWorkloads runs PR and SVD++ on real-bytes
// stores sized far below the working set, so every cached partition of
// real workload data goes through the gob codec on admission, spill,
// disk reload and read — and requires the workload's output to equal the
// virtual run's to the last value, plus the deterministic metrics. A run
// with zero spills fails: the disk half of the codec path went
// unexercised.
func TestRealBytesCodecOnRealWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	drivers := map[blaze.WorkloadID]func(ctx *dataflow.Context) any{
		blaze.PR: func(ctx *dataflow.Context) any {
			return graphx.PageRank(ctx, graphx.PageRankConfig{
				Graph: datagen.GraphSpec{Seed: 1, Vertices: 900, AvgDegree: 8}, Parts: 32, Iters: 10})
		},
		blaze.SVDPP: func(ctx *dataflow.Context) any {
			return graphx.SVDPP(ctx, graphx.SVDPPConfig{
				Ratings: datagen.RatingsSpec{Seed: 5, Users: 450, Items: 300, ItemsPerUser: 12}, Parts: 16, Rank: 8, Iters: 10})
		},
	}
	for w, drive := range drivers {
		spec, err := blaze.Workload(w)
		if err != nil {
			t.Fatal(err)
		}
		run := func(real bool) (any, *blaze.Metrics) {
			ctx := dataflow.NewContext()
			c, err := engine.NewCluster(engine.Config{
				Executors:         4,
				MemoryPerExecutor: 16 * 1024, // pressure → spills → block files
				Params:            blaze.EvalParams(spec.SerFactor),
				Controller:        core.NewBlaze(),
				RealBytes:         real,
			}, ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			out := drive(ctx)
			return out, c.Finish()
		}
		want, virt := run(false)
		got, real := run(true)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: real-bytes output differs from the virtual run's", w)
		}
		if !blaze.MetricsEqualDeterministic(virt, real) {
			t.Errorf("%s: real-bytes metrics differ from the virtual run's", w)
		}
		if real.DiskBytesWritten == 0 {
			t.Errorf("%s: no spills occurred, so no block file was written; tighten MemoryPerExecutor", w)
		}
	}
}
