package blaze_test

import (
	"fmt"
	"reflect"
	"testing"

	"blaze"
	"blaze/internal/core"
	"blaze/internal/dataflow"
	"blaze/internal/datagen"
	"blaze/internal/engine"
	"blaze/internal/graphx"
	"blaze/internal/mllib"
	"blaze/internal/storage"
)

// TestRealBytesCodecOnRealWorkloads runs PR and SVD++ on real-bytes
// stores sized far below the working set, so every cached partition of
// real workload data goes through the block codec on admission, spill,
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

// blockAudit is an engine hook that, after every job, encodes each
// resident block and reads each retained shuffle bucket's marker, and
// files the value type under the marker it found.
type blockAudit struct {
	t      *testing.T
	byType map[string]map[byte]int // value type → marker → count
}

func (a *blockAudit) OnJobStart(*engine.Cluster, *engine.Job)   {}
func (a *blockAudit) OnStageEnd(*engine.Cluster, *engine.Stage) {}

func (a *blockAudit) OnJobEnd(c *engine.Cluster, _ *engine.Job) {
	rs, err := c.CaptureResumeState()
	if err != nil {
		a.t.Fatal(err)
	}
	note := func(recs []dataflow.Record, marker byte) {
		if len(recs) == 0 {
			return
		}
		typ := reflect.TypeOf(recs[0].Value).String()
		if a.byType[typ] == nil {
			a.byType[typ] = map[byte]int{}
		}
		a.byType[typ][marker]++
	}
	block := func(recs []dataflow.Record) {
		data, err := storage.EncodeRecords(recs)
		if err != nil {
			a.t.Fatal(err)
		}
		note(recs, data[0])
	}
	for _, b := range rs.MemBlocks {
		block(b.Records)
	}
	for _, b := range rs.DiskBlocks {
		block(b.Records)
	}
	for _, o := range rs.Shuffle.Outputs {
		for _, m := range o.Maps {
			for _, data := range m.Buckets {
				if len(data) == 0 {
					continue
				}
				recs, err := storage.DecodeRecords(data)
				if err != nil {
					a.t.Fatal(err)
				}
				note(recs, data[0])
			}
		}
	}
}

// TestWorkloadBlocksTakeTypedPath keeps the benchmark workloads' bytes
// on the typed columnar codec: the cached blocks and shuffle buckets of
// PageRank, PageRankStream, KMeans and SVD++ — rank graphs (adjacency
// included), contributions, points, centroid statistics, factors — encode with the
// typed marker on both data planes. A value-type change that silently
// drops one of them back onto per-record gob fails here.
func TestWorkloadBlocksTakeTypedPath(t *testing.T) {
	drivers := map[string]struct {
		drive func(ctx *dataflow.Context)
		typed []string // value types that must occur, typed only
	}{
		"pr": {func(ctx *dataflow.Context) {
			graphx.PageRank(ctx, graphx.PageRankConfig{
				Graph: datagen.GraphSpec{Seed: 1, Vertices: 400, AvgDegree: 8}, Parts: 8, Iters: 3, Annotate: true})
		}, []string{"graphx.VertexRank", "float64"}},
		"pr-stream": {func(ctx *dataflow.Context) {
			step := graphx.PageRankStream(graphx.PageRankStreamConfig{
				Graph: datagen.GraphSpec{Seed: 11, Vertices: 400, AvgDegree: 8}, Parts: 8, Annotate: true})
			step(ctx, 1)
			step(ctx, 2)
		}, []string{"graphx.VertexRank", "float64"}},
		"kmeans": {func(ctx *dataflow.Context) {
			mllib.KMeans(ctx, mllib.KMeansConfig{
				Data: datagen.ClusterSpec{Seed: 13, N: 800, Dim: 4, K: 4, Spread: 2.0}, Parts: 8, MaxIters: 3, Epsilon: -1, Annotate: true})
		}, []string{"mllib.Vector", "mllib.sumCount"}},
		"svdpp": {func(ctx *dataflow.Context) {
			graphx.SVDPP(ctx, graphx.SVDPPConfig{
				Ratings: datagen.RatingsSpec{Seed: 5, Users: 200, Items: 100, ItemsPerUser: 8}, Parts: 8, Rank: 4, Iters: 3, Annotate: true})
		}, []string{"graphx.Factors"}},
	}
	// The types still served by the gob fallback: they have no flat column.
	fallback := map[string]bool{"graphx.RatingList": true}
	for name, d := range drivers {
		for _, vec := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/vectorized=%v", name, vec), func(t *testing.T) {
				audit := &blockAudit{t: t, byType: map[string]map[byte]int{}}
				ctx := dataflow.NewContext()
				c, err := engine.NewCluster(engine.Config{
					Executors:         2,
					MemoryPerExecutor: 64 * 1024, // room for some blocks, pressure for spills
					Params:            blaze.EvalParams(1),
					Controller:        engine.NewSparkMemDisk(), // caches exactly what the drivers annotate
					Vectorized:        vec,
					Hook:              audit,
				}, ctx)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				d.drive(ctx)
				for _, typ := range d.typed {
					if audit.byType[typ][dataflow.BlockTyped] == 0 {
						t.Errorf("no %s block or bucket was seen on the typed path: %v", typ, audit.byType)
					}
				}
				for typ, markers := range audit.byType {
					if n := markers[dataflow.BlockGob]; n > 0 && !fallback[typ] {
						t.Errorf("%d blocks or buckets of %s went through the gob fallback", n, typ)
					}
				}
			})
		}
	}
}
