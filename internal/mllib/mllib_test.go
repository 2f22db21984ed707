package mllib

import (
	"math"
	"reflect"
	"testing"

	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/datagen"
	"blaze/internal/engine"
)

func localCtx() *dataflow.Context {
	ctx := dataflow.NewContext()
	dataflow.NewLocalRunner(ctx)
	return ctx
}

func TestLogisticRegressionLearns(t *testing.T) {
	spec := datagen.PointsSpec{Seed: 1, N: 1500, Dim: 8, Noise: 0.02}
	w, acc := LogisticRegression(localCtx(), LogisticRegressionConfig{
		Points: spec, Parts: 4, Iters: 25, LearnRate: 1.0,
	})
	if len(w) != 8 {
		t.Fatalf("weights dim = %d", len(w))
	}
	if acc < 0.85 {
		t.Fatalf("training accuracy %v too low; LR failed to learn", acc)
	}
}

func TestLogisticRegressionBeatsChance(t *testing.T) {
	spec := datagen.PointsSpec{Seed: 2, N: 600, Dim: 5, Noise: 0.1}
	_, acc1 := LogisticRegression(localCtx(), LogisticRegressionConfig{Points: spec, Parts: 2, Iters: 1})
	_, acc20 := LogisticRegression(localCtx(), LogisticRegressionConfig{Points: spec, Parts: 2, Iters: 20})
	if acc20 <= acc1-0.05 {
		t.Fatalf("more iterations should not hurt: iter1=%v iter20=%v", acc1, acc20)
	}
	if acc20 < 0.75 {
		t.Fatalf("accuracy %v barely beats chance", acc20)
	}
}

func TestKMeansRecoversClusters(t *testing.T) {
	spec := datagen.ClusterSpec{Seed: 3, N: 1200, Dim: 4, K: 4, Spread: 1.0}
	centers, wcss := KMeans(localCtx(), KMeansConfig{Data: spec, Parts: 4, MaxIters: 15})
	if len(centers) != 4 {
		t.Fatalf("centers = %d, want 4", len(centers))
	}
	// Every recovered center should be near a generating center.
	for c, ctr := range centers {
		if ctr == nil {
			t.Fatalf("center %d empty", c)
		}
		best := math.Inf(1)
		for g := 0; g < 4; g++ {
			gc := spec.Center(g)
			d := 0.0
			for j := range ctr {
				diff := ctr[j] - gc[j]
				d += diff * diff
			}
			if s := math.Sqrt(d); s < best {
				best = s
			}
		}
		if best > 5 {
			t.Fatalf("center %d is %v away from every generating center", c, best)
		}
	}
	// WCSS for well-separated unit-spread clusters ≈ N*dim*spread².
	if wcss > float64(spec.N)*float64(spec.Dim)*4 {
		t.Fatalf("WCSS %v too large", wcss)
	}
}

func TestKMeansConverges(t *testing.T) {
	spec := datagen.ClusterSpec{Seed: 5, N: 400, Dim: 3, K: 3, Spread: 0.5}
	c1, w1 := KMeans(localCtx(), KMeansConfig{Data: spec, Parts: 2, MaxIters: 30, Epsilon: 1e-6})
	c2, w2 := KMeans(localCtx(), KMeansConfig{Data: spec, Parts: 2, MaxIters: 30, Epsilon: 1e-6})
	if w1 != w2 {
		t.Fatalf("non-deterministic WCSS: %v vs %v", w1, w2)
	}
	for i := range c1 {
		for j := range c1[i] {
			if c1[i][j] != c2[i][j] {
				t.Fatal("non-deterministic centers")
			}
		}
	}
}

func TestGBTReducesMSE(t *testing.T) {
	spec := datagen.PointsSpec{Seed: 7, N: 1000, Dim: 6, Noise: 0.05}
	_, mse1 := GBT(localCtx(), GBTConfig{Points: spec, Parts: 4, Trees: 1, Depth: 3})
	_, mse8 := GBT(localCtx(), GBTConfig{Points: spec, Parts: 4, Trees: 8, Depth: 3})
	if mse8 >= mse1 {
		t.Fatalf("more trees must reduce training MSE: 1 tree %v, 8 trees %v", mse1, mse8)
	}
	// Labels are 0/1; base prediction 0.5 gives MSE 0.25. The ensemble
	// must do clearly better.
	if mse8 > 0.18 {
		t.Fatalf("GBT MSE %v barely beats the constant predictor", mse8)
	}
}

func TestGBTModelGrows(t *testing.T) {
	spec := datagen.PointsSpec{Seed: 7, N: 500, Dim: 4, Noise: 0.05}
	m2, _ := GBT(localCtx(), GBTConfig{Points: spec, Parts: 2, Trees: 2, Depth: 3})
	m6, _ := GBT(localCtx(), GBTConfig{Points: spec, Parts: 2, Trees: 6, Depth: 3})
	if m6.SizeBytes() <= m2.SizeBytes() {
		t.Fatalf("model size must grow with trees: %d vs %d", m2.SizeBytes(), m6.SizeBytes())
	}
	if len(m6.TreeSplits) != 6 {
		t.Fatalf("trees = %d, want 6", len(m6.TreeSplits))
	}
}

func TestGBTPredictTraversal(t *testing.T) {
	m := GBTModel{
		TreeSplits: []map[int]split{{1: {Feature: 0, Threshold: 0}}},
		TreeLeaves: []map[int]float64{{2: -1, 3: 1}},
		LearnRate:  1,
		Base:       0,
	}
	if got := m.Predict([]float64{-5}); got != -1 {
		t.Fatalf("left branch = %v, want -1", got)
	}
	if got := m.Predict([]float64{5}); got != 1 {
		t.Fatalf("right branch = %v, want 1", got)
	}
}

func TestWorkloadWrappersRun(t *testing.T) {
	// Each wrapper must run end-to-end at tiny profiling scale.
	wrappers := []func(*dataflow.Context, float64){
		LogisticRegressionWorkload(LogisticRegressionConfig{Points: datagen.PointsSpec{Seed: 1, N: 400, Dim: 4}, Parts: 2, Iters: 3}),
		KMeansWorkload(KMeansConfig{Data: datagen.ClusterSpec{Seed: 1, N: 400, Dim: 3, K: 3, Spread: 1}, Parts: 2, MaxIters: 3}),
		GBTWorkload(GBTConfig{Points: datagen.PointsSpec{Seed: 1, N: 400, Dim: 4}, Parts: 2, Trees: 2, Depth: 2}),
	}
	for i, w := range wrappers {
		ctx := localCtx()
		w(ctx, 0.1)
		if len(ctx.Datasets()) == 0 {
			t.Fatalf("wrapper %d created no datasets", i)
		}
	}
}

func TestVectorAndPointSizes(t *testing.T) {
	if (Vector{V: make([]float64, 4)}).SizeBytes() != 24+32 {
		t.Fatal("Vector size wrong")
	}
	if (LabeledPoint{X: make([]float64, 4)}).SizeBytes() != 32+32 {
		t.Fatal("LabeledPoint size wrong")
	}
	if (sumCount{Sum: make([]float64, 2)}).SizeBytes() != 40+16 {
		t.Fatal("sumCount size wrong")
	}
}

// TestKMeansDAGShape pins the graph batch k-means and window 1 of the
// stream build from the shared iteration step: dataset names in creation
// order (they fix dataset ids and the role@iteration lineage keys) and
// what each driver releases.
func TestKMeansDAGShape(t *testing.T) {
	spec := datagen.ClusterSpec{Seed: 3, N: 120, Dim: 2, K: 3, Spread: 1}
	shape := func(ctx *dataflow.Context, lr *dataflow.LocalRunner) (names, released []string) {
		for _, d := range ctx.Datasets() {
			names = append(names, d.Name())
			if lr.Released[d.ID()] {
				released = append(released, d.Name())
			}
		}
		return names, released
	}
	for _, c := range []struct {
		label              string
		run                func(*dataflow.Context)
		names, wantRelease []string
	}{
		{"KMeans", func(ctx *dataflow.Context) {
			KMeans(ctx, KMeansConfig{Data: spec, Parts: 2, MaxIters: 3, Epsilon: -1})
		}, []string{
			"km-points@0", "km-cent@0",
			"km-stats@1", "km-agg@1", "km-cent@1",
			"km-stats@2", "km-agg@2", "km-cent@2",
			"km-stats@3", "km-agg@3", "km-cent@3",
			"km-wcss@0", "km-wcss-agg@0",
		}, []string{"km-cent@0", "km-stats@1", "km-cent@1", "km-stats@2"}},
		{"KMeansStream window 1", func(ctx *dataflow.Context) {
			KMeansStream(KMeansStreamConfig{Data: spec, Parts: 2, ItersPerWindow: 3})(ctx, 1)
		}, []string{
			"skm-points@0", "skm-cent@0",
			"skm-stats@1", "skm-agg@1", "skm-cent@1",
			"skm-stats@2", "skm-agg@2", "skm-cent@2",
			"skm-stats@3", "skm-agg@3", "skm-cent@3",
		}, []string{"skm-stats@1", "skm-cent@1", "skm-stats@2"}},
	} {
		ctx := dataflow.NewContext()
		lr := dataflow.NewLocalRunner(ctx)
		c.run(ctx)
		names, released := shape(ctx, lr)
		if !reflect.DeepEqual(names, c.names) {
			t.Errorf("%s datasets:\n got %q\nwant %q", c.label, names, c.names)
		}
		if !reflect.DeepEqual(released, c.wantRelease) {
			t.Errorf("%s released:\n got %q\nwant %q", c.label, released, c.wantRelease)
		}
	}
}

// TestKMeansEmptyClusterRowMatchesVectorized: when a cluster empties,
// the row plane and the columnar plane must both keep going with a nil
// slot for it. A row closure that sizes its centroid table by the
// broadcast's length rather than K indexes past the table here; the
// LocalRunner run (row closures only) must equal a Vectorized engine run
// bit for bit.
func TestKMeansEmptyClusterRowMatchesVectorized(t *testing.T) {
	cfg := KMeansConfig{
		Data:  datagen.ClusterSpec{Seed: 2, N: 32, Dim: 1, K: 16, Spread: 100},
		Parts: 2, MaxIters: 10, Epsilon: -1,
	}
	rowCenters, rowWCSS := KMeans(localCtx(), cfg)
	empty := 0
	for _, c := range rowCenters {
		if c == nil {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("no cluster emptied: the spec no longer exercises the empty-cluster path")
	}

	ctx := dataflow.NewContext()
	c, err := engine.NewCluster(engine.Config{
		Executors:         2,
		MemoryPerExecutor: 1 << 20,
		Params:            costmodel.Default(),
		Controller:        engine.NewSparkMemDisk(),
		Vectorized:        true,
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	before := engine.VecTasksExecuted()
	vecCenters, vecWCSS := KMeans(ctx, cfg)
	c.Finish()
	if engine.VecTasksExecuted() == before {
		t.Fatal("no task ran on the columnar plane")
	}
	if !reflect.DeepEqual(rowCenters, vecCenters) || rowWCSS != vecWCSS {
		t.Fatalf("row plane diverges from the columnar plane\nrow: %v (wcss %v)\nvec: %v (wcss %v)",
			rowCenters, rowWCSS, vecCenters, vecWCSS)
	}
}
