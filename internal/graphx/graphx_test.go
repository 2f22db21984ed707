package graphx

import (
	"math"
	"reflect"
	"testing"

	"blaze/internal/dataflow"
	"blaze/internal/datagen"
)

// refPageRank computes PageRank directly for verification.
func refPageRank(spec datagen.GraphSpec, iters int, reset float64) map[int64]float64 {
	n := spec.Vertices
	ranks := make(map[int64]float64, n)
	for v := int64(0); v < int64(n); v++ {
		ranks[v] = 1
	}
	for it := 0; it < iters; it++ {
		sums := make(map[int64]float64, n)
		for v := int64(0); v < int64(n); v++ {
			nbrs := spec.Neighbors(v)
			if len(nbrs) == 0 {
				continue
			}
			share := ranks[v] / float64(len(nbrs))
			for _, u := range nbrs {
				sums[u] += share
			}
		}
		for v := int64(0); v < int64(n); v++ {
			ranks[v] = reset + (1-reset)*sums[v]
		}
	}
	return ranks
}

func TestPageRankMatchesReference(t *testing.T) {
	spec := datagen.GraphSpec{Seed: 4, Vertices: 300, AvgDegree: 5}
	ctx := dataflow.NewContext()
	dataflow.NewLocalRunner(ctx)
	got := PageRank(ctx, PageRankConfig{Graph: spec, Parts: 4, Iters: 5})
	want := refPageRank(spec, 5, 0.15)
	if len(got) != spec.Vertices {
		t.Fatalf("got %d ranks, want %d", len(got), spec.Vertices)
	}
	for v, w := range want {
		if math.Abs(got[v]-w) > 1e-9 {
			t.Fatalf("rank[%d] = %v, want %v", v, got[v], w)
		}
	}
}

// refComponents computes connected components via union-find over the
// symmetric edge set.
func refComponents(spec datagen.GraphSpec) map[int64]int64 {
	n := spec.Vertices
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for v := 0; v < n; v++ {
		for _, u := range spec.Neighbors(int64(v)) {
			union(v, int(u))
		}
	}
	// Label each component by its minimum vertex id.
	minOf := make(map[int]int64)
	for v := 0; v < n; v++ {
		r := find(v)
		if cur, ok := minOf[r]; !ok || int64(v) < cur {
			minOf[r] = int64(v)
		}
	}
	out := make(map[int64]int64, n)
	for v := 0; v < n; v++ {
		out[int64(v)] = minOf[find(v)]
	}
	return out
}

func TestConnectedComponentsMatchesUnionFind(t *testing.T) {
	// A sparse graph so multiple components exist.
	spec := datagen.GraphSpec{Seed: 21, Vertices: 200, AvgDegree: 1}
	ctx := dataflow.NewContext()
	dataflow.NewLocalRunner(ctx)
	got := ConnectedComponents(ctx, ConnectedComponentsConfig{Graph: spec, Parts: 4, MaxIters: 60})
	want := refComponents(spec)
	for v, w := range want {
		if got[v] != w {
			t.Fatalf("component[%d] = %d, want %d", v, got[v], w)
		}
	}
}

func TestConnectedComponentsConverges(t *testing.T) {
	spec := datagen.GraphSpec{Seed: 8, Vertices: 150, AvgDegree: 4}
	ctx := dataflow.NewContext()
	dataflow.NewLocalRunner(ctx)
	got := ConnectedComponents(ctx, ConnectedComponentsConfig{Graph: spec, Parts: 4, MaxIters: 50})
	// Dense-ish random graph: almost surely one giant component whose
	// label is vertex 0's label for most vertices.
	counts := map[int64]int{}
	for _, l := range got {
		counts[l]++
	}
	biggest := 0
	for _, c := range counts {
		if c > biggest {
			biggest = c
		}
	}
	if biggest < 100 {
		t.Fatalf("expected a giant component, biggest has %d of 150", biggest)
	}
}

func TestSVDPPReducesRMSE(t *testing.T) {
	spec := datagen.RatingsSpec{Seed: 13, Users: 200, Items: 60, ItemsPerUser: 8}

	rmseAfter := func(iters int) float64 {
		ctx := dataflow.NewContext()
		dataflow.NewLocalRunner(ctx)
		return SVDPP(ctx, SVDPPConfig{Ratings: spec, Parts: 4, Rank: 4, Iters: iters})
	}
	early, late := rmseAfter(1), rmseAfter(10)
	if late >= early {
		t.Fatalf("SVD++ must reduce training RMSE: iter1=%v iter10=%v", early, late)
	}
	if late > 1.2 {
		t.Fatalf("SVD++ RMSE too high after 10 iterations: %v", late)
	}
}

func TestAdjListSize(t *testing.T) {
	a := AdjList{Dsts: make([]int64, 10)}
	if a.SizeBytes() != 24+80 {
		t.Fatalf("AdjList size = %d", a.SizeBytes())
	}
	r := RatingList{Items: make([]int64, 3), Scores: make([]float64, 3)}
	if r.SizeBytes() != 48+48 {
		t.Fatalf("RatingList size = %d", r.SizeBytes())
	}
	f := Factors{V: make([]float64, 8)}
	if f.SizeBytes() != 24+64 {
		t.Fatalf("Factors size = %d", f.SizeBytes())
	}
}

func TestAdjacencySymmetricIncludesReverse(t *testing.T) {
	spec := datagen.GraphSpec{Seed: 2, Vertices: 50, AvgDegree: 2, Symmetric: true}
	ctx := dataflow.NewContext()
	dataflow.NewLocalRunner(ctx)
	adj := adjacencySource(ctx, "adj@0", spec, 3)
	have := map[int64]map[int64]bool{}
	for _, part := range adj.Collect() {
		for _, r := range part {
			m := map[int64]bool{}
			for _, d := range r.Value.(AdjList).Dsts {
				m[d] = true
			}
			have[r.Key] = m
		}
	}
	for v := int64(0); v < 50; v++ {
		for _, u := range spec.Neighbors(v) {
			if u == v {
				continue
			}
			if !have[v][u] {
				t.Fatalf("forward edge %d->%d missing", v, u)
			}
			if !have[u][v] {
				t.Fatalf("reverse edge %d->%d missing", u, v)
			}
		}
	}
}

func TestPageRankDeterministic(t *testing.T) {
	spec := datagen.GraphSpec{Seed: 4, Vertices: 200, AvgDegree: 5}
	run := func() map[int64]float64 {
		ctx := dataflow.NewContext()
		dataflow.NewLocalRunner(ctx)
		return PageRank(ctx, PageRankConfig{Graph: spec, Parts: 4, Iters: 4})
	}
	a, b := run(), run()
	for v, r := range a {
		if b[v] != r {
			t.Fatalf("non-deterministic rank at %d: %v vs %v", v, r, b[v])
		}
	}
}

func TestPageRankRanksSumToVertexCount(t *testing.T) {
	// With damping 0.15 the expected total rank stays near |V| (exact for
	// graphs without dangling vertices; ours always have out-degree >= 1).
	spec := datagen.GraphSpec{Seed: 6, Vertices: 300, AvgDegree: 6}
	ctx := dataflow.NewContext()
	dataflow.NewLocalRunner(ctx)
	ranks := PageRank(ctx, PageRankConfig{Graph: spec, Parts: 4, Iters: 8})
	total := 0.0
	for _, r := range ranks {
		if r < 0.14 {
			t.Fatalf("rank below the reset floor: %v", r)
		}
		total += r
	}
	if total < 250 || total > 350 {
		t.Fatalf("total rank %v strayed from |V|=300", total)
	}
}

// dagShape lists the context's dataset names in creation order and the
// names the driver released, in release-set id order. Names and creation
// order fix dataset ids and the role@iteration lineage keys Blaze's
// decisions are made on.
func dagShape(ctx *dataflow.Context, lr *dataflow.LocalRunner) (names, released []string) {
	for _, d := range ctx.Datasets() {
		names = append(names, d.Name())
		if lr.Released[d.ID()] {
			released = append(released, d.Name())
		}
	}
	return names, released
}

// TestPageRankDAGShape pins the graph batch PageRank and the first two
// windows of the stream build: both are the one pageRankDriver, so a
// refactor of it must not move a dataset, rename a role or change what
// is released.
func TestPageRankDAGShape(t *testing.T) {
	spec := datagen.GraphSpec{Seed: 4, Vertices: 64, AvgDegree: 3}
	check := func(label string, ctx *dataflow.Context, lr *dataflow.LocalRunner, want, wantReleased []string) {
		t.Helper()
		names, released := dagShape(ctx, lr)
		if !reflect.DeepEqual(names, want) {
			t.Errorf("%s datasets:\n got %q\nwant %q", label, names, want)
		}
		if !reflect.DeepEqual(released, wantReleased) {
			t.Errorf("%s released:\n got %q\nwant %q", label, released, wantReleased)
		}
	}

	ctx := dataflow.NewContext()
	lr := dataflow.NewLocalRunner(ctx)
	PageRank(ctx, PageRankConfig{Graph: spec, Parts: 2, Iters: 3})
	check("PageRank", ctx, lr, []string{
		"pr-adj@0", "pr-graph@0",
		"pr-contribs@1", "pr-sums@1", "pr-graph@1",
		"pr-contribs@2", "pr-sums@2", "pr-graph@2",
		"pr-contribs@3", "pr-sums@3", "pr-graph@3",
	}, []string{"pr-graph@0", "pr-contribs@1"})

	ctx = dataflow.NewContext()
	lr = dataflow.NewLocalRunner(ctx)
	step := PageRankStream(PageRankStreamConfig{Graph: spec, Parts: 2, ItersPerWindow: 2})
	step(ctx, 1)
	window1 := []string{
		"spr-adj@0", "spr-graph@0",
		"spr-contribs@1", "spr-sums@1", "spr-graph@1",
		"spr-contribs@2", "spr-sums@2", "spr-graph@2",
	}
	check("PageRankStream window 1", ctx, lr, window1, nil)
	step(ctx, 2)
	check("PageRankStream windows 1-2", ctx, lr, append(window1,
		"spr-adj@3", "spr-graph@3",
		"spr-contribs@4", "spr-sums@4", "spr-graph@4",
		"spr-contribs@5", "spr-sums@5", "spr-graph@5",
	), []string{"spr-graph@0", "spr-contribs@1", "spr-graph@1", "spr-contribs@2"})
}
