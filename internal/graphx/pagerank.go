package graphx

import (
	"blaze/internal/dataflow"
	"blaze/internal/datagen"
)

// VertexRank is the per-vertex state of the rank graph: GraphX's
// PageRank carries the full graph (adjacency + rank) through every
// iteration, so each iteration's rankGraph is both large (it contains
// the edges) and deep-lineaged (it derives from the previous
// iteration's graph). This is what makes the paper's PR working set
// grow to >10× the input (§1) and its recomputation chains lengthen
// across iterations (Fig. 5).
type VertexRank struct {
	Adj  []int64
	Rank float64
}

// SizeBytes implements storage.Sized.
func (v VertexRank) SizeBytes() int64 { return 40 + 8*int64(len(v.Adj)) }

// PageRankConfig parameterizes the PageRank workload (§7.1: SparkBench
// power-law graph, GraphX iteration structure).
type PageRankConfig struct {
	Graph datagen.GraphSpec
	Parts int
	Iters int
	// ResetProb is the damping reset probability (0.15 by default).
	ResetProb float64
	// Annotate applies the GraphX cache()/unpersist() annotations for
	// annotation-based systems; Blaze runs without them.
	Annotate bool
}

func (c PageRankConfig) withDefaults() PageRankConfig {
	if c.ResetProb == 0 {
		c.ResetProb = 0.15
	}
	if c.Parts == 0 {
		c.Parts = 8
	}
	if c.Iters == 0 {
		c.Iters = 10
	}
	return c
}

// PageRank runs the algorithm and returns the final ranks per vertex.
// It is window 1 of the streaming driver (stream.go) under the "pr"
// prefix: one job per iteration, each deriving a new rank graph from the
// previous one, caching it, and releasing the superseded graph and
// messages — exactly the Fig. 1 choreography.
func PageRank(ctx *dataflow.Context, cfg PageRankConfig) map[int64]float64 {
	cfg = cfg.withDefaults()
	return pageRankDriver("pr", PageRankStreamConfig{
		Graph: cfg.Graph, Parts: cfg.Parts, ItersPerWindow: cfg.Iters,
		ResetProb: cfg.ResetProb, Annotate: cfg.Annotate,
	})(ctx, 1)
}

// rankContribs is the contributions FlatMap: a vertex sends rank/degree
// to each out-neighbour, in edge order (nil for a dangling vertex).
// contribsKernel is its columnar twin.
func rankContribs(r dataflow.Record) []dataflow.Record {
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

// PageRankWorkload wraps PageRank as a profile-compatible workload;
// scale shrinks the vertex count for the dependency extraction phase.
func PageRankWorkload(cfg PageRankConfig) func(ctx *dataflow.Context, scale float64) {
	return func(ctx *dataflow.Context, scale float64) {
		c := cfg.withDefaults()
		c.Graph.Vertices = scaled(c.Graph.Vertices, scale)
		PageRank(ctx, c)
	}
}

// scaled shrinks n by the scale factor with a sane floor.
func scaled(n int, scale float64) int {
	m := int(float64(n) * scale)
	if m < 16 {
		m = 16
	}
	if m > n {
		m = n
	}
	return m
}
