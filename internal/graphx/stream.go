package graphx

import (
	"blaze/internal/dataflow"
	"blaze/internal/datagen"
)

// Sliding-window PageRank: the micro-batch streaming variant of the
// PageRank workload. Each window observes a drifted edge set (the graph
// generator re-seeded per window) and re-submits the same logical DAG —
// a few rank iterations — but initializes the rank vector from the
// previous window's final rank graph, so the carried state flows into
// window k+1 as already-cached blocks instead of a cold restart.
// Dataset names use a global iteration numbering so every window's
// generations are distinct lineage nodes; once a window's intermediate
// generations stop being referenced, the windowed-lifetime machinery
// retires them. Batch PageRank is window 1 of the same driver.

// PageRankStreamConfig parameterizes the sliding-window PageRank stream.
type PageRankStreamConfig struct {
	// Graph is the window-1 edge set; window w re-seeds the generator
	// with Seed+w-1, modeling edge churn between micro-batches.
	Graph datagen.GraphSpec
	Parts int
	// ItersPerWindow is how many rank iterations each window runs
	// (default 3: a streaming refinement, not a full convergence run).
	ItersPerWindow int
	// ResetProb is the damping reset probability (0.15 by default).
	ResetProb float64
	// Annotate applies GraphX-style cache() annotations for
	// annotation-based systems; Blaze runs without them.
	Annotate bool
}

func (c PageRankStreamConfig) withDefaults() PageRankStreamConfig {
	if c.ResetProb == 0 {
		c.ResetProb = 0.15
	}
	if c.Parts == 0 {
		c.Parts = 8
	}
	if c.ItersPerWindow == 0 {
		c.ItersPerWindow = 3
	}
	return c
}

// PageRankStream returns the per-window step driver. The returned
// closure owns the carried state (the previous window's final rank
// graph); calling it with window w submits window w's jobs and returns
// the ranks after that window's iterations.
func PageRankStream(cfg PageRankStreamConfig) func(ctx *dataflow.Context, window int) map[int64]float64 {
	return pageRankDriver("spr", cfg)
}

// pageRankDriver is the one PageRank iteration choreography, naming its
// datasets prefix-adj, prefix-graph, prefix-contribs and prefix-sums.
// Window 1 bootstraps ranks from the adjacency; every later window
// re-keys the carried rank graph onto the drifted adjacency.
func pageRankDriver(prefix string, cfg PageRankStreamConfig) func(ctx *dataflow.Context, window int) map[int64]float64 {
	cfg = cfg.withDefaults()
	var carried *dataflow.Dataset
	// Superseded generations are released with one extra iteration of
	// lag, modeling Spark's asynchronous ContextCleaner: shuffle files
	// linger briefly after an RDD goes out of scope, so recomputation
	// chains span a bounded number of iterations.
	var releaseQueue []*dataflow.Dataset
	return func(ctx *dataflow.Context, window int) map[int64]float64 {
		spec := cfg.Graph
		spec.Seed += int64(window - 1)
		// Global iteration numbering: window w owns iterations
		// [base, base+ItersPerWindow], so role@iteration names never
		// collide across windows.
		base := (window - 1) * (cfg.ItersPerWindow + 1)

		// A typed source: every PageRank operator has a kernel, so the
		// adjacency is columnarized once, where it is produced.
		adj := adjacencySource(ctx, name(prefix+"-adj", base), spec, cfg.Parts)
		adj.WithBatchKernel(func(part int, _ []*dataflow.Batch) *dataflow.Batch {
			return dataflow.FromRecords(adj.Compute(part, nil))
		})
		var graph *dataflow.Dataset
		if carried == nil {
			graph = adj.Map(name(prefix+"-graph", base), func(r dataflow.Record) dataflow.Record {
				return dataflow.Record{Key: r.Key, Value: VertexRank{Adj: r.Value.(AdjList).Dsts, Rank: 1}}
			}).WithBatchKernel(rankInitKernel())
		} else {
			// Re-key the carried ranks onto the drifted adjacency:
			// vertices keep their converged rank, the edges are new.
			graph = dataflow.Zip(name(prefix+"-graph", base), dataflow.OpLight, adj, carried,
				func(_ int, as, cs []dataflow.Record) []dataflow.Record {
					prev := vertexMap(cs)
					out := make([]dataflow.Record, len(as))
					for i, a := range as {
						rank := 1.0
						if v, ok := prev[a.Key]; ok {
							rank = v.(VertexRank).Rank
						}
						out[i] = dataflow.Record{Key: a.Key, Value: VertexRank{Adj: a.Value.(AdjList).Dsts, Rank: rank}}
					}
					return out
				}).WithBatchKernel(rankCarryKernel())
			// The carried graph is NOT released here: the stream driver
			// cannot know when cross-window state dies. Windowed
			// lifetime management retires it once its last-consumer
			// window has passed.
		}
		if cfg.Annotate {
			graph.Cache()
		}

		for i := 1; i <= cfg.ItersPerWindow; i++ {
			it := base + i
			contribs := graph.FlatMap(name(prefix+"-contribs", it), rankContribs).WithBatchKernel(contribsKernel())
			sums := contribs.ReduceByKeyF64(name(prefix+"-sums", it), cfg.Parts, func(a, b float64) float64 {
				return a + b
			})
			newGraph := dataflow.Zip(name(prefix+"-graph", it), dataflow.OpLight, graph, sums,
				func(_ int, gs, ss []dataflow.Record) []dataflow.Record {
					sum := vertexMap(ss)
					out := make([]dataflow.Record, len(gs))
					for j, g := range gs {
						v := g.Value.(VertexRank)
						s := 0.0
						if sv, ok := sum[g.Key]; ok {
							s = sv.(float64)
						}
						out[j] = dataflow.Record{Key: g.Key, Value: VertexRank{Adj: v.Adj, Rank: cfg.ResetProb + (1-cfg.ResetProb)*s}}
					}
					return out
				}).WithBatchKernel(rankUpdateKernel(cfg.ResetProb))
			if cfg.Annotate {
				newGraph.Cache()
			}
			newGraph.Count() // the iteration's job

			// GraphX unpersists the previous iteration's graph and
			// messages once the new graph is materialized; releasing them
			// also cleans their shuffle outputs, which is what extends
			// recomputation lineages across iterations (Fig. 5).
			releaseQueue = append(releaseQueue, graph, contribs)
			for len(releaseQueue) > 4 {
				releaseQueue[0].Release()
				releaseQueue = releaseQueue[1:]
			}
			graph = newGraph
		}

		out := make(map[int64]float64)
		for _, part := range graph.Collect() {
			for _, r := range part {
				out[r.Key] = r.Value.(VertexRank).Rank
			}
		}
		carried = graph
		return out
	}
}
