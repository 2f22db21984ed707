// Shortest paths: write a NEW iterative algorithm against the public
// facade and run it under Blaze's automatic caching — the adoption path
// for custom workloads. No cache() annotation appears anywhere; Blaze
// discovers what to cache from the lineage it builds on the run. The
// program imports only the blaze package: the dataflow surface
// (Source/FlatMap/ReduceByKey/ZipDatasets), the workload registry and
// Run are the whole integration.
//
//	go run ./examples/shortestpaths
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"blaze"
)

// state carries each vertex's adjacency and current hop distance.
type state struct {
	Adj  []int64
	Dist float64
}

// SizeBytes lets the cache see realistic, skewed partition sizes.
func (s state) SizeBytes() int64 { return 48 + 8*int64(len(s.Adj)) }

const (
	numVertices = 2000
	avgDegree   = 4
	parts       = 16
	source      = int64(0)
	maxIters    = 30
)

// neighbors derives vertex v's adjacency deterministically: source
// partitions must regenerate identically when recomputed.
func neighbors(v, n int64) []int64 {
	h := uint64(v)*2654435761 + 99
	deg := 1 + int(h%(2*avgDegree-1)) // 1..2·avg-1, mean avgDegree
	out := make([]int64, 0, deg)
	for i := 0; i < deg; i++ {
		h = h*6364136223846793005 + 1442695040888963407
		out = append(out, int64(h%uint64(n)))
	}
	return out
}

// sssp is the workload driver: single-source shortest paths by
// hop-count supersteps. Each superstep floods candidate distances along
// edges, takes the per-vertex minimum, and merges it into the graph.
// With unit weights a vertex's first assigned distance is final, so the
// loop stops when the reached count stops growing. The final distances
// are written into dists for cross-system verification.
func sssp(dists *map[int64]float64) func(ctx *blaze.Context, scale float64) {
	return func(ctx *blaze.Context, scale float64) {
		n := int64(float64(numVertices) * scale)
		if n < 64 {
			n = 64
		}
		verts := ctx.Source("graph@0", parts, func(part int) []blaze.Record {
			var out []blaze.Record
			for v := int64(0); v < n; v++ {
				if blaze.HashPartition(v, parts) == part {
					d := math.Inf(1)
					if v == source {
						d = 0
					}
					out = append(out, blaze.Record{Key: v, Value: state{Adj: neighbors(v, n), Dist: d}})
				}
			}
			return out
		})

		reached := 1
		for it := 1; it <= maxIters; it++ {
			msgs := verts.FlatMap(fmt.Sprintf("msgs@%d", it), func(r blaze.Record) []blaze.Record {
				st := r.Value.(state)
				if math.IsInf(st.Dist, 1) {
					return nil
				}
				out := make([]blaze.Record, len(st.Adj))
				for i, dst := range st.Adj {
					out[i] = blaze.Record{Key: dst, Value: st.Dist + 1}
				}
				return out
			})
			mins := msgs.ReduceByKey(fmt.Sprintf("mins@%d", it), parts, func(a, b any) any {
				if a.(float64) < b.(float64) {
					return a
				}
				return b
			})
			verts = blaze.ZipDatasets(fmt.Sprintf("graph@%d", it), blaze.OpMedium, verts, mins,
				func(part int, vs, ms []blaze.Record) []blaze.Record {
					best := make(map[int64]float64, len(ms))
					for _, m := range ms {
						best[m.Key] = m.Value.(float64)
					}
					out := make([]blaze.Record, len(vs))
					for i, r := range vs {
						st := r.Value.(state)
						if d, ok := best[r.Key]; ok && d < st.Dist {
							st = state{Adj: st.Adj, Dist: d}
						}
						out[i] = blaze.Record{Key: r.Key, Value: st}
					}
					return out
				})
			now := verts.Filter(fmt.Sprintf("reached@%d", it), func(r blaze.Record) bool {
				return !math.IsInf(r.Value.(state).Dist, 1)
			}).Count()
			if now == reached {
				break
			}
			reached = now
		}

		out := make(map[int64]float64, n)
		for _, part := range verts.Collect() {
			for _, r := range part {
				out[r.Key] = r.Value.(state).Dist
			}
		}
		*dists = out
	}
}

func main() {
	var dists map[int64]float64
	// A workload's own value types must be registered for the partition
	// codec, which real-bytes runs and durable checkpoints go through.
	blaze.RegisterValueType(state{})
	if err := blaze.RegisterWorkload(blaze.WorkloadSpec{
		ID:        "sssp",
		Title:     "ShortestPaths",
		SerFactor: 2.0,
		Plain:     sssp(&dists),
	}); err != nil {
		log.Fatal(err)
	}

	run := func(sys blaze.SystemID) (map[int64]float64, time.Duration) {
		res, err := blaze.Run(blaze.RunConfig{
			System:            sys,
			Workload:          "sssp",
			Executors:         8,
			MemoryPerExecutor: 24 * 1024, // tight: the graph does not fit
			CostParams:        blaze.DefaultCostParams(),
		})
		if err != nil {
			log.Fatal(err)
		}
		return dists, res.ACT()
	}

	blazeDists, blazeACT := run(blaze.SysBlazeNoProfile)
	sparkDists, sparkACT := run(blaze.SysSparkMem)

	reached, maxDist := 0, 0.0
	for _, d := range blazeDists {
		if !math.IsInf(d, 1) {
			reached++
			if d > maxDist {
				maxDist = d
			}
		}
	}
	for v, d := range blazeDists {
		sd := sparkDists[v]
		if d != sd && !(math.IsInf(d, 1) && math.IsInf(sd, 1)) {
			log.Fatalf("systems disagree at vertex %d: %v vs %v", v, d, sd)
		}
	}

	fmt.Printf("single-source shortest paths over %d vertices\n", numVertices)
	fmt.Printf("  reachable vertices: %d, eccentricity: %.0f hops\n", reached, maxDist)
	fmt.Printf("  Blaze (auto-caching):      ACT = %v\n", blazeACT.Round(time.Microsecond))
	fmt.Printf("  Spark MEM_ONLY (no hints): ACT = %v\n", sparkACT.Round(time.Microsecond))
	fmt.Println("\nThe algorithm carries no caching annotations; under MEM_ONLY Spark")
	fmt.Println("nothing is cached at all, while Blaze auto-caches each superstep's")
	fmt.Println("graph generation and unpersists it when its references end.")
}
