// Custom policy: plug a user-defined eviction policy into the engine and
// run a hand-built iterative dataflow program on it — the extension
// point the paper's §6 sketches for reproducing Blaze in other systems.
//
// The example implements a size-aware "largest-first" policy (evict the
// biggest block first, a classic cache heuristic the paper's baselines
// lack), registers it and a custom workload on the public facade, and
// compares it with LRU on a word-count-style iterative job. Nothing
// here imports blaze/internal: RegisterPolicy, RegisterWorkload and Run
// are the whole integration surface.
//
//	go run ./examples/custompolicy
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"blaze"
)

// largestFirst evicts the biggest resident block first, freeing the most
// space with the fewest eviction decisions.
type largestFirst struct{}

func (largestFirst) Order(blocks []*blaze.BlockMeta) []*blaze.BlockMeta {
	out := append([]*blaze.BlockMeta(nil), blocks...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Size > out[j].Size })
	return out
}

// workload builds a small iterative aggregation: repeatedly re-keys and
// re-aggregates a skewed dataset, caching each round's result and
// unpersisting the round before it, which no later round reads (the
// paper's Fig. 1(a)). It has the WorkloadSpec driver signature, so it
// registers directly.
func workload(ctx *blaze.Context, scale float64) {
	const parts = 8
	n := int(400 * scale)
	if n < 8 {
		n = 8
	}
	data := ctx.Source("events@0", parts, func(part int) []blaze.Record {
		out := make([]blaze.Record, n)
		for i := range out {
			key := int64(part*n + i)
			out[i] = blaze.Record{Key: key % 97, Value: float64(1)}
		}
		return out
	})
	counts := data
	for it := 1; it <= 6; it++ {
		prev := counts
		counts = counts.ReduceByKey(fmt.Sprintf("counts@%d", it), parts, func(a, b any) any {
			return a.(float64) + b.(float64)
		}).MapPartitions(fmt.Sprintf("scaled@%d", it), blaze.OpLight, func(_ int, in []blaze.Record) []blaze.Record {
			out := make([]blaze.Record, len(in))
			for i, r := range in {
				out[i] = blaze.Record{Key: r.Key % 31, Value: r.Value.(float64) * 1.01}
			}
			return out
		})
		counts.Cache()
		counts.Count()
		prev.Unpersist()
	}
}

// register makes the policy and the workload known to the facade.
func register() {
	if err := blaze.RegisterPolicy("largest-first", func() blaze.EvictionPolicy { return largestFirst{} }); err != nil {
		log.Fatal(err)
	}
	if err := blaze.RegisterWorkload(blaze.WorkloadSpec{
		ID:        "custom-agg",
		Title:     "IterativeAggregation",
		SerFactor: 1.0,
		Plain:     workload,
		Annotated: workload, // the driver carries its own Cache() calls
	}); err != nil {
		log.Fatal(err)
	}
}

// run executes the workload under one eviction policy, with memory small
// enough that each executor must evict.
func run(system blaze.SystemID) *blaze.Result {
	res, err := blaze.Run(blaze.RunConfig{
		System:            system,
		Workload:          "custom-agg",
		Executors:         4,
		MemoryPerExecutor: 512,
		CostParams:        blaze.DefaultCostParams(),
	})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	register()
	for _, p := range []struct {
		label  string
		system blaze.SystemID
	}{{"LRU", blaze.PolicySystem("lru")}, {"largest-first", blaze.PolicySystem("largest-first")}} {
		res := run(p.system)
		fmt.Printf("%-23s ACT = %v, evictions = %d\n", p.label+" eviction:",
			res.ACT().Round(time.Microsecond), res.Metrics.Evictions)
	}
	fmt.Println("\nAny type implementing blaze.EvictionPolicy (an ordering over block")
	fmt.Println("metadata) can drive the engine's eviction decisions once registered")
	fmt.Println("with blaze.RegisterPolicy; the Blaze controller replaces the policy")
	fmt.Println("with its unified cost-based decision layer.")
}
