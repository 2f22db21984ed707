package core

import (
	"fmt"
	"testing"
	"time"

	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/engine"
	"blaze/internal/metrics"
	"blaze/internal/storage"
)

// iterWorkload is a PageRank-shaped Workload: a static "edges" dataset
// referenced every iteration (narrowly, like GraphX's edge partitions)
// plus per-iteration ranks flowing through a shuffle. result accumulates
// the final rank sum for correctness checks.
func iterWorkload(iters int, result *float64) Workload {
	return func(ctx *dataflow.Context, scale float64) {
		rows := int(120 * scale)
		if rows < 4 {
			rows = 4
		}
		const parts = 4
		n := int64(parts * rows)
		edges := ctx.Source("edges@0", parts, func(part int) []dataflow.Record {
			out := make([]dataflow.Record, rows)
			for i := range out {
				key := int64(part*rows + i)
				// A moderately wide payload so edges dominate memory.
				out[i] = dataflow.Record{Key: key, Value: []float64{1, 2, 3, 4, 5, 6}}
			}
			return out
		})
		ranks := edges.Map("ranks@0", func(r dataflow.Record) dataflow.Record {
			return dataflow.Record{Key: r.Key, Value: float64(1)}
		})
		var released []*dataflow.Dataset
		for it := 1; it <= iters; it++ {
			contribs := dataflow.Zip(fmt.Sprintf("contribs@%d", it), dataflow.OpHeavy, ranks, edges,
				func(_ int, rs, es []dataflow.Record) []dataflow.Record {
					out := make([]dataflow.Record, 0, 2*len(rs))
					for _, r := range rs {
						v := r.Value.(float64) / 2
						out = append(out,
							dataflow.Record{Key: r.Key, Value: v},
							dataflow.Record{Key: (r.Key + 3) % n, Value: v})
					}
					return out
				})
			sums := contribs.ReduceByKey(fmt.Sprintf("sums@%d", it), parts, func(a, b any) any {
				return a.(float64) + b.(float64)
			})
			newRanks := sums.Map(fmt.Sprintf("ranks@%d", it), func(r dataflow.Record) dataflow.Record {
				return dataflow.Record{Key: r.Key, Value: 0.15 + 0.85*r.Value.(float64)}
			})
			newRanks.Count()
			released = append(released, ranks)
			if len(released) > 2 {
				released[len(released)-3].Release()
			}
			ranks = newRanks
		}
		if result != nil {
			total := 0.0
			for _, part := range ranks.Collect() {
				for _, r := range part {
					total += r.Value.(float64)
				}
			}
			*result = total
		}
	}
}

// runSystem executes the workload under a controller and returns metrics.
func runSystem(t *testing.T, ctl engine.Controller, mem int64, iters int, annotate bool, result *float64) *metrics.App {
	t.Helper()
	ctx := dataflow.NewContext()
	c, err := engine.NewCluster(engine.Config{
		Executors:         2,
		MemoryPerExecutor: mem,
		Params:            costmodel.Default(),
		Controller:        ctl,
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if annotate {
		annotatedRun(ctx, iters)
	} else {
		iterWorkload(iters, result)(ctx, 1.0)
	}
	return c.Finish()
}

func referenceResult(t *testing.T, iters int) float64 {
	t.Helper()
	ctx := dataflow.NewContext()
	dataflow.NewLocalRunner(ctx)
	var res float64
	iterWorkload(iters, &res)(ctx, 1.0)
	return res
}

func TestBlazeCorrectUnderPressure(t *testing.T) {
	want := referenceResult(t, 5)
	for _, mk := range []func() *Controller{NewBlaze, NewBlazeMemOnly, NewAutoCache, NewCostAware} {
		ctl := mk()
		var got float64
		runSystem(t, ctl, 8*1024, 5, false, &got)
		if got != want {
			t.Errorf("%s: result %v != reference %v", ctl.Name(), got, want)
		}
	}
}

func TestBlazeWithProfilingCorrect(t *testing.T) {
	want := referenceResult(t, 5)
	sk := Profile(iterWorkload(5, nil), 0.05)
	ctl := NewBlaze().WithSkeleton(sk)
	var got float64
	m := runSystem(t, ctl, 8*1024, 5, false, &got)
	if got != want {
		t.Fatalf("result %v != reference %v", got, want)
	}
	if m.ILPSolves == 0 {
		t.Fatal("ILP never ran")
	}
}

func TestBlazeAutoCachesWithoutAnnotations(t *testing.T) {
	ctl := NewBlaze().WithSkeleton(Profile(iterWorkload(5, nil), 0.05))
	m := runSystem(t, ctl, 256*1024, 5, false, nil)
	if m.CacheHits == 0 {
		t.Fatal("auto-caching produced no cache hits")
	}
	if m.Unpersists == 0 {
		t.Fatal("auto-unpersisting never triggered")
	}
}

func TestBlazeMemOnlyNeverWritesDisk(t *testing.T) {
	ctl := NewBlazeMemOnly().WithSkeleton(Profile(iterWorkload(5, nil), 0.05))
	m := runSystem(t, ctl, 8*1024, 5, false, nil)
	if m.DiskBytesWritten != 0 {
		t.Fatalf("Blaze (MEM) wrote %d bytes to disk", m.DiskBytesWritten)
	}
}

func TestProfilingKnowsFutureBeforeFirstObservation(t *testing.T) {
	sk := Profile(iterWorkload(4, nil), 0.05)
	// The edges role must be known to be referenced across many jobs.
	offs := sk.RefOffsets["edges"]
	if len(offs) < 3 {
		t.Fatalf("edges offsets = %v, want references across several jobs", offs)
	}
	// ranks roles are referenced in their creation job and the next one.
	rOffs := sk.RefOffsets["ranks"]
	has1 := false
	for _, o := range rOffs {
		if o == 1 {
			has1 = true
		}
	}
	if !has1 {
		t.Fatalf("ranks offsets = %v, want offset 1 (next-iteration reuse)", rOffs)
	}
}

func TestSkeletonKeysMatchRealRun(t *testing.T) {
	w := iterWorkload(3, nil)
	sk := Profile(w, 0.05)
	// Replay the real run's registration and check every dataset maps to
	// a profiled node.
	ctx := dataflow.NewContext()
	dataflow.NewLocalRunner(ctx)
	w(ctx, 1.0)
	l := NewCostLineage()
	l.ApplySkeleton(sk)
	seq := make(map[string]map[int]int)
	for _, ds := range ctx.Datasets() {
		key := keyFor(seq, ds)
		if sk.Nodes[key] == nil {
			t.Fatalf("dataset %q (key %+v) missing from skeleton", ds.Name(), key)
		}
	}
}

func TestBlazeBeatsSparkMemOnly(t *testing.T) {
	const mem = 8 * 1024
	const iters = 6
	// Spark MEM_ONLY with annotations on every iteration dataset.
	sparkACT := runAnnotatedSpark(t, engine.NewSparkMemOnly(), mem, iters)
	ctl := NewBlaze().WithSkeleton(Profile(iterWorkload(iters, nil), 0.05))
	m := runSystem(t, ctl, mem, iters, false, nil)
	if m.ACT >= sparkACT {
		t.Fatalf("Blaze ACT %v should beat MEM_ONLY Spark %v", m.ACT, sparkACT)
	}
}

func TestBlazeWritesLessDiskThanMemDisk(t *testing.T) {
	const mem = 8 * 1024
	const iters = 6
	ctxS := dataflow.NewContext()
	cS, err := engine.NewCluster(engine.Config{
		Executors: 2, MemoryPerExecutor: mem, Params: costmodel.Default(),
		Controller: engine.NewSparkMemDisk(),
	}, ctxS)
	if err != nil {
		t.Fatal(err)
	}
	annotatedRun(ctxS, iters)
	mSpark := cS.Finish()

	ctl := NewBlaze().WithSkeleton(Profile(iterWorkload(iters, nil), 0.05))
	mBlaze := runSystem(t, ctl, mem, iters, false, nil)
	if mBlaze.DiskBytesWritten > mSpark.DiskBytesWritten {
		t.Fatalf("Blaze disk bytes %d > MEM+DISK Spark %d", mBlaze.DiskBytesWritten, mSpark.DiskBytesWritten)
	}
}

// annotatedRun executes the iterative workload with GraphX-style cache
// annotations applied to ranks datasets for annotation-based systems.
func annotatedRun(ctx *dataflow.Context, iters int) {
	rows := 120
	const parts = 4
	n := int64(parts * rows)
	edges := ctx.Source("edges@0", parts, func(part int) []dataflow.Record {
		out := make([]dataflow.Record, rows)
		for i := range out {
			key := int64(part*rows + i)
			out[i] = dataflow.Record{Key: key, Value: []float64{1, 2, 3, 4, 5, 6}}
		}
		return out
	})
	edges.Cache()
	ranks := edges.Map("ranks@0", func(r dataflow.Record) dataflow.Record {
		return dataflow.Record{Key: r.Key, Value: float64(1)}
	})
	ranks.Cache()
	var released []*dataflow.Dataset
	for it := 1; it <= iters; it++ {
		contribs := dataflow.Zip(fmt.Sprintf("contribs@%d", it), dataflow.OpHeavy, ranks, edges,
			func(_ int, rs, es []dataflow.Record) []dataflow.Record {
				out := make([]dataflow.Record, 0, 2*len(rs))
				for _, r := range rs {
					v := r.Value.(float64) / 2
					out = append(out,
						dataflow.Record{Key: r.Key, Value: v},
						dataflow.Record{Key: (r.Key + 3) % n, Value: v})
				}
				return out
			})
		sums := contribs.ReduceByKey(fmt.Sprintf("sums@%d", it), parts, func(a, b any) any {
			return a.(float64) + b.(float64)
		})
		newRanks := sums.Map(fmt.Sprintf("ranks@%d", it), func(r dataflow.Record) dataflow.Record {
			return dataflow.Record{Key: r.Key, Value: 0.15 + 0.85*r.Value.(float64)}
		})
		newRanks.Cache()
		newRanks.Count()
		released = append(released, ranks)
		if len(released) > 2 {
			released[len(released)-3].Release()
		}
		ranks = newRanks
	}
	ranks.Collect()
}

func runAnnotatedSpark(t *testing.T, ctl engine.Controller, mem int64, iters int) time.Duration {
	t.Helper()
	ctx := dataflow.NewContext()
	c, err := engine.NewCluster(engine.Config{
		Executors: 2, MemoryPerExecutor: mem, Params: costmodel.Default(),
		Controller: ctl,
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	annotatedRun(ctx, iters)
	return c.Finish().ACT
}

func TestTargetStatesApplied(t *testing.T) {
	sk := Profile(iterWorkload(4, nil), 0.05)
	ctl := NewBlaze().WithSkeleton(sk)
	m := runSystem(t, ctl, 8*1024, 4, false, nil)
	if m.ILPSolves == 0 {
		t.Fatal("expected ILP solves")
	}
	// Nodes are honest search effort: the knapsack fast path reports zero
	// when every candidate fits in memory, so assert outcome quality
	// instead of raw node counts.
	if m.ILPFallbacks != 0 {
		t.Fatalf("unexpected optimizer fallbacks: %d", m.ILPFallbacks)
	}
}

func TestBlazeWithDiskCapacityConstraint(t *testing.T) {
	want := referenceResult(t, 4)
	ctl := NewBlaze().WithSkeleton(Profile(iterWorkload(4, nil), 0.05)).WithDiskCapacity(64 * 1024)
	var got float64
	m := runSystem(t, ctl, 8*1024, 4, false, &got)
	if got != want {
		t.Fatalf("disk-constrained ILP broke correctness: %v != %v", got, want)
	}
	if m.ILPSolves == 0 {
		t.Fatal("expected branch-and-bound ILP solves")
	}
}

var _ = storage.BlockID{}
