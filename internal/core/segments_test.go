package core

import (
	"testing"

	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/datagen"
	"blaze/internal/engine"
	"blaze/internal/graphx"
)

// stageTasks records, per top-level stage, how many of its tasks ran on
// concurrent workers.
type stageTasks struct {
	last   int
	counts []int
}

func (h *stageTasks) OnJobStart(*engine.Cluster, *engine.Job) {}
func (h *stageTasks) OnJobEnd(*engine.Cluster, *engine.Job)   {}
func (h *stageTasks) OnStageEnd(c *engine.Cluster, _ *engine.Stage) {
	h.counts = append(h.counts, c.ParallelTasksRan()-h.last)
	h.last = c.ParallelTasksRan()
}

// TestSegmentsRunReleaseLagStagesOnWorkers is the engagement witness of
// segmented dispatch. Batch PageRank under Blaze releases each
// iteration's graph and messages four iterations late, cleaning their
// shuffles, while later graphs — memory-resident, droppable by Blaze —
// still lead back to them. A whole-stage proof that trusts no memory
// copy rejects most of these stages (11 of 17 here); proved per segment
// against the stores as each segment starts, every stage runs tasks on
// workers.
func TestSegmentsRunReleaseLagStagesOnWorkers(t *testing.T) {
	ctx := dataflow.NewContext()
	h := &stageTasks{}
	c, err := engine.NewCluster(engine.Config{
		Executors:         8,
		Parallelism:       8,
		MemoryPerExecutor: 32 << 10,
		Params:            costmodel.Default(),
		Controller:        NewBlaze(),
		Hook:              h,
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	step := graphx.PageRankStream(graphx.PageRankStreamConfig{
		Graph: datagen.GraphSpec{Seed: 11, Vertices: 2000, AvgDegree: 8},
		Parts: 32, ItersPerWindow: 8,
	})
	step(ctx, 1)
	met := c.Finish()
	if met.Evictions == 0 {
		t.Fatalf("no evictions: the run never put memory copies at risk")
	}
	if len(h.counts) < 10 {
		t.Fatalf("only %d top-level stages ran", len(h.counts))
	}
	for i, n := range h.counts {
		if n == 0 {
			t.Errorf("stage %d of %d ran no task on a worker (per-stage worker tasks: %v)", i+1, len(h.counts), h.counts)
		}
	}
}
