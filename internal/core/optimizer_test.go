package core

import (
	"testing"

	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/engine"
	"blaze/internal/eventlog"
)

// newSolveFixture creates a bound controller and one executor for
// driving single job-start solves directly with synthetic candidates.
func newSolveFixture(t *testing.T, ctl *Controller, mem int64, log *eventlog.Log) (*engine.Cluster, *engine.Executor) {
	t.Helper()
	ctx := dataflow.NewContext()
	c, err := engine.NewCluster(engine.Config{
		Executors:         1,
		MemoryPerExecutor: mem,
		Params:            costmodel.Default(),
		Controller:        ctl,
		EventLog:          log,
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return c, c.Executors()[0]
}

// solve runs one accounted job-start solve.
func (b *Controller) solve(ex *engine.Executor, cands []candidate) []bool {
	return b.solveStep(ex, cands, nil, b.jobStartPass())
}

// syntheticCands builds n deterministic candidates whose sizes sum to
// the returned total (for capacity sizing).
func syntheticCands(n int) ([]candidate, int64) {
	cands := make([]candidate, n)
	var total int64
	for i := range cands {
		size := int64(1024 + (i%7)*512)
		cands[i] = candidate{
			size:   size,
			weight: 1,
			costD:  float64(1 + (i*37)%50),
			costR:  float64(1 + (i*61)%150),
		}
		total += size
	}
	return cands, total
}

// TestKnapsackFallbackRespectsDiskCapacity is the regression test for
// the oversized-instance path: when the active candidate count exceeds
// maxExactVars the solver degrades to the knapsack relaxation, which
// knows nothing about the disk row — the apply step must still keep
// every executor's on-disk footprint within the configured capacity.
func TestKnapsackFallbackRespectsDiskCapacity(t *testing.T) {
	defer func(v int) { maxExactVars = v }(maxExactVars)
	maxExactVars = 0 // force every disk-constrained solve onto the fallback

	const diskCap = 16 * 1024
	want := referenceResult(t, 4)
	ctl := NewBlaze().WithSkeleton(Profile(iterWorkload(4, nil), 0.05)).WithDiskCapacity(diskCap)
	var got float64
	m := runSystem(t, ctl, 8*1024, 4, false, &got)
	if got != want {
		t.Fatalf("fallback path broke correctness: %v != %v", got, want)
	}
	if m.ILPFallbacks == 0 {
		t.Fatal("expected knapsack fallbacks with maxExactVars=0")
	}
	for i := range m.Executors {
		if peak := m.Executors[i].DiskPeakBytes; peak > diskCap {
			t.Fatalf("executor %d disk peak %d exceeds capacity %d on the fallback path", i, peak, diskCap)
		}
	}
}

// TestSolveMemoExactReuse checks cross-job solution reuse on both solver
// paths: re-solving an identical fingerprint must be answered from the
// memo (no search nodes), with the identical assignment, and be recorded
// in metrics and the event log.
func TestSolveMemoExactReuse(t *testing.T) {
	cands, total := syntheticCands(12)

	t.Run("ilp", func(t *testing.T) {
		log := eventlog.New()
		ctl := NewBlaze().WithDiskCapacity(total * 8 / 10)
		c, ex := newSolveFixture(t, ctl, total*4/10, log)
		first := ctl.solve(ex, cands)
		m := c.Metrics()
		if m.ILPReused != 0 {
			t.Fatalf("first solve reused: %+v", m.ILPReused)
		}
		if m.ILPFallbacks != 0 {
			t.Fatalf("first solve fell back (%d) — expected an exact solve", m.ILPFallbacks)
		}
		nodesAfterFirst := m.ILPNodes
		second := ctl.solve(ex, cands)
		if m.ILPReused != 1 {
			t.Fatalf("second solve not reused: reused=%d", m.ILPReused)
		}
		if m.ILPNodes != nodesAfterFirst {
			t.Fatalf("memo hit expanded nodes: %d -> %d", nodesAfterFirst, m.ILPNodes)
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("reused assignment differs at %d", i)
			}
		}
		if m.ILPSolves != 2 {
			t.Fatalf("ILPSolves = %d, want 2", m.ILPSolves)
		}
		var events []eventlog.Event
		for _, e := range log.Events() {
			if e.Kind == eventlog.ILPSolve {
				events = append(events, e)
			}
		}
		if len(events) != 2 {
			t.Fatalf("ilp_solve events = %d, want 2", len(events))
		}
		if !events[0].Optimal || events[0].Reused || events[0].Vars == 0 {
			t.Fatalf("first event misclassified: %+v", events[0])
		}
		if !events[1].Reused || !events[1].Optimal || events[1].Nodes != 0 {
			t.Fatalf("second event misclassified: %+v", events[1])
		}
	})

	t.Run("knapsack", func(t *testing.T) {
		ctl := NewBlaze() // no disk capacity: fast path
		c, ex := newSolveFixture(t, ctl, total*4/10, nil)
		first := ctl.solve(ex, cands)
		second := ctl.solve(ex, cands)
		m := c.Metrics()
		if m.ILPReused != 1 {
			t.Fatalf("knapsack path not reused: reused=%d", m.ILPReused)
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("reused assignment differs at %d", i)
			}
		}
	})
}

// TestCrossJobIncumbentWarmStart checks the near-match path: a perturbed
// instance cannot reuse the previous solution outright, but seeding the
// branch and bound with it as incumbent must not expand more nodes than
// a cold solve of the same instance — the seed only adds pruning.
func TestCrossJobIncumbentWarmStart(t *testing.T) {
	cands, total := syntheticCands(24)
	perturbed := make([]candidate, len(cands))
	copy(perturbed, cands)
	perturbed[5].costR *= 1.25
	perturbed[11].costD *= 0.75

	coldCtl := NewBlaze().WithDiskCapacity(total * 8 / 10)
	coldC, coldEx := newSolveFixture(t, coldCtl, total*4/10, nil)
	coldChosen := coldCtl.solve(coldEx, perturbed)
	coldNodes := coldC.Metrics().ILPNodes

	warmCtl := NewBlaze().WithDiskCapacity(total * 8 / 10)
	warmC, warmEx := newSolveFixture(t, warmCtl, total*4/10, nil)
	warmCtl.solve(warmEx, cands) // seeds the memo
	before := warmC.Metrics().ILPNodes
	warmChosen := warmCtl.solve(warmEx, perturbed)
	warmNodes := warmC.Metrics().ILPNodes - before

	if warmC.Metrics().ILPReused != 0 {
		t.Fatal("perturbed instance must not be an exact memo hit")
	}
	if warmNodes > coldNodes {
		t.Fatalf("warm-started solve expanded more nodes than cold: %d > %d", warmNodes, coldNodes)
	}
	for i := range coldChosen {
		if coldChosen[i] != warmChosen[i] {
			t.Fatalf("warm and cold solves disagree at %d", i)
		}
	}
}

// TestExactSolveAt128Candidates checks the raised maxExactVars
// acceptance bar: a disk-constrained instance with 128 active candidates
// (384 decision variables) must be solved exactly — proven optimal, no
// fallback — within the default node budget.
func TestExactSolveAt128Candidates(t *testing.T) {
	cands, total := syntheticCands(128)
	ctl := NewBlaze().WithDiskCapacity(total * 8 / 10)
	c, ex := newSolveFixture(t, ctl, total*4/10, nil)
	ctl.solve(ex, cands)
	m := c.Metrics()
	if m.ILPFallbacks != 0 {
		t.Fatalf("n=128 solve fell back (%d fallbacks)", m.ILPFallbacks)
	}
	if m.ILPNodes >= ilpNodeBudget {
		t.Fatalf("n=128 solve spent %d nodes, budget %d", m.ILPNodes, ilpNodeBudget)
	}
	if m.ILPSolves != 1 {
		t.Fatalf("ILPSolves = %d, want 1", m.ILPSolves)
	}
}
