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
	return b.solveStep(ex, cands, b.jobStartPass())
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
