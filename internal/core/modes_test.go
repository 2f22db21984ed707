package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"blaze/internal/metrics"
)

// seededCands builds n candidates from rng — varied sizes, weights and
// costs, some with a zero disk cost — already carrying the boundary
// tie-break, so the optimum is unique.
func seededCands(rng *rand.Rand, n int) ([]candidate, int64) {
	cands := make([]candidate, n)
	var total int64
	for i := range cands {
		size := int64(512 + rng.Intn(8)*256)
		cands[i] = candidate{
			size:   size,
			weight: float64(1 + rng.Intn(3)),
			costD:  float64(rng.Intn(40)),
			costR:  float64(1 + rng.Intn(120)),
		}
		total += size
	}
	perturbBoundaryCosts(cands)
	return cands, total
}

// recordPass wraps a pass's accounting so the test sees each solve's
// full result, not just the chosen set solveStep returns.
func recordPass(p solvePass, r *solveResult) solvePass {
	tally := p.tally
	p.tally = func(met *metrics.App, got solveResult, wall time.Duration) {
		*r = got
		tally(met, got, wall)
	}
	return p
}

// TestSolveModes drives the three placement passes — job start, window
// boundary, plan repair — over one perturbed instance per seed × {disk
// cap off, on} × {exact-size limit default, 0} × {node budget default,
// 1, 64}, so every solver branch runs (knapsack fast path, exact branch
// and bound, and the oversized, truncated and infeasible fallbacks).
// Each pass is one plain solve, so all three must return the same
// assignment and classification — the proven optimum wherever the
// branch proves one — and book exactly one solve to their own counters.
func TestSolveModes(t *testing.T) {
	defer func(v, n int) { maxExactVars, ilpNodeBudget = v, n }(maxExactVars, ilpNodeBudget)
	defaultVars, defaultBudget := maxExactVars, ilpNodeBudget

	budgets := []int{defaultBudget, 1, 64}
	runs, reached := 0, map[string]int{}
	for seed := int64(1); seed <= 6; seed++ {
		for _, diskCap := range []bool{false, true} {
			for _, exactVars := range []int{defaultVars, 0} {
				for _, budget := range budgets {
					name := fmt.Sprintf("seed%d/diskcap=%v/maxExactVars=%d/budget=%d", seed, diskCap, exactVars, budget)
					t.Run(name, func(t *testing.T) {
						runs++
						maxExactVars, ilpNodeBudget = exactVars, budget
						cands, total := seededCands(rand.New(rand.NewSource(seed)), 14+int(seed))
						ctl := NewBlaze()
						if diskCap {
							ctl.WithDiskCapacity(total * 3 / 10)
						}
						c, ex := newSolveFixture(t, ctl, total*4/10, nil)

						passes := []solvePass{ctl.jobStartPass(), ctl.boundaryPass(2), ctl.repairPass(2)}
						got := make([]solveResult, len(passes))
						for i, p := range passes {
							ctl.solveStep(ex, cands, recordPass(p, &got[i]))
						}
						for i, r := range got[1:] {
							if !reflect.DeepEqual(r, got[0]) {
								t.Fatalf("pass %d disagrees with job start:\n%+v\n%+v", i+1, r, got[0])
							}
						}
						if m := c.Metrics(); m.ILPSolves != 1 || m.ILPDeltaSolves != 1 || m.RepairSolves != 1 {
							t.Fatalf("solves booked job/boundary/repair = %d/%d/%d, want 1/1/1", m.ILPSolves, m.ILPDeltaSolves, m.RepairSolves)
						}

						r := got[0]
						var branch string
						switch {
						case !diskCap:
							branch = "knapsack"
						case r.vars == len(cands):
							branch = "oversized"
						case r.optimal:
							branch = "exact"
						case r.nodes == budget:
							branch = "truncated"
						default:
							branch = "infeasible"
						}
						if proves := branch == "knapsack" || branch == "exact"; proves != r.optimal || r.optimal == r.fallback {
							t.Fatalf("%s branch classified optimal=%v fallback=%v", branch, r.optimal, r.fallback)
						}
						reached[branch]++
					})
				}
			}
		}
	}
	if runs < 6*2*2*len(budgets) {
		return // filtered: branch coverage is only meaningful over the whole matrix
	}
	for _, b := range []string{"knapsack", "exact", "oversized", "truncated", "infeasible"} {
		if reached[b] == 0 {
			t.Errorf("no configuration reached the %s branch (reached %v)", b, reached)
		}
	}
}
