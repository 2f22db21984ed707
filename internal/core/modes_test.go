package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"blaze/internal/eventlog"
	"blaze/internal/metrics"
)

// seededCands builds n candidates from rng — varied sizes, weights and
// costs, some with a zero disk cost — already carrying the
// boundary perturbation, so the optimum is unique and every mode that
// proves one must land on it.
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
func recordPass(p solvePass, r, cr *solveResult) solvePass {
	tally, cold := p.tally, p.cold
	p.tally = func(met *metrics.App, got solveResult, wall time.Duration) {
		*r = got
		tally(met, got, wall)
	}
	if cold != nil {
		p.cold = func(met *metrics.App, got solveResult, wall time.Duration, mismatch bool) {
			*cr = got
			cold(met, got, wall, mismatch)
		}
	}
	return p
}

// TestSolveModes drives the one placement solve through all four of its
// modes — job start, window boundary, cold verification, plan repair —
// over seeded instances × {disk cap off, on} × {exact-size limit default,
// 0} × {node budget default, 1}, so every solver branch (knapsack fast
// path, exact branch and bound, oversized / truncated / infeasible
// fallbacks) runs under every mode, and pins what the modes must and
// must not share.
func TestSolveModes(t *testing.T) {
	defer func(v, n int) { maxExactVars, ilpNodeBudget = v, n }(maxExactVars, ilpNodeBudget)
	defaultVars, defaultBudget := maxExactVars, ilpNodeBudget

	var seededNodes, unseededNodes int
	for seed := int64(1); seed <= 6; seed++ {
		for _, diskCap := range []bool{false, true} {
			for _, exactVars := range []int{defaultVars, 0} {
				for _, budget := range []int{defaultBudget, 1} {
					name := fmt.Sprintf("seed%d/diskcap=%v/maxExactVars=%d/budget=%d", seed, diskCap, exactVars, budget)
					t.Run(name, func(t *testing.T) {
						maxExactVars, ilpNodeBudget = exactVars, budget
						rng := rand.New(rand.NewSource(seed))
						cands, total := seededCands(rng, 14+int(seed))
						warm := make([]bool, len(cands))
						for i := range warm {
							warm[i] = rng.Intn(4) == 0
						}
						newCtl := func() *Controller {
							ctl := NewBlaze().WithColdVerify(true)
							if diskCap {
								ctl.WithDiskCapacity(total * 3 / 10)
							}
							return ctl
						}
						ctl := newCtl()
						_, ex := newSolveFixture(t, ctl, total*4/10, nil)
						memo := ctl.ilpMemo[ex.ID]
						kinds := func() (ks []float64) {
							for _, e := range memo.entries {
								ks = append(ks, e.key[0])
							}
							return ks
						}

						var job, bnd, bndCold, rep, repCold, again solveResult
						ctl.solveStep(ex, cands, nil, recordPass(ctl.jobStartPass(), &job, nil))
						if job.reused {
							t.Fatal("first job-start solve reused an empty memo")
						}
						for _, k := range kinds() {
							if k != 0 && k != 1 {
								t.Fatalf("job-start solve stored kind %v", k)
							}
						}
						ctl.solveStep(ex, cands, nil, recordPass(ctl.jobStartPass(), &again, nil))
						if job.optimal && !(again.reused && again.nodes == 0 && slices.Equal(again.chosen, job.chosen)) {
							t.Fatalf("repeated job-start instance not answered by the memo: %+v", again)
						}

						// The identical instance at a window boundary: the job-start
						// entries must not answer it, nor the cold verification.
						jobEntries := len(memo.entries)
						ctl.solveStep(ex, cands, warm, recordPass(ctl.boundaryPass(2), &bnd, &bndCold))
						if bnd.reused {
							t.Fatal("boundary solve was answered by a job-start memo entry")
						}
						if bndCold.reused {
							t.Fatal("cold verification consulted the memo")
						}
						for _, k := range kinds()[jobEntries:] {
							if k != 2 && k != 3 {
								t.Fatalf("boundary step stored kind %v (cold verification or a job-start key leaked in)", k)
							}
						}
						ctl.solveStep(ex, cands, warm, recordPass(ctl.boundaryPass(2), &again, &bndCold))
						if bnd.optimal && !(again.reused && again.nodes == 0 && slices.Equal(again.chosen, bnd.chosen)) {
							t.Fatalf("repeated boundary instance not answered by the memo: %+v", again)
						}
						ctl.solveStep(ex, cands, nil, recordPass(ctl.jobStartPass(), &again, nil))
						if job.optimal && !again.reused {
							t.Fatal("boundary entries displaced or shadowed the job-start entry")
						}

						// Plan repair of the identical instance: memo-less both ways.
						before := slices.Clone(memo.entries)
						ctl.solveStep(ex, cands, warm, recordPass(ctl.repairPass(2, func(eventlog.Event) {}), &rep, &repCold))
						if rep.reused || repCold.reused {
							t.Fatal("plan repair consulted the memo")
						}
						if len(memo.entries) != len(before) {
							t.Fatalf("plan repair changed the memo: %d -> %d entries", len(before), len(memo.entries))
						}
						for i := range before {
							if &before[i].key[0] != &memo.entries[i].key[0] {
								t.Fatalf("plan repair replaced or reordered memo entry %d", i)
							}
						}

						// Same unique optimum from every mode that proves one.
						for name, r := range map[string]solveResult{"boundary": bnd, "boundary cold": bndCold, "repair": rep, "repair cold": repCold} {
							if job.optimal && r.optimal && !slices.Equal(job.chosen, r.chosen) {
								t.Fatalf("%s and job start proved different optima:\n%v\n%v", name, r.chosen, job.chosen)
							}
						}

						// Job start's cross-job warm start: a near-identical next
						// instance is seeded with the memo's newest assignment. (A
						// memo hit — the knapsack form only sees min(cost_d,
						// cost_r) — says nothing about the seed.)
						next := slices.Clone(cands)
						next[1].costR *= 1.25
						next[len(next)-1].costD *= 0.75
						var seeded, unseeded solveResult
						ctl.solveStep(ex, next, nil, recordPass(ctl.jobStartPass(), &seeded, nil))
						fresh := newCtl()
						_, freshEx := newSolveFixture(t, fresh, total*4/10, nil)
						fresh.solveStep(freshEx, next, nil, recordPass(fresh.jobStartPass(), &unseeded, nil))
						if seeded.optimal && unseeded.optimal && !seeded.reused {
							if seeded.nodes > unseeded.nodes {
								t.Fatalf("seeded job-start solve expanded more nodes than unseeded: %d > %d", seeded.nodes, unseeded.nodes)
							}
							seededNodes += seeded.nodes
							unseededNodes += unseeded.nodes
						}
					})
				}
			}
		}
	}
	t.Logf("job-start incumbent seed: %d nodes seeded vs %d unseeded", seededNodes, unseededNodes)
	if seededNodes >= unseededNodes {
		t.Errorf("job-start incumbent seed pruned nothing: %d nodes seeded, %d unseeded", seededNodes, unseededNodes)
	}
}
