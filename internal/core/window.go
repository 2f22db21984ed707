package core

import (
	"time"

	"blaze/internal/engine"
	"blaze/internal/eventlog"
	"blaze/internal/ilp"
	"blaze/internal/storage"
)

// This file implements windowed lineage for micro-batch streaming: at
// every window boundary the controller retires partitions whose
// lifetime (last-consumer window) has passed — removing them from the
// store and from the optimizer's candidate set — and re-solves the ILP
// as a *delta* on the previous window's assignment. The delta solve
// warm-starts the branch and bound through its pruning bound only
// (ilp.SolveFrom / ilp.KnapsackSearchFrom), so it selects the same
// cache set a from-scratch solve would while exploring far fewer nodes.

// boundaryPerturb is the relative scale of the deterministic index-based
// objective perturbation applied to window-boundary solve instances. It
// breaks cost ties so the optimum is unique, which is what makes the
// delta and cold searches provably agree on the chosen cache set even
// though reduced-cost fixing makes them traverse the tree differently.
// It must comfortably exceed the solver's 1e-9 objective tolerances and
// stay far below any real cost difference; it is applied only at window
// boundaries, never on the job-start solve path, so one-shot runs stay
// bit-identical to the unwindowed engine.
const boundaryPerturb = 1e-6

// WithColdVerify enables from-scratch verification of every window
// boundary delta solve: alongside each delta re-solve a cold solve of
// the identical instance runs with no memo and no warm start, its time
// is accounted to ILPColdSolveTime, and a disagreement between two
// proven optima counts in ILPColdMismatches (expected to stay zero).
func (b *Controller) WithColdVerify(on bool) *Controller {
	b.coldVerify = on
	return b
}

// AdvanceWindow implements engine.WindowAdvancer. It runs in driver
// context at the window boundary, before the new window's first job:
//
//  1. Retire lineage whose lifetime has passed: a node untouched since
//     before the *previous* window began has had no consumer for a full
//     window, so its partitions are dropped from both store tiers and
//     excluded from future candidate sets. The one-window grace keeps
//     carried state (rank vectors, centroids, static inputs read every
//     window) alive. Retired nodes stay on the lineage graph — the cost
//     estimator still walks their edges from live descendants.
//  2. Re-solve the ILP as a delta on the previous window's assignment
//     (window > 1 only; window 1 has no predecessor to delta from).
func (b *Controller) AdvanceWindow(window, nextJob int) {
	if b.retired == nil {
		b.retired = make(map[*Node]bool)
	}
	b.epoch++
	retireBefore := b.winFirstJob
	prevWindow := b.curWindow
	b.curWindow = window
	b.winFirstJob = nextJob
	b.curJob = nextJob
	b.curStageIdx = 0
	b.stageRefs = make(map[int][]int)

	if prevWindow >= 1 {
		b.retireDeadLineage(window, retireBefore)
	}
	if b.feat.ILP && prevWindow >= 1 {
		b.runILPBoundary(window)
	}
}

// retireDeadLineage drops every node last touched before retireBefore
// (the first job of the window that just completed).
func (b *Controller) retireDeadLineage(window, retireBefore int) {
	met := b.c.Metrics()
	for _, n := range b.lin.Nodes() {
		if b.retired[n] || n.TouchedJob >= retireBefore {
			continue
		}
		b.retired[n] = true
		if n.DatasetID < 0 {
			continue
		}
		for p := 0; p < n.Parts; p++ {
			ex := b.c.ExecutorFor(p)
			id := storage.BlockID{Dataset: n.DatasetID, Partition: p}
			var size int64
			resident := false
			if m, ok := ex.Mem.Peek(id); ok {
				size, resident = m.Size, true
			} else if s, ok := ex.Disk.Size(id); ok {
				size, resident = s, true
			}
			delete(b.targetState, id)
			if ex.ID < len(b.lastChosen) && b.lastChosen[ex.ID] != nil {
				delete(b.lastChosen[ex.ID], id)
			}
			if !resident {
				continue
			}
			b.c.DropBlock(ex, id)
			met.PartitionsRetired++
			b.c.EmitEvent(eventlog.Event{
				Kind: eventlog.PartitionRetired, Time: b.c.Now(), Job: b.curJob,
				Executor: ex.ID, Dataset: n.DatasetID, Partition: p,
				Bytes: size, Window: window,
			})
		}
	}
}

// runILPBoundary is the incremental counterpart of runILP: the same
// per-executor fixed point on the recursive recovery costs, but each
// solve is seeded with the previous window's assignment for this
// executor (retired candidates already dropped by gatherCandidates, new
// candidates appended) and the instance objective carries the
// deterministic tie-breaking perturbation.
func (b *Controller) runILPBoundary(window int) {
	b.targetState = make(map[storage.BlockID]engine.Placement)

	for _, ex := range b.c.Executors() {
		cands := b.gatherCandidates(ex)
		if len(cands) == 0 {
			continue
		}

		b.priceCandidates(cands, nil)
		perturbBoundaryCosts(cands)
		chosen := b.solveBoundary(ex, cands, b.warmFrom(ex, cands), window)
		hypo := make(map[storage.BlockID]bool, len(cands))
		for i, c := range cands {
			hypo[c.id] = chosen[i]
		}
		b.priceCandidates(cands, hypo)
		perturbBoundaryCosts(cands)
		chosen = b.solveBoundary(ex, cands, chosen, window)

		b.applyAssignment(ex, cands, chosen)
	}
}

// perturbBoundaryCosts applies the deterministic index-based objective
// perturbation: each candidate's costs gain a distinct additive epsilon
// proportional to the instance's cost scale. The epsilon exceeds the
// solver's 1e-9 objective tolerance, so equal-cost alternatives become
// strictly ordered and the optimum memory set is unique; it is orders
// of magnitude below real cost differences, so placements are otherwise
// unchanged. Both the delta and the cold verification solve see the
// identical perturbed instance.
func perturbBoundaryCosts(cands []candidate) {
	scale := 1e-3 // floor: seconds-scale costs can legitimately be tiny
	for i := range cands {
		if cands[i].costD > scale {
			scale = cands[i].costD
		}
		if cands[i].costR > scale {
			scale = cands[i].costR
		}
	}
	n := float64(len(cands) + 1)
	for i := range cands {
		eps := scale * boundaryPerturb * float64(i+1) / n
		if cands[i].costD > 0 {
			cands[i].costD += eps
		}
		cands[i].costR += eps
	}
}

// warmFrom maps the previous window's assignment for this executor onto
// the current candidate slice: candidates the last solve kept in memory
// seed as chosen, candidates new to this window seed with their current
// residency.
func (b *Controller) warmFrom(ex *engine.Executor, cands []candidate) []bool {
	var prev map[storage.BlockID]bool
	if ex.ID < len(b.lastChosen) {
		prev = b.lastChosen[ex.ID]
	}
	warm := make([]bool, len(cands))
	for i, c := range cands {
		if v, ok := prev[c.id]; ok {
			warm[i] = v
		} else {
			warm[i] = c.inMem
		}
	}
	return warm
}

// solveBoundary runs one delta solve with uniform accounting: every
// call bumps ILPDeltaSolves, adds its search nodes to ILPNodes and
// ILPDeltaNodes, its wall-clock time to ILPDeltaSolveTime, and emits
// one ilp_delta_solve event. With cold verification enabled the
// identical instance is additionally solved from scratch and the two
// proven-optimal cache sets are compared.
func (b *Controller) solveBoundary(ex *engine.Executor, cands []candidate, warm []bool, window int) []bool {
	start := time.Now()
	r := b.solveBoundaryExecutor(ex, cands, warm)
	met := b.c.Metrics()
	met.ILPDeltaSolves++
	met.ILPNodes += r.nodes
	met.ILPDeltaNodes += r.nodes
	met.ILPDeltaSolveTime += time.Since(start)
	if r.fallback {
		met.ILPFallbacks++
	}
	if r.reused {
		met.ILPReused++
	}
	b.c.EmitEvent(eventlog.Event{
		Kind: eventlog.ILPDeltaSolve, Time: b.c.Now(), Job: b.curJob,
		Executor: ex.ID, Vars: r.vars, Nodes: r.nodes,
		Optimal: r.optimal, Fallback: r.fallback, Reused: r.reused,
		Window: window,
	})

	if b.coldVerify {
		cstart := time.Now()
		cr := b.coldSolveExecutor(ex, cands)
		met.ILPColdSolves++
		met.ILPColdNodes += cr.nodes
		met.ILPColdSolveTime += time.Since(cstart)
		if r.optimal && cr.optimal && !boolsEqual(r.chosen, cr.chosen) {
			met.ILPColdMismatches++
		}
	}
	return r.chosen
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// boundaryProblem builds the full three-state ILP for a boundary
// instance. It must construct the exact same model for the delta solve
// and its cold verification, so both share this builder.
func (b *Controller) boundaryProblem(cands []candidate, active []int, memCap float64) ilp.Problem {
	n := len(active)
	prob := ilp.Problem{C: make([]float64, 3*n)}
	memRow := make([]float64, 3*n)
	diskRow := make([]float64, 3*n)
	for j, idx := range active {
		c := cands[idx]
		prob.C[3*j] = 0
		prob.C[3*j+1] = c.costD * c.weight
		prob.C[3*j+2] = c.costR * c.weight
		row := make([]float64, 3*n)
		row[3*j], row[3*j+1], row[3*j+2] = 1, 1, 1
		prob.Constraints = append(prob.Constraints, ilp.Constraint{Coeffs: row, Rel: ilp.EQ, RHS: 1})
		memRow[3*j] = float64(c.size)
		diskRow[3*j+1] = float64(c.size)
		if !b.feat.DiskEnabled {
			frow := make([]float64, 3*n)
			frow[3*j+1] = 1
			prob.Constraints = append(prob.Constraints, ilp.Constraint{Coeffs: frow, Rel: ilp.EQ, RHS: 0})
		}
	}
	prob.Constraints = append(prob.Constraints,
		ilp.Constraint{Coeffs: memRow, Rel: ilp.LE, RHS: memCap},
		ilp.Constraint{Coeffs: diskRow, Rel: ilp.LE, RHS: float64(b.ilpDiskCapacity)},
	)
	return prob
}

// solveBoundaryExecutor mirrors solveExecutor for window boundaries:
// the same knapsack fast path / exact branch-and-bound split and the
// same fallback taxonomy, but warm-started through the bound-only delta
// entry points and fingerprinted with distinct memo kind markers (2 for
// boundary knapsacks, 3 for boundary ILPs) so boundary solutions never
// collide with job-start entries.
func (b *Controller) solveBoundaryExecutor(ex *engine.Executor, cands []candidate, warm []bool) solveResult {
	memo := b.memoFor(ex)
	memCap := float64(ex.Mem.Capacity())

	if b.ilpDiskCapacity <= 0 {
		values, weights := b.knapsackInputs(cands)
		key := boundaryKnapKey(values, weights, memCap)
		if prev := memo.exactMatch(key); prev != nil {
			return solveResult{chosen: prev.chosen, vars: len(cands), optimal: true, reused: true}
		}
		chosen, _, nodes, exact := ilp.KnapsackSearchFrom(values, weights, memCap, warm)
		memo.store(key, chosen, exact)
		return solveResult{chosen: chosen, vars: len(cands), nodes: nodes, optimal: exact, fallback: !exact}
	}

	active := make([]int, 0, len(cands))
	for i, c := range cands {
		if c.costD > 0 || c.costR > 0 {
			active = append(active, i)
		}
	}
	chosen := make([]bool, len(cands))
	n := len(active)
	if n == 0 {
		return solveResult{chosen: chosen, optimal: true}
	}
	if n > maxExactVars {
		values, weights := b.knapsackInputs(cands)
		key := boundaryKnapKey(values, weights, memCap)
		if prev := memo.exactMatch(key); prev != nil {
			return solveResult{chosen: prev.chosen, vars: len(cands), fallback: true, reused: true}
		}
		ch, _, nodes, exact := ilp.KnapsackSearchFrom(values, weights, memCap, warm)
		memo.store(key, ch, exact)
		return solveResult{chosen: ch, vars: len(cands), nodes: nodes, fallback: true}
	}

	key := make([]float64, 0, 6+3*n)
	key = append(key, 3, float64(len(cands)), memCap, float64(b.ilpDiskCapacity), boolKey(b.feat.DiskEnabled), float64(n))
	for _, idx := range active {
		c := cands[idx]
		key = append(key, float64(c.size), c.costD*c.weight, c.costR*c.weight)
	}
	if prev := memo.exactMatch(key); prev != nil && len(prev.chosen) == len(cands) {
		return solveResult{chosen: prev.chosen, vars: 3 * n, optimal: true, reused: true}
	}

	prob := b.boundaryProblem(cands, active, memCap)
	sol, err := ilp.SolveFrom(prob, b.incumbentFrom(warm, cands, active), ilp.Options{MaxNodes: ilpNodeBudget})
	if err != nil {
		values, weights := b.knapsackInputs(cands)
		ch, _, nodes, _ := ilp.KnapsackSearchFrom(values, weights, memCap, warm)
		return solveResult{chosen: ch, vars: 3 * n, nodes: nodes, fallback: true}
	}
	for j, idx := range active {
		chosen[idx] = sol.X[3*j] == 1
	}
	memo.store(key, chosen, sol.Optimal)
	return solveResult{chosen: chosen, vars: 3 * n, nodes: sol.Nodes, optimal: sol.Optimal, fallback: !sol.Optimal}
}

// coldSolveExecutor solves the identical boundary instance from scratch
// — no memo consultation, no warm start — for delta verification.
func (b *Controller) coldSolveExecutor(ex *engine.Executor, cands []candidate) solveResult {
	memCap := float64(ex.Mem.Capacity())
	if b.ilpDiskCapacity <= 0 {
		values, weights := b.knapsackInputs(cands)
		chosen, _, nodes, exact := ilp.KnapsackSearch(values, weights, memCap)
		return solveResult{chosen: chosen, vars: len(cands), nodes: nodes, optimal: exact, fallback: !exact}
	}
	active := make([]int, 0, len(cands))
	for i, c := range cands {
		if c.costD > 0 || c.costR > 0 {
			active = append(active, i)
		}
	}
	chosen := make([]bool, len(cands))
	n := len(active)
	if n == 0 {
		return solveResult{chosen: chosen, optimal: true}
	}
	if n > maxExactVars {
		values, weights := b.knapsackInputs(cands)
		ch, _, nodes, _ := ilp.KnapsackSearch(values, weights, memCap)
		return solveResult{chosen: ch, vars: len(cands), nodes: nodes, fallback: true}
	}
	prob := b.boundaryProblem(cands, active, memCap)
	sol, err := ilp.Solve(prob, ilp.Options{MaxNodes: ilpNodeBudget})
	if err != nil {
		values, weights := b.knapsackInputs(cands)
		ch, _, nodes, _ := ilp.KnapsackSearch(values, weights, memCap)
		return solveResult{chosen: ch, vars: 3 * n, nodes: nodes, fallback: true}
	}
	for j, idx := range active {
		chosen[idx] = sol.X[3*j] == 1
	}
	return solveResult{chosen: chosen, vars: 3 * n, nodes: sol.Nodes, optimal: sol.Optimal, fallback: !sol.Optimal}
}

// boundaryKnapKey fingerprints a boundary knapsack instance (kind 2).
func boundaryKnapKey(values, weights []float64, capacity float64) []float64 {
	key := make([]float64, 0, 3+2*len(values))
	key = append(key, 2, float64(len(values)), capacity)
	key = append(key, values...)
	key = append(key, weights...)
	return key
}
