package core

import (
	"sort"
	"time"

	"blaze/internal/engine"
	"blaze/internal/eventlog"
	"blaze/internal/ilp"
	"blaze/internal/metrics"
	"blaze/internal/storage"
)

// candidate is one partition whose state the ILP decides.
type candidate struct {
	id     storage.BlockID
	node   *Node
	part   int
	size   int64
	weight float64 // references within the optimization window
	inMem  bool
	onDisk bool

	costD float64 // potential disk access cost (Eq. 3), seconds
	costR float64 // potential recomputation cost (Eq. 4), seconds
}

// ilpWindowDiscount is the weight given to resident partitions whose
// next reference lies beyond the current+next-job window: the ILP
// optimizes the near future (§5.5), but should not treat
// later-referenced residents as worthless.
const ilpWindowDiscount = 0.5

// solvePass is what differs between the three callers of the placement
// fixed point (replan): whether the instance carries the boundary
// tie-break, which event each solve emits, and which counters it books.
//
//	caller          | tie-break | accounting
//	job start       | no        | ILPSolves, ilp_solve
//	window boundary | yes       | ILPDelta*, ilp_delta_solve
//	plan repair     | yes       | Repair*, ilp_repair_solve
//
// Every pass runs the same plain solve; nothing is carried from one solve
// to the next.
type solvePass struct {
	// tieBreak applies perturbBoundaryCosts (window.go) to every priced
	// instance.
	tieBreak bool
	// event and window describe the one event each solve emits.
	event  eventlog.Kind
	window int
	// tally books one solve.
	tally func(met *metrics.App, r solveResult, wall time.Duration)
}

// jobStartPass is the pass OnJobStart runs: every solve bumps ILPSolves,
// adds its wall-clock time to ILPSolveTime and emits one ilp_solve
// event. ILPSolveTime is wall-clock; everything else, including the
// event's virtual timestamp, is deterministic at any engine parallelism
// because the solve executes driver-side.
func (b *Controller) jobStartPass() solvePass {
	return solvePass{
		event: eventlog.ILPSolve,
		tally: func(met *metrics.App, r solveResult, wall time.Duration) {
			met.ILPSolves++
			met.ILPSolveTime += wall
			tallyILP(met, r)
		},
	}
}

// tallyILP books what job-start and boundary solves share: search nodes
// into ILPNodes, degraded outcomes into ILPFallbacks.
func tallyILP(met *metrics.App, r solveResult) {
	met.ILPNodes += r.nodes
	if r.fallback {
		met.ILPFallbacks++
	}
}

// replan solves Eq. 5-6 for every executor independently (partitions are
// pinned to their home executors by locality, §6) over its resident
// blocks and applies the resulting state transitions. Each block's target
// state is kept in targetState, which disk-read promotion
// (PromoteOnDiskRead) honors until the next solve; partitions not yet
// computed are placed at admission by PlaceComputed, not by the solve.
func (b *Controller) replan(p solvePass) {
	b.targetState = make(map[storage.BlockID]engine.Placement)

	for _, ex := range b.c.Executors() {
		cands := b.gatherCandidates(ex)
		if len(cands) == 0 {
			continue
		}
		price := func(hypo map[storage.BlockID]bool) {
			b.priceCandidates(cands, hypo)
			if p.tieBreak {
				perturbBoundaryCosts(cands)
			}
		}

		// Fixed point on the recursive recomputation costs (Eq. 4
		// depends on ancestor states): price under current states, solve,
		// re-price under the candidate assignment, solve again.
		price(nil)
		chosen := b.solveStep(ex, cands, p)
		hypo := make(map[storage.BlockID]bool, len(cands))
		for i, c := range cands {
			hypo[c.id] = chosen[i]
		}
		price(hypo)
		chosen = b.solveStep(ex, cands, p)

		b.applyAssignment(ex, cands, chosen)
	}
}

// solveStep runs one optimizer invocation of a pass with its accounting
// and event.
func (b *Controller) solveStep(ex *engine.Executor, cands []candidate, p solvePass) []bool {
	start := time.Now()
	r := b.solvePlacement(float64(ex.Mem.Capacity()), cands)
	b.bookSolve(ex, p, r, time.Since(start))
	return r.chosen
}

// bookSolve books one optimizer invocation of a pass on this session:
// the pass's tally and one event. Cluster-wide arbitration books each of
// its union solves here, on the triggering session.
func (b *Controller) bookSolve(ex *engine.Executor, p solvePass, r solveResult, wall time.Duration) {
	p.tally(b.c.Metrics(), r, wall)
	b.c.EmitEvent(eventlog.Event{
		Kind: p.event, Time: b.c.Now(), Job: b.curJob,
		Executor: ex.ID, Vars: r.vars, Nodes: r.nodes,
		Optimal: r.optimal, Fallback: r.fallback, Window: p.window,
	})
}

// applyAssignment records the target states of a solved memory
// assignment and migrates existing blocks accordingly: spills (m→d),
// unpersists (m→u, d→u) and promotions (d→m). Shared by replan and by
// cluster-wide arbitration, which solves the union of several sessions'
// candidates and applies each session's slice through its own
// controller.
func (b *Controller) applyAssignment(ex *engine.Executor, cands []candidate, chosen []bool) {
	for i, c := range cands {
		var tgt engine.Placement
		switch {
		case chosen[i]:
			tgt = engine.PlaceMemory
		case b.feat.DiskEnabled && c.costD > 0 && c.costD < c.costR:
			tgt = engine.PlaceDisk
		default:
			tgt = engine.PlaceNone
		}
		b.targetState[c.id] = tgt

		switch {
		case c.inMem && tgt == engine.PlaceDisk:
			if !b.diskBudgetAllows(ex, c.size) {
				b.c.DropBlock(ex, c.id)
				b.targetState[c.id] = engine.PlaceNone
				continue
			}
			b.c.SpillBlock(ex, c.id)
		case c.inMem && tgt == engine.PlaceNone:
			b.c.DropBlock(ex, c.id)
		case !c.inMem && c.onDisk && tgt == engine.PlaceMemory:
			b.c.PromoteBlock(ex, c.id, true)
		case c.onDisk && tgt == engine.PlaceNone:
			b.c.DropBlock(ex, c.id)
		}

		// Stamp the solve's price on the resident metadata. Within one
		// session the next victimOrder recomputes it anyway; in a shared
		// pool the stamp is what other sessions' cost-aware eviction
		// sees, so a fresh price must survive every solve.
		if tgt == engine.PlaceMemory {
			if m, ok := ex.Mem.Peek(c.id); ok {
				cost := c.costR
				if b.feat.DiskEnabled && c.costD > 0 && c.costD < cost {
					cost = c.costD
				}
				m.Cost = cost
			}
		}
	}
}

// gatherCandidates collects one executor's resident blocks, in memory or
// on disk, whose datasets are live in this session's lineage and, outside
// windowed mode, still have future references, sorted by block id. It
// adds no partition that is not resident yet.
func (b *Controller) gatherCandidates(ex *engine.Executor) []candidate {
	seen := make(map[storage.BlockID]bool)
	var cands []candidate

	addResident := func(id storage.BlockID, size int64, inMem, onDisk bool) {
		if seen[id] {
			return
		}
		seen[id] = true
		n := b.lin.Node(id.Dataset)
		if n == nil || n.retired {
			// Unknown to this session's lineage, or retired by windowed
			// lifetime management: not a candidate.
			return
		}
		// Resident blocks with no anticipated references are not
		// candidates in one-shot mode (auto-unpersist reclaims them). In
		// windowed mode they stay: a future window may yet consume them
		// (carried state), so they compete at the idle-reference
		// discount until lifetime retirement ages them out.
		if b.futureRefs(id.Dataset) == 0 && b.curWindow < 1 {
			return
		}
		w := float64(b.refsInWindow(n))
		if w == 0 {
			w = ilpWindowDiscount
		}
		cands = append(cands, candidate{
			id: id, node: n, part: id.Partition, size: size,
			weight: w, inMem: inMem, onDisk: onDisk,
		})
	}

	for _, m := range ex.Mem.Blocks() {
		addResident(m.ID, m.Size, true, ex.Disk.Contains(m.ID))
	}
	for _, id := range ex.Disk.Blocks() {
		// Size, not Get: candidate enumeration only needs metadata, and
		// in real-bytes mode Get would read and decode the block's file.
		if size, ok := ex.Disk.Size(id); ok {
			addResident(id, size, false, true)
		}
	}

	sort.Slice(cands, func(i, j int) bool {
		if cands[i].id.Dataset != cands[j].id.Dataset {
			return cands[i].id.Dataset < cands[j].id.Dataset
		}
		return cands[i].id.Partition < cands[j].id.Partition
	})
	return cands
}

// priceCandidates computes cost_d and cost_r for every candidate, under
// either the current states (hypo == nil) or a hypothetical memory
// assignment.
func (b *Controller) priceCandidates(cands []candidate, hypo map[storage.BlockID]bool) {
	if hypo == nil {
		b.est.Reset()
	} else {
		b.est.SetHypothetical(hypo)
	}
	for i := range cands {
		c := &cands[i]
		if b.feat.DiskEnabled {
			c.costD = b.est.DiskCost(c.node, c.part).Seconds()
		} else {
			c.costD = 0
		}
		// Price recomputation at the candidate's next recovery horizon:
		// ancestors that die before then cannot shortcut the chain.
		c.costR = b.est.RecomputeCostAt(c.node, c.part, b.horizonFor(c.node, c.id.Dataset)).Seconds()
	}
}

// Optimizer sizing knobs. Package variables rather than constants so
// tests can shrink them to force the fallback paths.
var (
	// maxExactVars bounds the number of active candidates the exact
	// branch and bound accepts (three decision variables each). The
	// bounded-variable simplex with warm starts and reduced-cost fixing
	// proves optimality for instances this size well inside the node
	// budget, so the threshold reflects the solve-latency budget of
	// §5.5, not solvability.
	maxExactVars = 256
	// ilpNodeBudget caps branch-and-bound nodes per solve. Exhausting it
	// is counted as a fallback; the best incumbent found is still used.
	ilpNodeBudget = 50000
)

// solveResult describes one optimizer invocation for accounting: the
// decided memory set, the model size and search effort, and the outcome
// classification (proven optimum / degraded fallback).
type solveResult struct {
	chosen   []bool
	vars     int
	nodes    int
	optimal  bool
	fallback bool
}

// knapsackInputs builds the knapsack reduction: a partition left out of
// memory costs min(cost_d, cost_r) weighted by its window references.
func (b *Controller) knapsackInputs(cands []candidate) (values, weights []float64) {
	values = make([]float64, len(cands))
	weights = make([]float64, len(cands))
	for i, c := range cands {
		off := c.costR
		if b.feat.DiskEnabled && c.costD > 0 && c.costD < off {
			off = c.costD
		}
		values[i] = off * c.weight
		weights[i] = float64(c.size)
	}
	return values, weights
}

// solvePlacement runs one optimizer invocation. With abundant disk (the
// paper's default) the ILP reduces exactly to a knapsack — see the
// reduction note on ilp.KnapsackSearch. With a disk capacity constraint the
// full binary program is solved by branch and bound, with a three-way
// fallback taxonomy:
//
//   - more than maxExactVars active candidates: knapsack relaxation
//     (the apply step still enforces the disk budget greedily);
//   - node budget exhausted with a feasible incumbent: the incumbent is
//     used (it satisfies every constraint, including disk capacity);
//   - no feasible assignment found at all: knapsack relaxation.
//
// All three are counted as fallbacks.
func (b *Controller) solvePlacement(memCap float64, cands []candidate) solveResult {
	knapsack := func() (chosen []bool, nodes int, exact bool) {
		values, weights := b.knapsackInputs(cands)
		chosen, _, nodes, exact = ilp.KnapsackSearch(values, weights, memCap)
		return chosen, nodes, exact
	}

	if b.ilpDiskCapacity <= 0 {
		chosen, nodes, exact := knapsack()
		return solveResult{chosen: chosen, vars: len(cands), nodes: nodes, optimal: exact, fallback: !exact}
	}

	// Full ILP with the optional disk capacity constraint (Eq. 6
	// extension): variables (m_i, d_i, u_i) per candidate. Presolve:
	// candidates with zero recovery cost are trivially u (keeping them
	// anywhere saves nothing), which keeps the branch-and-bound small —
	// the same bounding Blaze applies to keep solves under its latency
	// budget (§5.5).
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
		// Oversized: knapsack relaxation without the disk row. The
		// result is not a proven optimum of the full model, so the solve
		// counts as a fallback even when the knapsack search itself is
		// exact; the apply step enforces the disk budget greedily.
		ch, nodes, _ := knapsack()
		return solveResult{chosen: ch, vars: len(cands), nodes: nodes, fallback: true}
	}

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
			// Forbid the d state entirely.
			frow := make([]float64, 3*n)
			frow[3*j+1] = 1
			prob.Constraints = append(prob.Constraints, ilp.Constraint{Coeffs: frow, Rel: ilp.EQ, RHS: 0})
		}
	}
	prob.Constraints = append(prob.Constraints,
		ilp.Constraint{Coeffs: memRow, Rel: ilp.LE, RHS: memCap},
		ilp.Constraint{Coeffs: diskRow, Rel: ilp.LE, RHS: float64(b.ilpDiskCapacity)},
	)
	sol, err := ilp.Solve(prob, ilp.Options{MaxNodes: ilpNodeBudget})
	if err != nil {
		// Budget exhausted before any feasible assignment was found:
		// genuinely out of options for the exact model, so degrade to
		// the knapsack relaxation.
		ch, nodes, _ := knapsack()
		return solveResult{chosen: ch, vars: 3 * n, nodes: nodes, fallback: true}
	}
	for j, idx := range active {
		chosen[idx] = sol.X[3*j] == 1
	}
	return solveResult{chosen: chosen, vars: 3 * n, nodes: sol.Nodes, optimal: sol.Optimal, fallback: !sol.Optimal}
}
