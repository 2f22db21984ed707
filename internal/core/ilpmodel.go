package core

import (
	"slices"
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
// fixed point (replan):
//
//	caller          | memo            | kind  | warm start | accounting
//	job start       | consult + store | 0 / 1 | none       | ILPSolves, ilp_solve
//	window boundary | consult + store | 2 / 3 | bound-only | ILPDelta*, ilp_delta_solve
//	plan repair     | none            | —     | bound-only | Repair*, ilp_repair_solve
//
// Cold verification is not a pass of its own: it re-solves a delta
// pass's instance with the zero solveMode (no memo, no warm start).
type solvePass struct {
	// delta marks a re-solve on top of a previous assignment: the
	// instance carries the tie-breaking perturbation (window.go), each
	// solve is warm-started bound-only from that assignment, and with
	// WithColdVerify each solve is checked against a from-scratch one.
	delta bool
	// memoised consults and feeds the executor's solution memo. Plan
	// repair must not: storing would evict pre-crash entries (repair.go).
	memoised bool
	// event, window and emit describe the one event each solve emits.
	event  eventlog.Kind
	window int
	emit   func(eventlog.Event)
	// tally books one solve; cold books its verification solve and
	// whether two proven optima disagreed (delta passes only).
	tally func(met *metrics.App, r solveResult, wall time.Duration)
	cold  func(met *metrics.App, cr solveResult, wall time.Duration, mismatch bool)
}

// jobStartPass is the pass OnJobStart runs: every solve bumps ILPSolves,
// adds its wall-clock time to ILPSolveTime and emits one ilp_solve
// event. ILPSolveTime is wall-clock; everything else, including the
// event's virtual timestamp, is deterministic at any engine parallelism
// because the solve executes driver-side.
func (b *Controller) jobStartPass() solvePass {
	return solvePass{
		memoised: true, event: eventlog.ILPSolve, emit: b.c.EmitEvent,
		tally: func(met *metrics.App, r solveResult, wall time.Duration) {
			met.ILPSolves++
			met.ILPSolveTime += wall
			tallyILP(met, r)
		},
	}
}

// tallyILP books what job-start and boundary solves share: search nodes
// into ILPNodes, degraded outcomes into ILPFallbacks, memo hits into
// ILPReused.
func tallyILP(met *metrics.App, r solveResult) {
	met.ILPNodes += r.nodes
	if r.fallback {
		met.ILPFallbacks++
	}
	if r.reused {
		met.ILPReused++
	}
}

// replan solves Eq. 5-6 for every executor independently (partitions are
// pinned to their home executors by locality, §6) and applies the
// resulting state transitions. Results for not-yet-computed partitions
// are kept in targetState and honored at admission time.
func (b *Controller) replan(p solvePass) {
	b.targetState = make(map[storage.BlockID]engine.Placement)

	for _, ex := range b.c.Executors() {
		cands := b.gatherCandidates(ex)
		if len(cands) == 0 {
			continue
		}
		price := func(hypo map[storage.BlockID]bool) {
			b.priceCandidates(cands, hypo)
			if p.delta {
				perturbBoundaryCosts(cands)
			}
		}

		// Fixed point on the recursive recomputation costs (Eq. 4
		// depends on ancestor states): price under current states, solve,
		// re-price under the candidate assignment, solve again. When the
		// re-pricing leaves the costs unchanged the second solve is a
		// fingerprint hit in the solution memo and costs nothing.
		price(nil)
		var warm []bool
		if p.delta {
			warm = b.warmFrom(ex, cands)
		}
		chosen := b.solveStep(ex, cands, warm, p)
		hypo := make(map[storage.BlockID]bool, len(cands))
		for i, c := range cands {
			hypo[c.id] = chosen[i]
		}
		price(hypo)
		if p.delta {
			warm = chosen
		}
		chosen = b.solveStep(ex, cands, warm, p)

		b.applyAssignment(ex, cands, chosen)
	}
}

// solveStep runs one optimizer invocation of a pass with its accounting
// and event, then — on a delta pass under WithColdVerify — solves the
// identical instance from scratch and reports whether two proven optima
// picked different cache sets (expected never: the warm start only
// prunes the search).
func (b *Controller) solveStep(ex *engine.Executor, cands []candidate, warm []bool, p solvePass) []bool {
	memCap := float64(ex.Mem.Capacity())
	mode := solveMode{warm: warm}
	if p.delta {
		mode.kind = 2
	}
	if p.memoised {
		mode.memo = b.ilpMemo[ex.ID]
	}
	met := b.c.Metrics()
	start := time.Now()
	r := b.solvePlacement(memCap, cands, mode)
	p.tally(met, r, time.Since(start))
	p.emit(eventlog.Event{
		Kind: p.event, Time: b.c.Now(), Job: b.curJob,
		Executor: ex.ID, Vars: r.vars, Nodes: r.nodes,
		Optimal: r.optimal, Fallback: r.fallback, Reused: r.reused,
		Window: p.window,
	})

	if p.delta && b.coldVerify {
		start = time.Now()
		cr := b.solvePlacement(memCap, cands, solveMode{})
		p.cold(met, cr, time.Since(start), r.optimal && cr.optimal && !slices.Equal(r.chosen, cr.chosen))
	}
	return r.chosen
}

// applyAssignment records the target states of a solved memory
// assignment and migrates existing blocks accordingly: spills (m→d),
// unpersists (m→u, d→u) and promotions (d→m). Shared by replan and by
// cluster-wide arbitration, which solves the union of several sessions'
// candidates and applies each session's slice through its own
// controller.
func (b *Controller) applyAssignment(ex *engine.Executor, cands []candidate, chosen []bool) {
	// Remember this executor's memory set: the next window boundary's
	// delta solve warm-starts from it.
	var last map[storage.BlockID]bool
	if ex.ID < len(b.lastChosen) {
		if b.lastChosen[ex.ID] == nil {
			b.lastChosen[ex.ID] = make(map[storage.BlockID]bool)
		}
		last = b.lastChosen[ex.ID]
	}
	for i, c := range cands {
		if last != nil {
			last[c.id] = chosen[i]
		}
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

// gatherCandidates collects the partitions relevant to the optimization
// window on one executor: resident blocks (memory and disk) plus
// predicted upcoming partitions whose metrics the CostLineage can supply
// (observed earlier or inducted by regression).
func (b *Controller) gatherCandidates(ex *engine.Executor) []candidate {
	seen := make(map[storage.BlockID]bool)
	var cands []candidate

	addResident := func(id storage.BlockID, size int64, inMem, onDisk bool) {
		if seen[id] {
			return
		}
		seen[id] = true
		n := b.lin.Node(id.Dataset)
		if n == nil || b.retired[n] {
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

// ilpMemoCap bounds the per-executor solution memo.
const ilpMemoCap = 4

// memoEntry is one cached optimizer solution. key fingerprints the
// instance (a kind marker, the dimensions and capacities, then the
// per-candidate sizes and weighted costs); chosen is the memory
// assignment over the full candidate slice; exact marks proven optima of
// non-degraded solves — the only entries eligible for direct reuse.
type memoEntry struct {
	key    []float64
	chosen []bool
	exact  bool
}

// solveMemo is a bounded newest-last list of recent solutions for one
// executor. Iterative workloads resubmit near-identical candidate sets
// every job, so an exact fingerprint match answers the solve outright
// and a same-shape near-match seeds the branch and bound's incumbent.
// A nil *solveMemo is the bypass: it never matches and stores nothing.
type solveMemo struct {
	entries []memoEntry
}

// exactMatch returns the newest exact entry whose fingerprint equals key.
func (m *solveMemo) exactMatch(key []float64) *memoEntry {
	if m == nil {
		return nil
	}
	for i := len(m.entries) - 1; i >= 0; i-- {
		e := &m.entries[i]
		if e.exact && keysEqual(e.key, key) {
			return e
		}
	}
	return nil
}

// newestWith returns the newest entry with the given kind marker whose
// assignment covers n candidates (for incumbent seeding).
func (m *solveMemo) newestWith(kind float64, n int) *memoEntry {
	if m == nil {
		return nil
	}
	for i := len(m.entries) - 1; i >= 0; i-- {
		e := &m.entries[i]
		if len(e.key) > 0 && e.key[0] == kind && len(e.chosen) == n {
			return e
		}
	}
	return nil
}

// store records a solution, replacing any entry with the same key and
// evicting the oldest entry beyond the cap.
func (m *solveMemo) store(key []float64, chosen []bool, exact bool) {
	if m == nil {
		return
	}
	for i := range m.entries {
		if keysEqual(m.entries[i].key, key) {
			m.entries = append(m.entries[:i], m.entries[i+1:]...)
			break
		}
	}
	ch := make([]bool, len(chosen))
	copy(ch, chosen)
	m.entries = append(m.entries, memoEntry{key: key, chosen: ch, exact: exact})
	if len(m.entries) > ilpMemoCap {
		m.entries = m.entries[1:]
	}
}

func keysEqual(a, b []float64) bool {
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

// solveResult describes one optimizer invocation for accounting: the
// decided memory set, the model size and search effort, and the outcome
// classification (proven optimum / degraded fallback / memo reuse).
type solveResult struct {
	chosen   []bool
	vars     int
	nodes    int
	optimal  bool
	fallback bool
	reused   bool
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

// knapKey fingerprints a knapsack instance under the given kind marker.
func knapKey(kind float64, values, weights []float64, capacity float64) []float64 {
	key := make([]float64, 0, 3+2*len(values))
	key = append(key, kind, float64(len(values)), capacity)
	key = append(key, values...)
	key = append(key, weights...)
	return key
}

// solveMode carries what differs between solvePlacement's callers; the
// zero value is a from-scratch solve (cold verification).
type solveMode struct {
	// memo is consulted before searching and stores the outcome; nil
	// bypasses it in both directions.
	memo *solveMemo
	// kind is the fingerprint marker of the knapsack form (0 at job
	// start, 2 at window boundaries, so the two never answer each
	// other's instances); the three-state form uses kind+1. snapshot.go
	// persists the markers inside the memo keys.
	kind float64
	// warm, when non-nil, is the delta warm start: a previous assignment
	// that seeds only the search's pruning bound, never its answer
	// (ilp.SolveFrom / ilp.KnapsackSearchFrom), so the solve selects the
	// same cache set a from-scratch one would.
	warm []bool
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
// All three are counted as fallbacks. Before searching, the memo is
// consulted: an exact fingerprint match returns the cached assignment
// outright, and a solve without a warm start seeds the branch and
// bound's incumbent from the newest same-shape solution (cross-job warm
// start).
func (b *Controller) solvePlacement(memCap float64, cands []candidate, mode solveMode) solveResult {
	knapsack := func(memo *solveMemo) (chosen []bool, nodes int, exact, reused bool) {
		values, weights := b.knapsackInputs(cands)
		key := knapKey(mode.kind, values, weights, memCap)
		if prev := memo.exactMatch(key); prev != nil {
			return prev.chosen, 0, true, true
		}
		chosen, _, nodes, exact = ilp.KnapsackSearchFrom(values, weights, memCap, mode.warm)
		memo.store(key, chosen, exact)
		return chosen, nodes, exact, false
	}

	if b.ilpDiskCapacity <= 0 {
		chosen, nodes, exact, reused := knapsack(mode.memo)
		return solveResult{chosen: chosen, vars: len(cands), nodes: nodes, optimal: exact, fallback: !exact, reused: reused}
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
		ch, nodes, _, reused := knapsack(mode.memo)
		return solveResult{chosen: ch, vars: len(cands), nodes: nodes, fallback: true, reused: reused}
	}

	key := make([]float64, 0, 6+3*n)
	key = append(key, mode.kind+1, float64(len(cands)), memCap, float64(b.ilpDiskCapacity), boolKey(b.feat.DiskEnabled), float64(n))
	for _, idx := range active {
		c := cands[idx]
		key = append(key, float64(c.size), c.costD*c.weight, c.costR*c.weight)
	}
	if prev := mode.memo.exactMatch(key); prev != nil && len(prev.chosen) == len(cands) {
		return solveResult{chosen: prev.chosen, vars: 3 * n, optimal: true, reused: true}
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
	opts := ilp.Options{MaxNodes: ilpNodeBudget}
	var sol ilp.Solution
	var err error
	if mode.warm != nil {
		sol, err = ilp.SolveFrom(prob, b.incumbentFrom(mode.warm, cands, active), opts)
	} else {
		// SolveFrom would discard the incumbent on its way to a plain
		// Solve, so the seeded solve calls Solve itself.
		if prev := mode.memo.newestWith(mode.kind+1, len(cands)); prev != nil {
			opts.Incumbent = b.incumbentFrom(prev.chosen, cands, active)
		}
		sol, err = ilp.Solve(prob, opts)
	}
	if err != nil {
		// Budget exhausted before any feasible assignment was found:
		// genuinely out of options for the exact model, so degrade to
		// the knapsack relaxation — unmemoised, so this degraded answer
		// never evicts a proven optimum from the bounded memo.
		ch, nodes, _, _ := knapsack(nil)
		return solveResult{chosen: ch, vars: 3 * n, nodes: nodes, fallback: true}
	}
	for j, idx := range active {
		chosen[idx] = sol.X[3*j] == 1
	}
	mode.memo.store(key, chosen, sol.Optimal)
	return solveResult{chosen: chosen, vars: 3 * n, nodes: sol.Nodes, optimal: sol.Optimal, fallback: !sol.Optimal}
}

// incumbentFrom maps a previous memory assignment onto the current
// active set as a feasible 0/1 seed: kept partitions stay m, the rest go
// d or u by cost comparison, mirroring the apply step's placement rule.
// ilp.Solve validates the seed and ignores it if infeasible.
func (b *Controller) incumbentFrom(prev []bool, cands []candidate, active []int) []int {
	if len(prev) != len(cands) {
		return nil
	}
	inc := make([]int, 3*len(active))
	for j, idx := range active {
		c := cands[idx]
		switch {
		case prev[idx]:
			inc[3*j] = 1
		case b.feat.DiskEnabled && c.costD > 0 && c.costD < c.costR:
			inc[3*j+1] = 1
		default:
			inc[3*j+2] = 1
		}
	}
	return inc
}

func boolKey(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// ProfilingOverhead returns the modeled profiling cost to charge on the
// cluster when the controller was seeded by a dependency extraction run.
func (b *Controller) ProfilingOverhead() time.Duration {
	if b.profiled {
		return DefaultProfilingOverhead
	}
	return 0
}
