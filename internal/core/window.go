package core

import (
	"time"

	"blaze/internal/engine"
	"blaze/internal/eventlog"
	"blaze/internal/metrics"
	"blaze/internal/storage"
)

// This file implements windowed lineage for micro-batch streaming: at
// every window boundary the controller retires partitions whose
// lifetime (last-consumer window) has passed — removing them from the
// store and from the optimizer's candidate set — and re-solves the ILP
// as a *delta* on the previous window's assignment: the same placement
// fixed point as at job start (replan), run as a delta pass — each solve
// warm-starts the search through its pruning bound only, so it selects
// the same cache set a from-scratch solve would while exploring far
// fewer nodes.

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
		b.replan(b.boundaryPass(window))
	}
}

// boundaryPass is the pass AdvanceWindow runs: memoised under the
// boundary kind markers, every solve bumps ILPDeltaSolves, adds its
// nodes to ILPNodes and ILPDeltaNodes and its wall-clock time to
// ILPDeltaSolveTime, and emits one ilp_delta_solve event; cold
// verification is booked to the ILPCold* counters.
func (b *Controller) boundaryPass(window int) solvePass {
	return solvePass{
		delta: true, memoised: true,
		event: eventlog.ILPDeltaSolve, window: window, emit: b.c.EmitEvent,
		tally: func(met *metrics.App, r solveResult, wall time.Duration) {
			met.ILPDeltaSolves++
			met.ILPDeltaNodes += r.nodes
			met.ILPDeltaSolveTime += wall
			tallyILP(met, r)
		},
		cold: func(met *metrics.App, cr solveResult, wall time.Duration, mismatch bool) {
			met.ILPColdSolves++
			met.ILPColdNodes += cr.nodes
			met.ILPColdSolveTime += wall
			if mismatch {
				met.ILPColdMismatches++
			}
		},
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
