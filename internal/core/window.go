package core

import (
	"time"

	"blaze/internal/eventlog"
	"blaze/internal/metrics"
	"blaze/internal/storage"
)

// This file implements windowed lineage for micro-batch streaming: at
// every window boundary the controller retires partitions whose
// lifetime (last-consumer window) has passed — removing them from the
// store and from the optimizer's candidate set — and re-solves the ILP
// over the surviving candidates: the same placement fixed point as at
// job start (replan), with the boundary tie-break applied to every
// instance.

// boundaryPerturb is the relative scale of the boundary tie-break: a
// deterministic index-based objective perturbation applied to
// window-boundary and plan-repair solve instances. It breaks cost ties so
// the optimum is unique whichever path the search takes to it. It must
// comfortably exceed the solver's 1e-9 objective tolerances and stay far
// below any real cost difference; it is never applied on the job-start
// solve path, so one-shot runs stay bit-identical to the unwindowed
// engine.
const boundaryPerturb = 1e-6

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
//  2. Re-solve the ILP over the surviving candidates (window > 1 only;
//     window 1's first job solves at its own start).
func (b *Controller) AdvanceWindow(window, nextJob int) {
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

// boundaryPass is the pass AdvanceWindow runs: every solve bumps
// ILPDeltaSolves, adds its nodes to ILPNodes and ILPDeltaNodes and its
// wall-clock time to ILPDeltaSolveTime, and emits one ilp_delta_solve
// event.
func (b *Controller) boundaryPass(window int) solvePass {
	return solvePass{
		tieBreak: true, event: eventlog.ILPDeltaSolve, window: window,
		tally: func(met *metrics.App, r solveResult, wall time.Duration) {
			met.ILPDeltaSolves++
			met.ILPDeltaNodes += r.nodes
			met.ILPDeltaSolveTime += wall
			tallyILP(met, r)
		},
	}
}

// retireDeadLineage drops every node last touched before retireBefore
// (the first job of the window that just completed).
func (b *Controller) retireDeadLineage(window, retireBefore int) {
	met := b.c.Metrics()
	for _, n := range b.lin.Nodes() {
		if n.retired || n.TouchedJob >= retireBefore {
			continue
		}
		n.retired = true
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

// perturbBoundaryCosts is the boundary tie-break: each candidate's costs
// gain a distinct additive epsilon proportional to the instance's cost
// scale. The epsilon exceeds the solver's 1e-9 objective tolerance, so
// equal-cost alternatives become strictly ordered and the optimum memory
// set is unique; it is orders of magnitude below real cost differences,
// so placements are otherwise unchanged.
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
