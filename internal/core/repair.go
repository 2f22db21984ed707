package core

// This file implements post-recovery plan repair: after an executor dies
// and its partitions migrate, the optimizer's plan no longer matches the
// cluster, so RepairPlan re-solves the cache-placement problem over the
// *surviving* candidate set and re-applies the assignment, instead of
// letting the stale targetState silently misdirect promotions and
// admissions. Deaths are injected identically at every Parallelism
// setting, so the repair, its ilp_repair_solve events (in the main log)
// and its Repair* metrics are deterministic.

import (
	"time"

	"blaze/internal/eventlog"
	"blaze/internal/metrics"
)

// RepairPlan implements engine.PlanRepairer: one full re-solve of the
// placement problem over the current (surviving) candidates — the
// placement fixed point (replan) with the boundary tie-break. window is
// stamped on the events; pass 0 outside streaming.
func (b *Controller) RepairPlan(window int) {
	if !b.feat.ILP {
		return
	}
	b.replan(b.repairPass(window))
}

// repairPass is the pass RepairPlan runs: booked to the Repair* metrics
// only, one ilp_repair_solve event per solve.
func (b *Controller) repairPass(window int) solvePass {
	return solvePass{
		tieBreak: true, event: eventlog.ILPRepairSolve, window: window,
		tally: func(met *metrics.App, r solveResult, wall time.Duration) {
			met.RepairSolves++
			met.RepairNodes += r.nodes
			met.RepairSolveTime += wall
		},
	}
}
