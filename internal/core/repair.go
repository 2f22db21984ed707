package core

// This file implements post-recovery plan repair: after the cluster's
// state changes out from under the optimizer's plan — an executor dies
// and its partitions migrate, or a crashed session is rehydrated from a
// checkpoint — RepairPlan re-solves the cache-placement problem over
// the *surviving* candidate set and re-applies the assignment, instead
// of letting the stale targetState silently misdirect promotions and
// admissions (the ROADMAP gap: "post-recovery cluster state invalidates
// the original plan silently").
//
// The repair solve deliberately bypasses the per-executor solution memo
// in both directions: it neither reuses entries (the surviving
// candidate set rarely fingerprint-matches a pre-crash instance) nor
// stores new ones. Storing would evict pre-crash entries from the
// bounded memo and change later windows' hit/miss pattern, breaking the
// invariant that a resumed run is bit-identical to an uninterrupted
// one. All repair effort is accounted to the dedicated Repair* metrics,
// which are excluded from deterministic comparison for the same reason.

import (
	"time"

	"blaze/internal/eventlog"
	"blaze/internal/metrics"
)

// RepairPlan implements engine.PlanRepairer: one full re-solve of the
// placement problem over the current (surviving) candidates — the
// placement fixed point (replan) as a memo-less delta pass, warm-started
// from the last assignment. Events are emitted through emit so callers
// can route them to the main log (executor death, where repair is part
// of the run) or to a recovery-only log (crash resume, where the main
// log must stay bit-identical to an uninterrupted run). window is
// stamped on the events; pass 0 outside streaming. With cold
// verification enabled each solve is checked against a from-scratch one
// into RepairMismatches (expected to stay zero).
func (b *Controller) RepairPlan(window int, emit func(eventlog.Event)) {
	if !b.feat.ILP {
		return
	}
	b.replan(b.repairPass(window, emit))
}

// repairPass is the pass RepairPlan runs: memo-less, booked to the
// Repair* metrics only, one ilp_repair_solve event per solve.
func (b *Controller) repairPass(window int, emit func(eventlog.Event)) solvePass {
	return solvePass{
		delta: true, event: eventlog.ILPRepairSolve, window: window, emit: emit,
		tally: func(met *metrics.App, r solveResult, wall time.Duration) {
			met.RepairSolves++
			met.RepairNodes += r.nodes
			met.RepairSolveTime += wall
		},
		cold: func(met *metrics.App, _ solveResult, _ time.Duration, mismatch bool) {
			if mismatch {
				met.RepairMismatches++
			}
		},
	}
}
