package core

import (
	"sync"
	"time"

	"blaze/internal/engine"
	"blaze/internal/eventlog"
	"blaze/internal/ilp"
	"blaze/internal/storage"
)

// GlobalArbiter extends Blaze's per-job optimization to a multi-tenant
// pool: instead of each session solving Eq. 5-6 over only its own
// candidates (blind to the other sessions' resident blocks, which
// victimOrder prices at zero and evicts first), the arbiter intercepts
// every job-start ILP trigger and re-runs the solve per executor over
// the *union* of all registered sessions' candidate sets, against the
// memory actually available. Each candidate keeps its owning session's
// potential-cost pricing, scaled by the tenant's fair-share weight, so
// the shared cache holds the blocks whose loss would cost the cluster
// (not just the triggering job) the most. The solved assignment is
// sliced back per session and applied through each session's own
// controller, updating its targetState exactly as a local solve would.
//
// Arbitration runs under the pool's exclusivity lock (the trigger is
// inside its job's OnJobStart), so reading and migrating other
// sessions' blocks is race-free: those sessions are parked at their
// gates. A lone registered session declines arbitration — its local
// solve is already the whole picture.
type GlobalArbiter struct {
	mu       sync.Mutex
	sessions []arbSession
	// sink, when non-nil, receives one Arbitration summary event per
	// run (the server routes these to its own log, synchronized there).
	sink func(eventlog.Event)
	runs int
}

// arbSession is one registered session: its controller and the fair
// share weight of its tenant (candidate values are scaled by it).
type arbSession struct {
	ctl    *Controller
	weight float64
}

// NewGlobalArbiter creates an arbiter. sink, when non-nil, receives an
// Arbitration summary event after each cluster-wide solve; the caller
// owns its synchronization.
func NewGlobalArbiter(sink func(eventlog.Event)) *GlobalArbiter {
	return &GlobalArbiter{sink: sink}
}

// Register adds a session's controller to the arbitration scope with
// the given tenant weight (<= 0 counts as 1) and installs the arbiter
// on it. Only ILP-enabled controllers participate; others are ignored.
func (g *GlobalArbiter) Register(b *Controller, weight float64) {
	if b == nil || !b.ILPEnabled() {
		return
	}
	if weight <= 0 {
		weight = 1
	}
	g.mu.Lock()
	g.sessions = append(g.sessions, arbSession{ctl: b, weight: weight})
	g.mu.Unlock()
	b.WithArbiter(g)
}

// Unregister removes a session (its jobs finished or were cancelled)
// and detaches the arbiter from its controller.
func (g *GlobalArbiter) Unregister(b *Controller) {
	g.mu.Lock()
	for i, s := range g.sessions {
		if s.ctl == b {
			g.sessions = append(g.sessions[:i], g.sessions[i+1:]...)
			break
		}
	}
	g.mu.Unlock()
	if b != nil {
		b.WithArbiter(nil)
	}
}

// Runs returns how many cluster-wide arbitrations have executed.
func (g *GlobalArbiter) Runs() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.runs
}

// ArbitrateJobStart implements JobArbiter: the cluster-wide solve.
// Returns false (declining, so the trigger runs its local solve) when
// fewer than two bound sessions are registered.
func (g *GlobalArbiter) ArbitrateJobStart(trigger *Controller) bool {
	g.mu.Lock()
	defer g.mu.Unlock()

	var live []arbSession
	for _, s := range g.sessions {
		if s.ctl.c != nil {
			live = append(live, s)
		}
	}
	if len(live) < 2 {
		return false
	}

	// Every session's targetState is rebuilt from this solve, exactly as
	// replan rebuilds it at the top of a local solve.
	for _, s := range live {
		s.ctl.targetState = make(map[storage.BlockID]engine.Placement)
	}

	start := time.Now()
	met := trigger.c.Metrics()
	totalVars := 0
	for _, ex := range trigger.c.Executors() {
		if ex.Dead() {
			continue
		}

		// Gather and price each session's candidates under current states.
		perCands := make([][]candidate, len(live))
		union := 0
		inCand := make(map[storage.BlockID]bool)
		for i, s := range live {
			cs := s.ctl.gatherCandidates(ex)
			s.ctl.priceCandidates(cs, nil)
			perCands[i] = cs
			union += len(cs)
			for _, c := range cs {
				inCand[c.id] = true
			}
		}
		if union == 0 {
			continue
		}

		// Memory claimed by resident blocks outside every session's
		// candidate set (e.g. blocks of unregistered sessions) is not the
		// solver's to assign; shrink the capacity by it.
		var foreign int64
		for _, m := range ex.Mem.Blocks() {
			if !inCand[m.ID] {
				foreign += m.Size
			}
		}
		capEff := float64(ex.Mem.Capacity() - foreign)
		if capEff < 0 {
			capEff = 0
		}

		solveUnion := func() ([]bool, int, bool) {
			var values, weights []float64
			for i, s := range live {
				v, w := s.ctl.knapsackInputs(perCands[i])
				for j := range v {
					v[j] *= s.weight
				}
				values = append(values, v...)
				weights = append(weights, w...)
			}
			chosen, _, nodes, exact := ilp.KnapsackSearch(values, weights, capEff)
			return chosen, nodes, exact
		}

		// Fixed point on the recursive recomputation costs, as in replan:
		// solve, re-price every session under the union assignment, solve
		// again.
		chosen, nodes, _ := solveUnion()
		off := 0
		for i, s := range live {
			cs := perCands[i]
			hypo := make(map[storage.BlockID]bool, len(cs))
			for j := range cs {
				hypo[cs[j].id] = chosen[off+j]
			}
			off += len(cs)
			s.ctl.priceCandidates(cs, hypo)
		}
		chosen, nodes2, optimal := solveUnion()
		nodes += nodes2

		// Apply each session's slice through its own controller.
		off = 0
		for i, s := range live {
			cs := perCands[i]
			s.ctl.applyAssignment(ex, cs, chosen[off:off+len(cs)])
			off += len(cs)
		}

		// Optimizer accounting lands on the triggering session — it asked
		// for the solve and its job's latency budget paid for it.
		met.ILPSolves += 2
		met.ILPNodes += nodes
		if !optimal {
			met.ILPFallbacks++
		}
		trigger.c.EmitEvent(eventlog.Event{
			Kind: eventlog.ILPSolve, Time: trigger.c.Now(), Job: trigger.curJob,
			Executor: ex.ID, Vars: union, Nodes: nodes,
			Optimal: optimal,
		})
		totalVars += union
	}
	met.ILPSolveTime += time.Since(start)
	g.runs++
	if g.sink != nil {
		g.sink(eventlog.Event{
			Kind: eventlog.Arbitration, Time: trigger.c.Now(), Job: trigger.curJob,
			Count: len(live), Vars: totalVars,
		})
	}
	return true
}
