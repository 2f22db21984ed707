// Package ilp provides a small, dependency-free exact solver for the
// binary integer linear programs Blaze formulates (§5.5, Eq. 5-6).
//
// The paper uses the commercial Gurobi optimizer; this reproduction
// implements the same functionality from scratch: a bounded-variable
// primal simplex for the LP relaxation, a warm-started branch-and-bound
// search over binary variables, and a specialized branch-and-bound 0/1
// knapsack fast path for the disk-unconstrained case where the Blaze ILP
// provably reduces to a knapsack (see internal/core).
package ilp

import (
	"math"
)

// Relation is the comparison direction of a linear constraint.
type Relation int

const (
	// LE constrains a·x <= b.
	LE Relation = iota
	// GE constrains a·x >= b.
	GE
	// EQ constrains a·x == b.
	EQ
)

// Constraint is one linear constraint over the decision variables.
type Constraint struct {
	Coeffs []float64
	Rel    Relation
	RHS    float64
}

const eps = 1e-9

// wsStatus is the internal outcome of a workspace LP solve. wsStuck reports that the pivot iteration cap was hit, a
// signal branch and bound handles by branching without a bound rather
// than trusting a half-converged relaxation.
type wsStatus int

const (
	wsOptimal wsStatus = iota
	wsInfeasible
	wsUnbounded
	wsStuck
)

// feasTol is the primal feasibility tolerance for basic-variable bounds.
// It is looser than the pivot eps because basic values accumulate
// floating-point drift across warm-started pivots.
const feasTol = 1e-7

// pivotRefreshLimit caps pivots applied to one tableau before the next
// solveCurrent forces a cold rebuild, bounding accumulated drift.
const pivotRefreshLimit = 20000

// degenerateLimit is how many consecutive degenerate pivots the Dantzig
// rule tolerates before the entering selection falls back to Bland's
// rule (which provably cannot cycle).
const degenerateLimit = 40

// workspace is a reusable bounded-variable simplex over one Problem.
//
// The key structural idea (tentpole part 1): the variable bounds
// 0 <= x_j <= 1 never appear in the constraint matrix. A nonbasic
// variable rests at either its lower or its upper bound (atUpper), the
// ratio test gains a third case (the entering variable flips to its
// opposite bound without any basis change), and basic values xB are
// maintained incrementally. The tableau is m×(n+slacks+m) instead of the
// dense solver's (m+n)×(n+slacks+artificials+1) — about a 4× area
// reduction before any pivoting on Blaze-shaped problems.
//
// The second structural idea (tentpole part 2): branching only edits the
// lo/hi arrays. The factorization tab = B⁻¹A stays algebraically valid
// under any bounds, so a child node inherits its parent's basis, patches
// nonbasic values in place (setBounds), and usually needs only a few
// phase-2 pivots. A cold rebuild with a phase-1 start (refresh) happens
// only when the inherited basis is primal infeasible under the new
// bounds or drift-guard limits trip.
type workspace struct {
	n        int // structural (decision) variables
	m        int // constraint rows
	numSlack int // one per LE/GE row
	total    int // n + numSlack + m (one artificial slot per row)

	// Immutable-ish problem data. A holds the equality form
	// (slack columns folded in); the artificial slot of row i is column
	// n+numSlack+i, whose sign is (re)set by refresh to make the
	// artificial start nonnegative.
	a [][]float64
	b []float64
	c []float64 // phase-2 costs over all columns (zeros past n)

	lo, hi []float64 // per-column box; branching edits structural entries

	// Mutable simplex state.
	tab     [][]float64 // B⁻¹A, m × total
	obj     []float64   // phase-2 reduced costs, maintained across pivots
	basis   []int       // row -> basic column
	colRow  []int       // column -> row, or -1 when nonbasic
	atUpper []bool      // nonbasic at upper bound (false for basics)
	xB      []float64   // basic-variable values
	artUsed []bool      // artificial columns activated by the last refresh
	valid   bool        // tab/basis/obj/xB initialized
	pivots  int         // pivots since last refresh (drift guard)
}

// newWorkspace assembles the equality-form matrix for p. It returns nil
// if any constraint row has the wrong arity (the caller maps that to
// infeasible, matching the dense solver).
func newWorkspace(p Problem) *workspace {
	n := len(p.C)
	m := len(p.Constraints)
	numSlack := 0
	for _, con := range p.Constraints {
		if len(con.Coeffs) != n {
			return nil
		}
		if con.Rel != EQ {
			numSlack++
		}
	}
	total := n + numSlack + m
	w := &workspace{
		n:        n,
		m:        m,
		numSlack: numSlack,
		total:    total,
		a:        make([][]float64, m),
		b:        make([]float64, m),
		c:        make([]float64, total),
		lo:       make([]float64, total),
		hi:       make([]float64, total),
		tab:      make([][]float64, m),
		obj:      make([]float64, total),
		basis:    make([]int, m),
		colRow:   make([]int, total),
		atUpper:  make([]bool, total),
		xB:       make([]float64, m),
		artUsed:  make([]bool, m),
	}
	copy(w.c, p.C)
	slack := n
	for i, con := range p.Constraints {
		row := make([]float64, total)
		copy(row, con.Coeffs)
		switch con.Rel {
		case LE:
			row[slack] = 1
			slack++
		case GE:
			row[slack] = -1
			slack++
		}
		w.a[i] = row
		w.b[i] = con.RHS
		w.tab[i] = make([]float64, total)
	}
	for j := 0; j < n; j++ {
		w.lo[j], w.hi[j] = 0, 1
	}
	for j := n; j < n+numSlack; j++ {
		w.lo[j], w.hi[j] = 0, math.Inf(1)
	}
	// Artificial slots stay pinned to [0,0] until a refresh opens the
	// ones it needs for its phase 1.
	return w
}

// setBounds changes variable j's box, keeping the warm state coherent.
// A nonbasic variable is moved onto its nearest feasible bound with an
// incremental xB update; a basic variable keeps its current value and
// the next solveCurrent repairs any violation (via refresh). This is the
// whole cost of a branch-and-bound fix/unfix — no problem rebuild.
func (w *workspace) setBounds(j int, lo, hi float64) {
	if !w.valid {
		w.lo[j], w.hi[j] = lo, hi
		return
	}
	if w.colRow[j] >= 0 {
		w.lo[j], w.hi[j] = lo, hi
		return
	}
	old := w.lo[j]
	if w.atUpper[j] {
		old = w.hi[j]
	}
	w.lo[j], w.hi[j] = lo, hi
	nv := old
	if nv < lo {
		nv = lo
	}
	if nv > hi {
		nv = hi
	}
	w.atUpper[j] = hi > lo && nv == hi
	if d := nv - old; d != 0 {
		for i := 0; i < w.m; i++ {
			if a := w.tab[i][j]; a != 0 {
				w.xB[i] -= d * a
			}
		}
	}
}

// basicsFeasible reports whether every basic value respects its box.
func (w *workspace) basicsFeasible() bool {
	for i, bc := range w.basis {
		if w.xB[i] < w.lo[bc]-feasTol || w.xB[i] > w.hi[bc]+feasTol {
			return false
		}
	}
	return true
}

// solveCurrent optimizes under the current bounds. Warm path: if the
// inherited basis is still primal feasible, only phase-2 pivots run on
// the existing tableau and reduced costs. Cold path: full rebuild with a
// phase-1 start.
func (w *workspace) solveCurrent() wsStatus {
	if w.valid && w.pivots < pivotRefreshLimit && w.basicsFeasible() {
		st := w.pivotLoop(w.obj)
		if st != wsStuck {
			return st
		}
		// A stuck warm solve may just be drift; retry cold once.
	}
	return w.refresh()
}

// refresh rebuilds the tableau from the original matrix: all nonbasic
// columns drop to their lower bounds, each row becomes basic in its
// slack when that is feasible, and only the remaining rows open an
// artificial for a phase-1 solve. Iterative Blaze problems are usually
// slack-feasible at the root, so phase 1 is skipped entirely.
//
// The workspace is warm (valid) afterwards only when the solve reached
// optimality: an infeasible or stuck exit leaves open artificials or a
// stale reduced-cost row behind, and reusing that state as a warm basis
// would silently drop constraints.
func (w *workspace) refresh() wsStatus {
	st := w.rebuildAndSolve()
	w.valid = st == wsOptimal
	return st
}

func (w *workspace) rebuildAndSolve() wsStatus {
	w.valid = false
	w.pivots = 0
	for j := 0; j < w.total; j++ {
		w.colRow[j] = -1
		w.atUpper[j] = false
	}
	// Re-pin every artificial slot; refresh reopens the ones it needs.
	for i := 0; i < w.m; i++ {
		art := w.n + w.numSlack + i
		w.lo[art], w.hi[art] = 0, 0
		w.artUsed[i] = false
	}
	anyArt := false
	for i := 0; i < w.m; i++ {
		copy(w.tab[i], w.a[i])
		// Residual with all structural variables at their lower bounds
		// and slacks at zero.
		res := w.b[i]
		for j := 0; j < w.n; j++ {
			if w.lo[j] != 0 {
				res -= w.a[i][j] * w.lo[j]
			}
		}
		// Identify this row's slack column, if any.
		slackCol, sigma := -1, 0.0
		for j := w.n; j < w.n+w.numSlack; j++ {
			if w.a[i][j] != 0 {
				slackCol, sigma = j, w.a[i][j]
				break
			}
		}
		if slackCol >= 0 && res/sigma >= -feasTol {
			// Slack-basic start: feasible without an artificial.
			v := res / sigma
			if v < 0 {
				v = 0
			}
			if sigma != 1 {
				for k := range w.tab[i] {
					w.tab[i][k] /= sigma
				}
			}
			w.basis[i] = slackCol
			w.colRow[slackCol] = i
			w.xB[i] = v
			continue
		}
		// Artificial start: give the slot the sign of the residual so
		// the artificial begins at |res| >= 0.
		art := w.n + w.numSlack + i
		sgn := 1.0
		if res < 0 {
			sgn = -1
		}
		w.a[i][art] = sgn
		w.tab[i][art] = sgn
		if sgn < 0 {
			for k := range w.tab[i] {
				w.tab[i][k] = -w.tab[i][k]
			}
		}
		w.basis[i] = art
		w.colRow[art] = i
		w.xB[i] = math.Abs(res)
		w.lo[art], w.hi[art] = 0, math.Inf(1)
		w.artUsed[i] = true
		anyArt = true
	}

	if anyArt {
		// Phase 1: minimize the sum of the opened artificials. Entering
		// columns are restricted to structural+slack (pivotLoop), so a
		// driven-out artificial never returns.
		ph1 := make([]float64, w.total)
		for i := 0; i < w.m; i++ {
			if w.artUsed[i] {
				ph1[w.n+w.numSlack+i] = 1
			}
		}
		for i, bc := range w.basis {
			if ph1[bc] != 0 {
				f := ph1[bc]
				for k := 0; k < w.total; k++ {
					ph1[k] -= f * w.tab[i][k]
				}
			}
		}
		switch w.pivotLoop(ph1) {
		case wsUnbounded:
			// The phase-1 objective is bounded below by zero; reaching
			// here means numerical trouble. Treat as infeasible, like
			// the dense solver.
			return wsInfeasible
		case wsStuck:
			return wsStuck
		}
		infeas := 0.0
		for i, bc := range w.basis {
			if bc >= w.n+w.numSlack {
				infeas += w.xB[i]
			}
		}
		if infeas > 1e-6 {
			return wsInfeasible
		}
		// Close the artificials. Ones still basic sit at ~0 with a [0,0]
		// box; they can leave later through degenerate pivots but can
		// never take a nonzero value again.
		for i := 0; i < w.m; i++ {
			art := w.n + w.numSlack + i
			w.lo[art], w.hi[art] = 0, 0
			if w.colRow[art] == -1 {
				w.atUpper[art] = false
			}
		}
	}

	// Phase 2 with freshly derived reduced costs.
	copy(w.obj, w.c)
	for k := w.n; k < w.total; k++ {
		w.obj[k] = 0
	}
	for i, bc := range w.basis {
		if w.obj[bc] != 0 {
			f := w.obj[bc]
			for k := 0; k < w.total; k++ {
				w.obj[k] -= f * w.tab[i][k]
			}
		}
	}
	return w.pivotLoop(w.obj)
}

// pivotLoop runs bounded-variable primal simplex iterations on the
// given reduced-cost row until optimality, unboundedness, or the
// iteration cap. Entering columns are restricted to structural and
// slack variables; artificial slots never enter (their boxes are [0,0]
// or they are phase-1 residents on their way out).
func (w *workspace) pivotLoop(obj []float64) wsStatus {
	enterLimit := w.n + w.numSlack
	maxIter := 400 + 60*(w.m+w.total)
	degen := 0
	useBland := false
	for iter := 0; iter < maxIter; iter++ {
		// Entering variable. Dantzig (steepest reduced cost) normally;
		// Bland's rule (first eligible) after a degenerate stall, which
		// guarantees no cycling.
		col, dir := -1, 1.0
		bestScore := eps
		for j := 0; j < enterLimit; j++ {
			if w.colRow[j] >= 0 || w.hi[j]-w.lo[j] <= eps {
				continue // basic, or fixed by branching
			}
			d := obj[j]
			if !w.atUpper[j] && d < -eps {
				if useBland {
					col, dir = j, 1
					break
				}
				if -d > bestScore {
					bestScore, col, dir = -d, j, 1
				}
			} else if w.atUpper[j] && d > eps {
				if useBland {
					col, dir = j, -1
					break
				}
				if d > bestScore {
					bestScore, col, dir = d, j, -1
				}
			}
		}
		if col == -1 {
			return wsOptimal
		}

		// Three-way ratio test: (a) a basic variable reaches its lower
		// bound, (b) a basic variable reaches its finite upper bound,
		// (c) the entering variable flips to its own opposite bound —
		// the case that replaces the dense solver's n explicit <= 1
		// rows. The flip wins ties (no basis change, no fill-in).
		t := math.Inf(1)
		if span := w.hi[col] - w.lo[col]; !math.IsInf(span, 1) {
			t = span
		}
		leave := -1 // -1 means bound flip
		leaveAtUpper := false
		for i := 0; i < w.m; i++ {
			a := dir * w.tab[i][col]
			bc := w.basis[i]
			if a > eps {
				ti := (w.xB[i] - w.lo[bc]) / a
				if ti < 0 {
					ti = 0
				}
				if ti < t-eps || (ti < t+eps && leave >= 0 && bc < w.basis[leave]) {
					t, leave, leaveAtUpper = ti, i, false
				}
			} else if a < -eps && !math.IsInf(w.hi[bc], 1) {
				ti := (w.hi[bc] - w.xB[i]) / -a
				if ti < 0 {
					ti = 0
				}
				if ti < t-eps || (ti < t+eps && leave >= 0 && bc < w.basis[leave]) {
					t, leave, leaveAtUpper = ti, i, true
				}
			}
		}
		if math.IsInf(t, 1) {
			return wsUnbounded
		}
		if t <= eps {
			degen++
			if degen > degenerateLimit {
				useBland = true
			}
		} else {
			degen = 0
			useBland = false
		}

		if leave == -1 {
			// Bound flip: x_col moves across its whole box; basics
			// absorb the move; the basis and reduced costs are
			// untouched.
			delta := dir * t
			for i := 0; i < w.m; i++ {
				if a := w.tab[i][col]; a != 0 {
					w.xB[i] -= delta * a
				}
			}
			w.atUpper[col] = !w.atUpper[col]
			continue
		}

		// Basis change: entering advances by t, the leaving variable
		// lands exactly on one of its bounds.
		enterFrom := w.lo[col]
		if w.atUpper[col] {
			enterFrom = w.hi[col]
		}
		enterVal := enterFrom + dir*t
		for i := 0; i < w.m; i++ {
			if i == leave {
				continue
			}
			if a := w.tab[i][col]; a != 0 {
				w.xB[i] -= dir * t * a
			}
		}
		leaveCol := w.basis[leave]
		w.colRow[leaveCol] = -1
		w.atUpper[leaveCol] = leaveAtUpper

		piv := w.tab[leave][col]
		row := w.tab[leave]
		inv := 1 / piv
		for k := range row {
			row[k] *= inv
		}
		for i := 0; i < w.m; i++ {
			if i == leave {
				continue
			}
			if f := w.tab[i][col]; f != 0 {
				ri := w.tab[i]
				for k := range ri {
					ri[k] -= f * row[k]
				}
			}
		}
		if f := obj[col]; f != 0 {
			for k := range obj {
				obj[k] -= f * row[k]
			}
		}
		w.basis[leave] = col
		w.colRow[col] = leave
		w.atUpper[col] = false
		w.xB[leave] = enterVal
		w.pivots++
	}
	return wsStuck
}

// extractX reads the current structural solution: basics from xB,
// nonbasics from whichever bound they rest on. Values are clamped into
// their box to shed pivot noise.
func (w *workspace) extractX(x []float64) {
	for j := 0; j < w.n; j++ {
		var v float64
		if r := w.colRow[j]; r >= 0 {
			v = w.xB[r]
		} else if w.atUpper[j] {
			v = w.hi[j]
		} else {
			v = w.lo[j]
		}
		if v < w.lo[j] {
			v = w.lo[j]
		}
		if v > w.hi[j] {
			v = w.hi[j]
		}
		x[j] = v
	}
}

// objValue is c·x for the current structural solution.
func (w *workspace) objValue(x []float64) float64 {
	obj := 0.0
	for j := 0; j < w.n; j++ {
		obj += w.c[j] * x[j]
	}
	return obj
}
