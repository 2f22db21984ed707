package ilp

import (
	"errors"
	"math"
)

// This file preserves the original dense solver as a reference baseline.
// ReferenceSolve is the pre-bounded-variable branch and bound: a dense
// two-phase simplex whose tableau appends every variable upper bound as
// an explicit <= 1 row and rebuilds the reduced problem from scratch at
// every node. It exists ONLY as the differential-testing oracle and the
// benchmark baseline (BenchmarkBranchAndBound) — a _test.go file so it
// is never linked into a binary; production code calls Solve, which
// runs the bounded-variable simplex on a tableau ~4x smaller and reuses
// one workspace across the whole search.

// ReferenceSolve finds a minimum-cost binary assignment with the
// original dense algorithm. Semantics match Solve (same pruning rule,
// same branch order) so node-for-node comparisons are meaningful.
func ReferenceSolve(p Problem, opts Options) (Solution, error) {
	n := len(p.C)
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 100000
	}
	best := Solution{Objective: math.Inf(1)}
	nodes := 0

	// fixed[i]: -1 free, 0 or 1 fixed by branching.
	type node struct {
		fixed []int8
	}
	start := node{fixed: make([]int8, n)}
	for i := range start.fixed {
		start.fixed[i] = -1
	}
	stack := []node{start}

	for len(stack) > 0 && nodes < maxNodes {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++

		x, lb, status := denseSolveFixed(p, nd.fixed)
		if status == LPInfeasible {
			continue
		}
		if status == LPUnbounded {
			// With all variables in [0,1] the LP cannot be unbounded;
			// treat defensively as a dead end.
			continue
		}
		if lb >= best.Objective-1e-9 {
			continue // prune: cannot improve the incumbent
		}
		// Find the most fractional variable.
		branch := -1
		bestFrac := 0.0
		for i, v := range x {
			f := math.Abs(v - math.Round(v))
			if f > 1e-6 && f > bestFrac {
				bestFrac = f
				branch = i
			}
		}
		if branch == -1 {
			// Integer solution: new incumbent.
			xi := make([]int, n)
			for i, v := range x {
				xi[i] = int(math.Round(v))
			}
			obj := 0.0
			for i, v := range xi {
				obj += p.C[i] * float64(v)
			}
			if obj < best.Objective {
				best = Solution{X: xi, Objective: obj, Optimal: true}
			}
			continue
		}
		// Branch: explore the rounded side first (DFS finds good
		// incumbents quickly, which strengthens pruning).
		near := int8(math.Round(x[branch]))
		for _, v := range []int8{1 - near, near} {
			child := node{fixed: append([]int8(nil), nd.fixed...)}
			child.fixed[branch] = v
			stack = append(stack, child)
		}
	}

	best.Nodes = nodes
	if math.IsInf(best.Objective, 1) {
		if nodes >= maxNodes {
			return Solution{Nodes: nodes}, errors.New("ilp: node budget exhausted before any feasible solution")
		}
		return Solution{Nodes: nodes}, ErrInfeasible
	}
	best.Optimal = best.Optimal && nodes < maxNodes
	return best, nil
}

// denseSolveFixed solves the LP relaxation with some variables fixed by
// branching, substituting fixed variables out of the problem and
// re-assembling a reduced problem — the per-node reconstruction cost the
// bounded-variable workspace eliminates.
func denseSolveFixed(p Problem, fixed []int8) (x []float64, obj float64, status LPStatus) {
	n := len(p.C)
	freeIdx := make([]int, 0, n)
	for i, f := range fixed {
		if f == -1 {
			freeIdx = append(freeIdx, i)
		}
	}
	if len(freeIdx) == n {
		return denseSolveLP(p.C, p.Constraints)
	}
	// Reduced problem over free variables.
	cr := make([]float64, len(freeIdx))
	baseObj := 0.0
	for i, f := range fixed {
		if f == 1 {
			baseObj += p.C[i]
		}
	}
	for j, i := range freeIdx {
		cr[j] = p.C[i]
	}
	consr := make([]Constraint, 0, len(p.Constraints))
	for _, con := range p.Constraints {
		rhs := con.RHS
		coeffs := make([]float64, len(freeIdx))
		for i, f := range fixed {
			if f == 1 {
				rhs -= con.Coeffs[i]
			}
		}
		for j, i := range freeIdx {
			coeffs[j] = con.Coeffs[i]
		}
		// A constraint with no free variables is either trivially
		// satisfied or proves infeasibility.
		allZero := true
		for _, c := range coeffs {
			if c != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			switch con.Rel {
			case LE:
				if rhs < -1e-9 {
					return nil, 0, LPInfeasible
				}
			case GE:
				if rhs > 1e-9 {
					return nil, 0, LPInfeasible
				}
			case EQ:
				if math.Abs(rhs) > 1e-9 {
					return nil, 0, LPInfeasible
				}
			}
			continue
		}
		consr = append(consr, Constraint{Coeffs: coeffs, Rel: con.Rel, RHS: rhs})
	}
	xr, objr, st := denseSolveLP(cr, consr)
	if st != LPOptimal {
		return nil, 0, st
	}
	x = make([]float64, n)
	for i, f := range fixed {
		if f == 1 {
			x[i] = 1
		}
	}
	for j, i := range freeIdx {
		x[i] = xr[j]
	}
	return x, baseObj + objr, LPOptimal
}

// denseSolveLP minimizes c·x subject to the given constraints and
// 0 <= x_i <= 1, using the original two-phase dense simplex with Bland's
// rule. The variable upper bounds are appended internally as <= 1 rows,
// which is exactly the tableau blow-up the bounded-variable simplex in
// simplex.go avoids.
func denseSolveLP(c []float64, cons []Constraint) (x []float64, obj float64, status LPStatus) {
	n := len(c)
	// Assemble the full constraint list including variable upper bounds.
	all := make([]Constraint, 0, len(cons)+n)
	all = append(all, cons...)
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		row[i] = 1
		all = append(all, Constraint{Coeffs: row, Rel: LE, RHS: 1})
	}
	m := len(all)

	// Standard form: every row gets RHS >= 0; <= rows get a slack,
	// >= rows get a surplus and an artificial, == rows get an artificial.
	type rowSpec struct {
		coeffs []float64
		rhs    float64
		rel    Relation
	}
	rows := make([]rowSpec, m)
	numSlack, numArt := 0, 0
	for i, con := range all {
		if len(con.Coeffs) != n {
			return nil, 0, LPInfeasible
		}
		coeffs := append([]float64(nil), con.Coeffs...)
		rhs := con.RHS
		rel := con.Rel
		if rhs < 0 {
			for j := range coeffs {
				coeffs[j] = -coeffs[j]
			}
			rhs = -rhs
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		rows[i] = rowSpec{coeffs, rhs, rel}
		switch rel {
		case LE:
			numSlack++
		case GE:
			numSlack++
			numArt++
		case EQ:
			numArt++
		}
	}

	total := n + numSlack + numArt
	// tab has m rows of (total coefficients + rhs).
	tab := make([][]float64, m)
	basis := make([]int, m)
	slackIdx, artIdx := n, n+numSlack
	artCols := make([]int, 0, numArt)
	for i, r := range rows {
		row := make([]float64, total+1)
		copy(row, r.coeffs)
		row[total] = r.rhs
		switch r.rel {
		case LE:
			row[slackIdx] = 1
			basis[i] = slackIdx
			slackIdx++
		case GE:
			row[slackIdx] = -1
			slackIdx++
			row[artIdx] = 1
			basis[i] = artIdx
			artCols = append(artCols, artIdx)
			artIdx++
		case EQ:
			row[artIdx] = 1
			basis[i] = artIdx
			artCols = append(artCols, artIdx)
			artIdx++
		}
		tab[i] = row
	}

	pivot := func(obj []float64, allowed int) LPStatus {
		for {
			// Entering variable: Bland's rule — smallest index with a
			// negative reduced cost.
			col := -1
			for j := 0; j < allowed; j++ {
				if obj[j] < -eps {
					col = j
					break
				}
			}
			if col == -1 {
				return LPOptimal
			}
			// Leaving variable: minimum ratio, ties by smallest basis index.
			row := -1
			best := math.Inf(1)
			for i := 0; i < m; i++ {
				a := tab[i][col]
				if a > eps {
					ratio := tab[i][total] / a
					if ratio < best-eps || (math.Abs(ratio-best) <= eps && (row == -1 || basis[i] < basis[row])) {
						best = ratio
						row = i
					}
				}
			}
			if row == -1 {
				return LPUnbounded
			}
			// Pivot on (row, col).
			p := tab[row][col]
			for j := 0; j <= total; j++ {
				tab[row][j] /= p
			}
			for i := 0; i < m; i++ {
				if i == row {
					continue
				}
				f := tab[i][col]
				if f != 0 {
					for j := 0; j <= total; j++ {
						tab[i][j] -= f * tab[row][j]
					}
				}
			}
			f := obj[col]
			if f != 0 {
				for j := 0; j <= total; j++ {
					obj[j] -= f * tab[row][j]
				}
			}
			basis[row] = col
		}
	}

	// Phase 1: minimize the sum of artificial variables.
	if numArt > 0 {
		phase1 := make([]float64, total+1)
		for _, j := range artCols {
			phase1[j] = 1
		}
		// Express the phase-1 objective in terms of non-basic variables.
		for i, b := range basis {
			if phase1[b] != 0 {
				f := phase1[b]
				for j := 0; j <= total; j++ {
					phase1[j] -= f * tab[i][j]
				}
			}
		}
		if st := pivot(phase1, total); st == LPUnbounded {
			return nil, 0, LPInfeasible
		}
		if -phase1[total] > 1e-6 {
			return nil, 0, LPInfeasible
		}
		// Drive any artificial variables still in the basis out of it.
		for i := 0; i < m; i++ {
			if basis[i] >= n+numSlack {
				moved := false
				for j := 0; j < n+numSlack; j++ {
					if math.Abs(tab[i][j]) > eps {
						p := tab[i][j]
						for k := 0; k <= total; k++ {
							tab[i][k] /= p
						}
						for r := 0; r < m; r++ {
							if r == i {
								continue
							}
							f := tab[r][j]
							if f != 0 {
								for k := 0; k <= total; k++ {
									tab[r][k] -= f * tab[i][k]
								}
							}
						}
						basis[i] = j
						moved = true
						break
					}
				}
				if !moved {
					// Redundant row; leave the artificial at zero.
					continue
				}
			}
		}
	}

	// Phase 2: minimize the real objective over structural+slack columns.
	phase2 := make([]float64, total+1)
	copy(phase2, c)
	for i, b := range basis {
		if b < len(c) && phase2[b] != 0 {
			f := phase2[b]
			for j := 0; j <= total; j++ {
				phase2[j] -= f * tab[i][j]
			}
		}
	}
	// Artificials are forbidden from re-entering: restrict entering columns
	// to structural + slack variables.
	if st := pivot(phase2, n+numSlack); st == LPUnbounded {
		return nil, 0, LPUnbounded
	}

	x = make([]float64, n)
	for i, b := range basis {
		if b < n {
			x[b] = tab[i][total]
		}
	}
	obj = 0
	for i := range x {
		// Clamp tiny numerical noise into [0,1].
		if x[i] < 0 {
			x[i] = 0
		}
		if x[i] > 1 {
			x[i] = 1
		}
		obj += c[i] * x[i]
	}
	return x, obj, LPOptimal
}
