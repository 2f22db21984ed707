package ilp

import (
	"errors"
	"math"
	"sort"
)

// Problem is a binary integer linear program:
//
//	minimize    C·x
//	subject to  Constraints
//	            x_i ∈ {0, 1}
type Problem struct {
	C           []float64
	Constraints []Constraint
}

// Solution is the result of solving a Problem.
type Solution struct {
	// X holds the binary assignment (0 or 1 per variable).
	X []int
	// Objective is C·X.
	Objective float64
	// Optimal reports whether the solution is provably optimal: the
	// branch-and-bound search ran to exhaustion. It is false only when
	// the node budget truncated the search and the incumbent is merely
	// the best solution found so far.
	Optimal bool
	// Nodes counts branch-and-bound nodes explored.
	Nodes int
}

// Options tunes the branch-and-bound search.
type Options struct {
	// MaxNodes bounds the number of explored nodes; 0 means the default
	// (100000). When exceeded the best incumbent is returned with
	// Optimal=false, mirroring how Blaze bounds ILP latency (§5.5 keeps
	// the solve under a performance boundary).
	MaxNodes int
}

// ErrInfeasible is returned when no binary assignment satisfies the
// constraints.
var ErrInfeasible = errors.New("ilp: problem is infeasible")

// errNodeBudget is returned when the node budget ran out before any
// feasible assignment was found.
var errNodeBudget = errors.New("ilp: node budget exhausted before any feasible solution")

// Solve finds a minimum-cost binary assignment by branch and bound on
// the LP relaxation.
//
// Unlike the dense reference (dense_test.go), the entire search shares
// one bounded-variable simplex workspace: branching fixes a variable by
// shrinking its box to [v,v] in place, the child starts from the parent
// basis, and backtracking restores the box — no per-node problem
// reconstruction, no tableau rebuild unless the inherited basis turns
// primal infeasible.
func Solve(p Problem, opts Options) (Solution, error) {
	n := len(p.C)
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 100000
	}

	w := newWorkspace(p)
	if w == nil {
		return Solution{}, ErrInfeasible
	}
	best := Solution{Objective: math.Inf(1)}
	nodes := 0
	truncated := false
	x := make([]float64, n)
	// rcFixed is the undo stack for reduced-cost fixing: columns this
	// search pinned to one bound because the LP duals prove the other
	// bound cannot beat the incumbent.
	var rcFixed []int

	var dfs func()
	dfs = func() {
		if truncated {
			return
		}
		if nodes >= maxNodes {
			truncated = true
			return
		}
		nodes++

		st := w.solveCurrent()
		switch st {
		case wsInfeasible:
			return
		case wsUnbounded:
			// With every structural variable boxed in [0,1] the LP
			// cannot truly be unbounded; treat defensively as a dead
			// end, like the dense solver.
			return
		}
		stuck := st == wsStuck
		branch := -1
		rcMark := len(rcFixed)
		if !stuck {
			w.extractX(x)
			lb := w.objValue(x)
			if lb >= best.Objective-1e-9 {
				return // prune: cannot improve the incumbent
			}
			// Reduced-cost fixing: with incumbent value U and LP bound
			// L, any integer solution that moves nonbasic j off its
			// bound costs at least L + |d_j|, so |d_j| > U - L pins j
			// for this whole subtree. This is what keeps the tree
			// small at n in the hundreds; the pins are undone when the
			// node unwinds.
			if gap := best.Objective - 1e-9 - lb; !math.IsInf(gap, 1) {
				for j := 0; j < n; j++ {
					if w.colRow[j] >= 0 || w.lo[j] >= w.hi[j] {
						continue
					}
					if d := w.obj[j]; !w.atUpper[j] && d > gap {
						w.setBounds(j, w.lo[j], w.lo[j])
						rcFixed = append(rcFixed, j)
					} else if w.atUpper[j] && -d > gap {
						w.setBounds(j, w.hi[j], w.hi[j])
						rcFixed = append(rcFixed, j)
					}
				}
			}
			// Branch on the most fractional free variable.
			bestFrac := 0.0
			for j := 0; j < n; j++ {
				if w.lo[j] >= w.hi[j] {
					continue
				}
				f := math.Abs(x[j] - math.Round(x[j]))
				if f > 1e-6 && f > bestFrac {
					bestFrac = f
					branch = j
				}
			}
		} else {
			// The relaxation did not converge, so there is no bound to
			// prune with and no fractional point to guide branching:
			// branch on the first free variable and keep searching —
			// exactness is preserved, only pruning is lost here.
			for j := 0; j < n; j++ {
				if w.lo[j] < w.hi[j] {
					branch = j
					break
				}
			}
		}

		if branch == -1 {
			// Every variable is integral (or fixed): candidate incumbent.
			xi := make([]int, n)
			if stuck {
				// All fixed but the LP was stuck: evaluate the forced
				// assignment directly.
				for j := 0; j < n; j++ {
					xi[j] = int(math.Round(w.lo[j]))
				}
				if feasible(p, xi) {
					obj := 0.0
					for j, v := range xi {
						obj += p.C[j] * float64(v)
					}
					if obj < best.Objective {
						best = Solution{X: xi, Objective: obj}
					}
				}
			} else {
				for j := 0; j < n; j++ {
					xi[j] = int(math.Round(x[j]))
				}
				obj := 0.0
				for j, v := range xi {
					obj += p.C[j] * float64(v)
				}
				if obj < best.Objective {
					best = Solution{X: xi, Objective: obj}
				}
			}
		} else {
			// Explore the rounded side first: DFS finds good incumbents
			// quickly, which strengthens pruning.
			near := 1
			if !stuck && math.Round(x[branch]) == 0 {
				near = 0
			}
			for _, v := range []int{near, 1 - near} {
				fv := float64(v)
				w.setBounds(branch, fv, fv)
				dfs()
				w.setBounds(branch, 0, 1)
				if truncated {
					break
				}
			}
		}

		// Unwind this node's reduced-cost pins.
		for len(rcFixed) > rcMark {
			j := rcFixed[len(rcFixed)-1]
			rcFixed = rcFixed[:len(rcFixed)-1]
			w.setBounds(j, 0, 1)
		}
	}
	dfs()

	if math.IsInf(best.Objective, 1) {
		if truncated {
			return Solution{Nodes: nodes}, errNodeBudget
		}
		return Solution{Nodes: nodes}, ErrInfeasible
	}
	best.Nodes = nodes
	// Optimality is exactly search exhaustion. (The old solver keyed
	// this off nodes < maxNodes, wrongly reporting a completed search as
	// truncated when the stack emptied on the budget's last node.)
	best.Optimal = !truncated
	return best, nil
}

// BruteForce enumerates all 2^n assignments and returns the optimum. It
// exists as the reference oracle for property-based tests and only
// supports small n.
func BruteForce(p Problem) (Solution, error) {
	n := len(p.C)
	if n > 20 {
		return Solution{}, errors.New("ilp: brute force limited to 20 variables")
	}
	best := Solution{Objective: math.Inf(1)}
	x := make([]int, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			x[i] = (mask >> i) & 1
		}
		if !feasible(p, x) {
			continue
		}
		obj := 0.0
		for i, v := range x {
			obj += p.C[i] * float64(v)
		}
		if obj < best.Objective {
			best = Solution{X: append([]int(nil), x...), Objective: obj, Optimal: true}
		}
	}
	if math.IsInf(best.Objective, 1) {
		return Solution{}, ErrInfeasible
	}
	return best, nil
}

func feasible(p Problem, x []int) bool {
	for _, con := range p.Constraints {
		s := 0.0
		for i, v := range x {
			s += con.Coeffs[i] * float64(v)
		}
		switch con.Rel {
		case LE:
			if s > con.RHS+1e-9 {
				return false
			}
		case GE:
			if s < con.RHS-1e-9 {
				return false
			}
		case EQ:
			if math.Abs(s-con.RHS) > 1e-9 {
				return false
			}
		}
	}
	return true
}

// KnapsackSearch solves the 0/1 knapsack problem: choose items
// maximizing total value with total weight <= capacity. It also reports
// the number of branch-and-bound nodes explored and whether the search
// ran to exhaustion (exact=true) or was truncated by the node budget.
// It uses the classic Horowitz-Sahni branch and bound with a fractional
// upper bound.
//
// This is the fast path for the Blaze ILP when disk capacity is abundant
// (the paper's default, §5.5): keeping partition p in memory saves its
// potential recovery cost min(cost_d, cost_r), so the optimal memory set
// maximizes saved cost subject to the memory capacity — a knapsack.
func KnapsackSearch(values, weights []float64, capacity float64) (chosen []bool, total float64, searchNodes int, exact bool) {
	n := len(values)
	chosen = make([]bool, n)
	if n == 0 || capacity < 0 {
		return chosen, 0, 0, true
	}

	// Trivial case, checked before anything but the answer is allocated:
	// every item worth taking fits. (Blaze's weights are byte sizes, so
	// this sum is exact in any order.)
	var totalW float64
	for i, v := range values {
		if v > 0 && weights[i] > 0 {
			totalW += weights[i]
		}
	}
	if totalW <= capacity {
		for i, v := range values {
			if v > 0 {
				chosen[i] = true
				total += v
			}
		}
		return chosen, total, 0, true
	}

	type item struct {
		v, w float64
		idx  int
	}
	items := make([]item, 0, n)
	for i := 0; i < n; i++ {
		v, w := values[i], weights[i]
		if v <= 0 {
			continue // never worth taking
		}
		if w <= 0 {
			chosen[i] = true // free to take
			total += v
			continue
		}
		items = append(items, item{v, w, i})
	}
	sort.Slice(items, func(a, b int) bool {
		da, db := items[a].v/items[a].w, items[b].v/items[b].w
		if da != db {
			return da > db
		}
		return items[a].idx < items[b].idx
	})

	// upper bound from position k with remaining capacity rem.
	bound := func(k int, rem, val float64) float64 {
		b := val
		for ; k < len(items); k++ {
			if items[k].w <= rem {
				rem -= items[k].w
				b += items[k].v
			} else {
				b += items[k].v / items[k].w * rem
				break
			}
		}
		return b
	}

	// Branch and bound with a node budget: items sorted by density make
	// the take-first DFS find a near-optimal greedy incumbent
	// immediately, so exhausting the budget on adversarial inputs (many
	// equal-density items) still returns an excellent solution — the
	// same latency bounding Blaze applies to its solver (§5.5).
	const nodeBudget = 200000
	nodes := 0
	bestVal := -1.0
	cur := make([]bool, len(items))
	bestSel := make([]bool, len(items))
	var dfs func(k int, rem, val float64)
	dfs = func(k int, rem, val float64) {
		nodes++
		if val > bestVal {
			bestVal = val
			copy(bestSel, cur)
		}
		if k >= len(items) || nodes > nodeBudget {
			return
		}
		if bound(k, rem, val) <= bestVal+1e-12 {
			return
		}
		if items[k].w <= rem {
			cur[k] = true
			dfs(k+1, rem-items[k].w, val+items[k].v)
			cur[k] = false
		}
		dfs(k+1, rem, val)
	}
	dfs(0, capacity, 0)

	for k, sel := range bestSel {
		if sel {
			chosen[items[k].idx] = true
			total += items[k].v
		}
	}
	return chosen, total, nodes, nodes <= nodeBudget
}
