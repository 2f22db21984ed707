package ilp

// Test oracles: an exhaustive search over every binary assignment and a
// one-shot LP solve through the bounded-variable workspace, which the
// solver tests and fuzzers check Solve and the dense reference against.

import (
	"errors"
	"fmt"
	"math"
)

// LPStatus describes the outcome of an LP solve.
type LPStatus int

const (
	// LPOptimal means an optimal vertex was found.
	LPOptimal LPStatus = iota
	// LPInfeasible means the constraints admit no solution.
	LPInfeasible
	// LPUnbounded means the objective decreases without bound.
	LPUnbounded
)

func (s LPStatus) String() string {
	switch s {
	case LPOptimal:
		return "optimal"
	case LPInfeasible:
		return "infeasible"
	case LPUnbounded:
		return "unbounded"
	}
	return fmt.Sprintf("LPStatus(%d)", int(s))
}

// solveLP minimizes c·x subject to the given constraints and
// 0 <= x_i <= 1, via the bounded-variable simplex: one cold LP solve,
// checked against the dense reference. Branch and bound uses the
// workspace directly so bounds edits stay warm.
func solveLP(c []float64, cons []Constraint) (x []float64, obj float64, status LPStatus) {
	w := newWorkspace(Problem{C: c, Constraints: cons})
	if w == nil {
		return nil, 0, LPInfeasible
	}
	switch w.solveCurrent() {
	case wsInfeasible:
		return nil, 0, LPInfeasible
	case wsUnbounded, wsStuck:
		return nil, 0, LPUnbounded
	}
	x = make([]float64, len(c))
	w.extractX(x)
	return x, w.objValue(x), LPOptimal
}

// BruteForce enumerates all 2^n assignments and returns the optimum: the
// reference oracle Solve is checked against, for small n only.
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
