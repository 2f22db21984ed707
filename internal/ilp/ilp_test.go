package ilp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSimplexSimple(t *testing.T) {
	// minimize -x - y subject to x + y <= 1.5 → optimum at a vertex with
	// x+y = 1.5 (e.g. x=1, y=0.5), objective -1.5.
	x, obj, st := solveLP([]float64{-1, -1}, []Constraint{
		{Coeffs: []float64{1, 1}, Rel: LE, RHS: 1.5},
	})
	if st != LPOptimal {
		t.Fatalf("status = %v", st)
	}
	if math.Abs(obj-(-1.5)) > 1e-6 {
		t.Fatalf("objective = %v, want -1.5 (x=%v)", obj, x)
	}
}

func TestSimplexEquality(t *testing.T) {
	// minimize x + 2y subject to x + y == 1 → x=1, y=0, obj=1.
	x, obj, st := solveLP([]float64{1, 2}, []Constraint{
		{Coeffs: []float64{1, 1}, Rel: EQ, RHS: 1},
	})
	if st != LPOptimal {
		t.Fatalf("status = %v", st)
	}
	if math.Abs(obj-1) > 1e-6 || math.Abs(x[0]-1) > 1e-6 {
		t.Fatalf("x = %v obj = %v, want x0=1 obj=1", x, obj)
	}
}

func TestSimplexInfeasible(t *testing.T) {
	// x >= 2 is impossible with x <= 1.
	_, _, st := solveLP([]float64{1}, []Constraint{
		{Coeffs: []float64{1}, Rel: GE, RHS: 2},
	})
	if st != LPInfeasible {
		t.Fatalf("status = %v, want infeasible", st)
	}
}

func TestSimplexNegativeRHS(t *testing.T) {
	// minimize x subject to -x <= -0.5  (i.e. x >= 0.5).
	x, obj, st := solveLP([]float64{1}, []Constraint{
		{Coeffs: []float64{-1}, Rel: LE, RHS: -0.5},
	})
	if st != LPOptimal {
		t.Fatalf("status = %v", st)
	}
	if math.Abs(obj-0.5) > 1e-6 {
		t.Fatalf("x = %v obj = %v, want 0.5", x, obj)
	}
}

func TestSolveBinaryKnapsackShape(t *testing.T) {
	// minimize -(3a + 4b + 5c) s.t. 2a + 3b + 4c <= 5 → best is a+b (7).
	p := Problem{
		C: []float64{-3, -4, -5},
		Constraints: []Constraint{
			{Coeffs: []float64{2, 3, 4}, Rel: LE, RHS: 5},
		},
	}
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Optimal {
		t.Fatal("expected provably optimal solution")
	}
	if math.Abs(s.Objective-(-7)) > 1e-6 {
		t.Fatalf("objective = %v, want -7 (x=%v)", s.Objective, s.X)
	}
}

func TestSolvePartitionStateShape(t *testing.T) {
	// A miniature Blaze instance: 2 partitions, variables
	// (m1,d1,u1,m2,d2,u2), m_i+d_i+u_i = 1, size 10 each, capacity 10.
	// Costs: partition 1 is expensive to recover, partition 2 cheap, so
	// partition 1 should take the memory slot.
	p := Problem{
		C: []float64{0, 50, 100, 0, 5, 2},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1, 1, 0, 0, 0}, Rel: EQ, RHS: 1},
			{Coeffs: []float64{0, 0, 0, 1, 1, 1}, Rel: EQ, RHS: 1},
			{Coeffs: []float64{10, 0, 0, 10, 0, 0}, Rel: LE, RHS: 10},
		},
	}
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 0, 0, 0, 0, 1} // p1 in memory; p2 unpersisted (cost 2)
	for i, v := range want {
		if s.X[i] != v {
			t.Fatalf("X = %v, want %v (objective %v)", s.X, want, s.Objective)
		}
	}
}

func TestSolveInfeasible(t *testing.T) {
	p := Problem{
		C: []float64{1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1}, Rel: GE, RHS: 3}, // max achievable is 2
		},
	}
	if _, err := Solve(p, Options{}); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

// randomProblem builds a small random binary ILP that is always feasible
// (pure <= constraints with non-negative RHS admit x = 0).
func randomProblem(rng *rand.Rand, n, m int) Problem {
	p := Problem{C: make([]float64, n)}
	for i := range p.C {
		p.C[i] = math.Round(rng.Float64()*40-20) / 2
	}
	for j := 0; j < m; j++ {
		c := Constraint{Coeffs: make([]float64, n), Rel: LE, RHS: math.Round(rng.Float64() * 10)}
		for i := range c.Coeffs {
			c.Coeffs[i] = math.Round(rng.Float64() * 6)
		}
		p.Constraints = append(p.Constraints, c)
	}
	return p
}

// Property: branch and bound matches brute force on random instances.
func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(9)
		m := 1 + rng.Intn(3)
		p := randomProblem(rng, n, m)
		got, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := BruteForce(p)
		if err != nil {
			t.Fatalf("trial %d brute force: %v", trial, err)
		}
		if math.Abs(got.Objective-want.Objective) > 1e-6 {
			t.Fatalf("trial %d: B&B obj %v != brute force obj %v\nproblem: %+v",
				trial, got.Objective, want.Objective, p)
		}
		if !feasible(p, got.X) {
			t.Fatalf("trial %d: B&B returned infeasible assignment %v", trial, got.X)
		}
	}
}

// Property: with equality "pick one state" rows (the Blaze structure),
// B&B still matches brute force.
func TestSolveMatchesBruteForcePartitionStates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		parts := 2 + rng.Intn(3) // up to 4 partitions → 12 vars
		n := parts * 3
		p := Problem{C: make([]float64, n)}
		sizes := make([]float64, parts)
		for i := 0; i < parts; i++ {
			p.C[3*i] = 0
			p.C[3*i+1] = math.Round(rng.Float64() * 100) // disk cost
			p.C[3*i+2] = math.Round(rng.Float64() * 100) // recompute cost
			sizes[i] = 1 + math.Round(rng.Float64()*9)
			row := make([]float64, n)
			row[3*i], row[3*i+1], row[3*i+2] = 1, 1, 1
			p.Constraints = append(p.Constraints, Constraint{Coeffs: row, Rel: EQ, RHS: 1})
		}
		mem := make([]float64, n)
		for i := 0; i < parts; i++ {
			mem[3*i] = sizes[i]
		}
		cap := math.Round(rng.Float64() * 20)
		p.Constraints = append(p.Constraints, Constraint{Coeffs: mem, Rel: LE, RHS: cap})

		got, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := BruteForce(p)
		if err != nil {
			t.Fatalf("trial %d brute: %v", trial, err)
		}
		if math.Abs(got.Objective-want.Objective) > 1e-6 {
			t.Fatalf("trial %d: obj %v != %v", trial, got.Objective, want.Objective)
		}
	}
}

// Property: the knapsack solver matches the ILP formulation of the same
// knapsack.
func TestKnapsackMatchesILP(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(10)
		values := make([]float64, n)
		weights := make([]float64, n)
		for i := 0; i < n; i++ {
			values[i] = math.Round(rng.Float64() * 50)
			weights[i] = 1 + math.Round(rng.Float64()*9)
		}
		cap := math.Round(rng.Float64() * 25)
		_, total, _, _ := KnapsackSearch(values, weights, cap)

		p := Problem{C: make([]float64, n)}
		for i := range p.C {
			p.C[i] = -values[i]
		}
		p.Constraints = []Constraint{{Coeffs: weights, Rel: LE, RHS: cap}}
		s, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(total-(-s.Objective)) > 1e-6 {
			t.Fatalf("trial %d: knapsack %v != ILP %v (values=%v weights=%v cap=%v)",
				trial, total, -s.Objective, values, weights, cap)
		}
	}
}

// Property: knapsack selections always respect capacity.
func TestKnapsackRespectsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		values := make([]float64, n)
		weights := make([]float64, n)
		for i := 0; i < n; i++ {
			values[i] = rng.Float64() * 100
			weights[i] = rng.Float64() * 10
		}
		cap := rng.Float64() * 30
		chosen, _, _, _ := KnapsackSearch(values, weights, cap)
		w := 0.0
		for i, c := range chosen {
			if c && weights[i] > 0 {
				w += weights[i]
			}
		}
		return w <= cap+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKnapsackZeroWeightAlwaysTaken(t *testing.T) {
	chosen, total, _, _ := KnapsackSearch([]float64{5, 3}, []float64{0, 10}, 1)
	if !chosen[0] || chosen[1] {
		t.Fatalf("chosen = %v, want only the zero-weight item", chosen)
	}
	if total != 5 {
		t.Fatalf("total = %v, want 5", total)
	}
}

func TestKnapsackEmpty(t *testing.T) {
	chosen, total, _, _ := KnapsackSearch(nil, nil, 10)
	if len(chosen) != 0 || total != 0 {
		t.Fatalf("empty knapsack should be empty, got %v %v", chosen, total)
	}
}

// Regression for the truncation-flag bug: the old solver reported
// Optimal = nodes < maxNodes, so a search that ran to exhaustion using
// exactly its node budget was wrongly reported as truncated. Optimality
// must depend on whether unexplored work remained, not the counter.
func TestSolveOptimalAtExactNodeBudget(t *testing.T) {
	p := Problem{
		C: []float64{-3, -4, -5},
		Constraints: []Constraint{
			{Coeffs: []float64{2, 3, 4}, Rel: LE, RHS: 4},
		},
	}
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Optimal || s.Nodes < 2 {
		t.Fatalf("baseline solve: optimal=%v nodes=%d, want an exhausted multi-node search", s.Optimal, s.Nodes)
	}
	// Re-run with the budget set to exactly the nodes the search needs:
	// it completes on the last allowed node and must still be optimal.
	s2, err := Solve(p, Options{MaxNodes: s.Nodes})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Optimal {
		t.Fatalf("search completed exactly at the node budget but was reported truncated (nodes=%d)", s2.Nodes)
	}
	if math.Abs(s2.Objective-s.Objective) > 1e-9 {
		t.Fatalf("objective changed under exact budget: %v vs %v", s2.Objective, s.Objective)
	}
	// One node short must be reported as truncated (when a feasible
	// incumbent was still found).
	if s3, err := Solve(p, Options{MaxNodes: s.Nodes - 1}); err == nil && s3.Optimal {
		t.Fatalf("truncated search (%d of %d nodes) claimed optimality", s3.Nodes, s.Nodes)
	}
}

// KnapsackSearch reports its search effort, and its total is the value
// of its selection.
func TestKnapsackSearchAccounting(t *testing.T) {
	values := []float64{27, 2, 48, 1, 49, 28, 30, 33}
	weights := []float64{3, 4, 8, 8, 6, 6, 2, 5}
	chosen, total, nodes, exact := KnapsackSearch(values, weights, 7)
	if !exact {
		t.Fatal("small knapsack reported truncated search")
	}
	if nodes <= 0 {
		t.Fatalf("nontrivial knapsack reported %d nodes", nodes)
	}
	sum := 0.0
	for i, c := range chosen {
		if c {
			sum += values[i]
		}
	}
	if total != sum {
		t.Fatalf("reported total %v != value of the selection %v", total, sum)
	}
	// All-fits fast path: no search at all.
	_, _, nodes, exact = KnapsackSearch([]float64{1, 2}, []float64{1, 1}, 10)
	if nodes != 0 || !exact {
		t.Fatalf("trivial knapsack: nodes=%d exact=%v, want 0/true", nodes, exact)
	}
}

// The bounded solver must match the dense reference node-for-node on
// problems both solve to optimality (same pruning rule, same branch
// order), proving the rewrite changed the algebra, not the search.
func TestSolveMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(9)
		m := 1 + rng.Intn(3)
		p := randomProblem(rng, n, m)
		got, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ref, err := ReferenceSolve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d reference: %v", trial, err)
		}
		if math.Abs(got.Objective-ref.Objective) > 1e-6 {
			t.Fatalf("trial %d: bounded obj %v != dense obj %v\nproblem %+v",
				trial, got.Objective, ref.Objective, p)
		}
	}
}

// TestSolveBenchProblemNodes pins the search effort on the shared
// Blaze-shaped instances: the solver is deterministic, so the default
// node budget proves optimality in exactly these many nodes. A change
// that moves a count changed the search (pivot rule, branch order,
// pruning), not just its speed.
func TestSolveBenchProblemNodes(t *testing.T) {
	for _, tc := range []struct{ parts, nodes int }{
		{16, 67}, {32, 27}, {128, 1419}, {256, 3035},
	} {
		if tc.parts == 256 && testing.Short() {
			continue // ~15 s
		}
		sol, err := Solve(BenchProblem(tc.parts, int64(tc.parts)), Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", tc.parts, err)
		}
		if !sol.Optimal || sol.Nodes != tc.nodes {
			t.Errorf("n=%d: optimal=%v in %d nodes, want proven optimal in %d",
				tc.parts, sol.Optimal, sol.Nodes, tc.nodes)
		}
	}
}

// BenchmarkBranchAndBound times the exact solver on the full (m,d,u)
// formulation with a disk constraint: the bounded-variable warm-started
// solver against the dense reference it replaced (dense_test.go), at
// sizes where the latter is still tractable.
func BenchmarkBranchAndBound(b *testing.B) {
	for _, parts := range []int{8, 32} {
		prob := BenchProblem(parts, int64(parts))
		for _, solver := range []struct {
			name  string
			solve func(Problem, Options) (Solution, error)
		}{{"bounded", Solve}, {"dense", ReferenceSolve}} {
			b.Run(fmt.Sprintf("%s/n=%d", solver.name, parts), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := solver.solve(prob, Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func TestLPStatusString(t *testing.T) {
	if LPOptimal.String() != "optimal" || LPInfeasible.String() != "infeasible" || LPUnbounded.String() != "unbounded" {
		t.Fatal("status strings wrong")
	}
	if LPStatus(9).String() != "LPStatus(9)" {
		t.Fatal("unknown status string wrong")
	}
}
