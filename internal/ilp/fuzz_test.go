package ilp

import (
	"math"
	"math/rand"
	"testing"
)

// This file is the differential-testing harness for the bounded-variable
// solver: every sampled problem is solved by the new warm-started branch
// and bound AND by at least one independent implementation — BruteForce
// (exhaustive, the ground truth) for small n, the dense ReferenceSolve
// and denseSolveLP (the pre-rewrite solver, kept in dense_test.go exactly for
// this purpose) for everything. Objectives must agree to 1e-6 and every
// returned assignment must satisfy the constraints. The seed corpus runs
// on every CI build (go test -run Fuzz).

// fuzzProblem derives a random ILP from the fuzz inputs. kind selects
// the generator: even kinds produce general mixed-relation problems,
// odd kinds produce Blaze-shaped instances (per-partition "pick one of
// memory/disk/unpersist" equality rows plus capacity rows) — the
// structure internal/core actually emits.
func fuzzProblem(seed int64, n, m, kind uint8) Problem {
	rng := rand.New(rand.NewSource(seed))
	if kind%2 == 1 {
		parts := 1 + int(n)%6
		nv := parts * 3
		p := Problem{C: make([]float64, nv)}
		memRow := make([]float64, nv)
		diskRow := make([]float64, nv)
		for i := 0; i < parts; i++ {
			p.C[3*i+1] = math.Round(rng.Float64() * 100)
			p.C[3*i+2] = math.Round(rng.Float64() * 100)
			size := 1 + math.Round(rng.Float64()*9)
			memRow[3*i] = size
			diskRow[3*i+1] = size
			row := make([]float64, nv)
			row[3*i], row[3*i+1], row[3*i+2] = 1, 1, 1
			p.Constraints = append(p.Constraints, Constraint{Coeffs: row, Rel: EQ, RHS: 1})
		}
		p.Constraints = append(p.Constraints,
			Constraint{Coeffs: memRow, Rel: LE, RHS: math.Round(rng.Float64() * 20)})
		if kind%4 == 3 {
			p.Constraints = append(p.Constraints,
				Constraint{Coeffs: diskRow, Rel: LE, RHS: math.Round(rng.Float64() * 25)})
		}
		return p
	}
	nv := 1 + int(n)%10
	nc := 1 + int(m)%4
	p := Problem{C: make([]float64, nv)}
	for i := range p.C {
		p.C[i] = math.Round(rng.Float64()*40-20) / 2
	}
	for j := 0; j < nc; j++ {
		c := Constraint{
			Coeffs: make([]float64, nv),
			Rel:    Relation(rng.Intn(3)),
			RHS:    math.Round(rng.Float64()*14) - 2,
		}
		for i := range c.Coeffs {
			c.Coeffs[i] = math.Round(rng.Float64()*8) - 2
		}
		p.Constraints = append(p.Constraints, c)
	}
	return p
}

// FuzzSolveDifferential checks the bounded-variable branch and bound
// against BruteForce (when n fits) and the dense reference solver on the
// same instance: identical feasibility verdicts and equal objectives.
func FuzzSolveDifferential(f *testing.F) {
	for s := int64(1); s <= 12; s++ {
		f.Add(s, uint8(s), uint8(s%4), uint8(s%6))
	}
	f.Add(int64(99), uint8(12), uint8(3), uint8(1)) // Blaze shape, mem row only
	f.Add(int64(77), uint8(17), uint8(2), uint8(3)) // Blaze shape, mem+disk rows
	f.Fuzz(func(t *testing.T, seed int64, n, m, kind uint8) {
		p := fuzzProblem(seed, n, m, kind)
		got, gotErr := Solve(p, Options{})
		ref, refErr := ReferenceSolve(p, Options{})
		if (gotErr == nil) != (refErr == nil) {
			t.Fatalf("feasibility disagrees: bounded err=%v dense err=%v\nproblem %+v", gotErr, refErr, p)
		}
		if gotErr == nil {
			if !feasible(p, got.X) {
				t.Fatalf("bounded solver returned infeasible assignment %v\nproblem %+v", got.X, p)
			}
			if got.Optimal && ref.Optimal && math.Abs(got.Objective-ref.Objective) > 1e-6 {
				t.Fatalf("objective %v != dense reference %v\nproblem %+v", got.Objective, ref.Objective, p)
			}
		}
		if len(p.C) <= 14 {
			want, wantErr := BruteForce(p)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("feasibility disagrees with brute force: err=%v brute err=%v\nproblem %+v", gotErr, wantErr, p)
			}
			if gotErr == nil && got.Optimal && math.Abs(got.Objective-want.Objective) > 1e-6 {
				t.Fatalf("objective %v != brute force %v\nproblem %+v", got.Objective, want.Objective, p)
			}
		}
	})
}

// FuzzSimplexDifferential checks one-shot LP relaxations: the
// bounded-variable simplex and the dense two-phase simplex must agree on
// status and optimal objective.
func FuzzSimplexDifferential(f *testing.F) {
	for s := int64(1); s <= 10; s++ {
		f.Add(s, uint8(2*s), uint8(s%5), uint8(s%4))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, m, kind uint8) {
		p := fuzzProblem(seed, n, m, kind)
		x1, o1, s1 := solveLP(p.C, p.Constraints)
		_, o2, s2 := denseSolveLP(p.C, p.Constraints)
		if s1 != s2 {
			t.Fatalf("LP status %v != dense %v\nproblem %+v", s1, s2, p)
		}
		if s1 == LPOptimal {
			if math.Abs(o1-o2) > 1e-6 {
				t.Fatalf("LP objective %v != dense %v\nproblem %+v", o1, o2, p)
			}
			for j, v := range x1 {
				if v < -1e-9 || v > 1+1e-9 {
					t.Fatalf("x[%d] = %v outside [0,1]", j, v)
				}
			}
		}
	})
}

// FuzzWarmStartBounds drives one workspace through a random fix/unfix
// sequence — exactly what branch and bound does — checking every
// intermediate optimum against a cold dense solve of the equivalent
// fixed problem. This is the regression net for the warm-start state
// machine (stale bases, bound flips, infeasible-refresh reuse).
func FuzzWarmStartBounds(f *testing.F) {
	for s := int64(1); s <= 10; s++ {
		f.Add(s, uint8(3*s), uint8(s%4), uint8(s%6), uint8(7*s))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, m, kind, steps uint8) {
		p := fuzzProblem(seed, n, m, kind)
		nv := len(p.C)
		w := newWorkspace(p)
		if w == nil {
			t.Fatal("workspace construction failed on generated problem")
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		fixed := make([]int8, nv)
		for i := range fixed {
			fixed[i] = -1
		}
		nSteps := 4 + int(steps)%28
		for step := 0; step < nSteps; step++ {
			j := rng.Intn(nv)
			v := int8(rng.Intn(3)) - 1
			fixed[j] = v
			if v == -1 {
				w.setBounds(j, 0, 1)
			} else {
				w.setBounds(j, float64(v), float64(v))
			}
			st := w.solveCurrent()
			if st == wsStuck {
				continue // no claim to check; B&B handles this separately
			}
			_, dObj, dSt := denseSolveFixed(p, fixed)
			if (st == wsOptimal) != (dSt == LPOptimal) {
				t.Fatalf("step %d: warm status %v, dense %v\nfixed=%v problem %+v", step, st, dSt, fixed, p)
			}
			if st == wsOptimal {
				x := make([]float64, nv)
				w.extractX(x)
				if o := w.objValue(x); math.Abs(o-dObj) > 1e-6 {
					t.Fatalf("step %d: warm obj %v != dense %v\nfixed=%v x=%v problem %+v", step, o, dObj, fixed, x, p)
				}
			}
		}
	})
}
