package ilp

import (
	"math"
	"math/rand"
)

// BenchProblem builds a deterministic Blaze-shaped ILP over the given
// number of partitions: 3 variables per partition (memory / disk /
// unpersist), a "pick exactly one state" equality row per partition, and
// memory and disk capacity rows sized so both constraints bind (~40% of
// total demand fits in memory, ~80% on disk). This is the instance shape
// internal/core emits for the disk-constrained case, shared by this
// package's tests and benchmarks and by bench/'s ilp layer so their
// numbers are comparable.
func BenchProblem(parts int, seed int64) Problem {
	rng := rand.New(rand.NewSource(seed))
	n := parts * 3
	p := Problem{C: make([]float64, n)}
	memRow := make([]float64, n)
	diskRow := make([]float64, n)
	var totalSize float64
	for i := 0; i < parts; i++ {
		size := 1024 * (1 + rng.ExpFloat64()*4)
		costD := math.Round(rng.Float64()*50 + 1)
		costR := math.Round(rng.Float64()*150 + 1)
		p.C[3*i+1] = costD
		p.C[3*i+2] = costR
		memRow[3*i] = size
		diskRow[3*i+1] = size
		totalSize += size
		row := make([]float64, n)
		row[3*i], row[3*i+1], row[3*i+2] = 1, 1, 1
		p.Constraints = append(p.Constraints, Constraint{Coeffs: row, Rel: EQ, RHS: 1})
	}
	p.Constraints = append(p.Constraints,
		Constraint{Coeffs: memRow, Rel: LE, RHS: totalSize * 0.4},
		Constraint{Coeffs: diskRow, Rel: LE, RHS: totalSize * 0.8})
	return p
}
