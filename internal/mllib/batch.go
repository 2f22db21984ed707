package mllib

// Payload kinds and batch kernels for the ML workloads. Each
// kernel is the vectorized twin of a row compute function in kmeans.go
// and must stay observationally identical to it: same records,
// same order, bit-equal floats (identical accumulation order). Kernels
// type-assert their input columns and return nil to decline, dropping
// the partition back onto the row escape hatch.

import (
	"math"

	"blaze/internal/dataflow"
)

func init() {
	dataflow.RegisterKind(VectorKind{})
	dataflow.RegisterKind(SumCountKind{})
}

// vectorColumn holds the points and the centroids.
type vectorColumn = dataflow.Ragged[float64, Vector, VectorKind]

// VectorKind flattens Vector values.
type VectorKind struct{}

func (VectorKind) Name() string                        { return "mllib.Vector" }
func (VectorKind) HasLead() bool                       { return false }
func (VectorKind) Box(_ float64, s []float64) Vector   { return Vector{V: s} }
func (VectorKind) Unbox(v Vector) (float64, []float64) { return 0, v.V }

// SumCountKind flattens the k-means statistics, the count as the lead.
type SumCountKind struct{}

func (SumCountKind) Name() string                          { return "mllib.sumCount" }
func (SumCountKind) HasLead() bool                         { return true }
func (SumCountKind) Box(n float64, s []float64) sumCount   { return sumCount{Sum: s, N: n} }
func (SumCountKind) Unbox(v sumCount) (float64, []float64) { return v.N, v.Sum }

// --- k-means kernels ---------------------------------------------------

// statsKernel vectorizes the assignment Barrier: every point joins its
// nearest centroid's running sum, accumulated in point order into dense
// per-cluster arrays — the same accumulation order as the row closure's
// map of *sumCount, so the statistics are bit-equal. Emits clusters
// 0..k-1 that received points, like the row closure's ordered sweep.
func statsKernel(k int) dataflow.BatchFunc {
	return func(_ int, ins []*dataflow.Batch) *dataflow.Batch {
		ps, cs := ins[0], ins[1]
		if ps.Len() == 0 {
			return dataflow.NewBatch(0) // row closure appends nothing: nil
		}
		pc, okP := ps.Col.(*vectorColumn)
		ctrs, okC := centerSlices(cs, k)
		if !okP || !okC {
			return nil
		}
		dim := int(pc.Off[1] - pc.Off[0])
		accSum := make([]float64, k*dim)
		accN := make([]float64, k)
		for i := 0; i < ps.Len(); i++ {
			lo, hi := pc.Off[i], pc.Off[i+1]
			if int(hi-lo) != dim {
				return nil // ragged points: let the row path handle it
			}
			x := pc.Flat[lo:hi]
			best, bestD := 0, math.Inf(1)
			for c, ctr := range ctrs {
				if ctr == nil {
					continue
				}
				d := 0.0
				for j := range x {
					diff := x[j] - ctr[j]
					d += diff * diff
				}
				if d < bestD {
					best, bestD = c, d
				}
			}
			sum := accSum[best*dim : best*dim+dim]
			for j := range x {
				sum[j] += x[j]
			}
			accN[best]++
		}
		out := dataflow.NewBatch(k)
		oc := dataflow.NewRagged(SumCountKind{}, k)
		out.Col = oc
		for c := 0; c < k; c++ {
			if accN[c] > 0 {
				out.Keys = append(out.Keys, int64(c))
				oc.Lead = append(oc.Lead, accN[c])
				oc.Flat = append(oc.Flat, accSum[c*dim:c*dim+dim]...)
				oc.Off = append(oc.Off, int32(len(oc.Flat)))
			}
		}
		out.NonNil = len(out.Keys) > 0
		return out
	}
}

// wcssKernel vectorizes the within-cluster-sum-of-squares Barrier: one
// float64 record per partition holding the partial total.
func wcssKernel(k int) dataflow.BatchFunc {
	return func(_ int, ins []*dataflow.Batch) *dataflow.Batch {
		ps, cs := ins[0], ins[1]
		var pc *vectorColumn
		if ps.Len() > 0 {
			var ok bool
			pc, ok = ps.Col.(*vectorColumn)
			if !ok {
				return nil
			}
		}
		ctrs, ok := centerSlices(cs, k)
		if !ok {
			return nil
		}
		total := 0.0
		for i := 0; i < ps.Len(); i++ {
			x := pc.Flat[pc.Off[i]:pc.Off[i+1]]
			best := math.Inf(1)
			for _, ctr := range ctrs {
				if ctr == nil {
					continue
				}
				d := 0.0
				for j := range x {
					diff := x[j] - ctr[j]
					d += diff * diff
				}
				if d < best {
					best = d
				}
			}
			total += best
		}
		out := dataflow.NewBatch(1)
		out.NonNil = true // row closure returns a one-record slice
		oc := dataflow.NewDense[float64](1)
		out.Col = oc
		out.Keys = append(out.Keys, 0)
		oc.Vals = append(oc.Vals, total)
		return out
	}
}

// centerSlices indexes a broadcast centroid batch into a dense array of
// k coordinate slices (nil for absent clusters), mirroring the row
// closures' centers table. It reports false when the batch is not a
// vector column or a key falls outside [0, k) — cases the kernels
// decline rather than diverge from the row path on.
func centerSlices(cs *dataflow.Batch, k int) ([][]float64, bool) {
	ctrs := make([][]float64, k)
	if cs.Len() == 0 {
		return ctrs, true
	}
	cc, ok := cs.Col.(*vectorColumn)
	if !ok {
		return nil, false
	}
	for i, key := range cs.Keys {
		if key < 0 || key >= int64(k) {
			return nil, false
		}
		ctrs[key] = cc.Flat[cc.Off[i]:cc.Off[i+1]]
	}
	return ctrs, true
}
