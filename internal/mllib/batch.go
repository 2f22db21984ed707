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
		switch dim {
		// Low-dimensional points get unrolled distance loops over dense
		// center coordinates. The float association matches the generic
		// sweep exactly (d0*d0 + d1*d1 + ... equals the sequential
		// d += diff*diff because the running sum starts at +0), so the
		// fast paths stay bit-identical to the row closure.
		case 2:
			if !statsDim2(pc, ps.Len(), ctrs, accSum, accN) {
				return nil
			}
		case 4:
			if !statsDim4(pc, ps.Len(), ctrs, accSum, accN) {
				return nil
			}
		default:
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

// statsDim2 is the unrolled assignment sweep for 2-D points. Reports
// false on a ragged point so the kernel declines the whole partition,
// exactly like the generic sweep.
func statsDim2(pc *vectorColumn, n int, ctrs [][]float64, accSum, accN []float64) bool {
	// Compact the present centers into dense parallel arrays. Scanning
	// them in ascending original order with strict less-than keeps the
	// winner identical to the generic nil-skipping sweep.
	var c0, c1 []float64
	var orig []int
	for c, ctr := range ctrs {
		if ctr != nil {
			c0 = append(c0, ctr[0])
			c1 = append(c1, ctr[1])
			orig = append(orig, c)
		}
	}
	flat := pc.Flat
	for i := 0; i < n; i++ {
		base := pc.Off[i]
		if pc.Off[i+1]-base != 2 {
			return false
		}
		x0, x1 := flat[base], flat[base+1]
		best, bestD := 0, math.Inf(1)
		for c := range c0 {
			d0 := x0 - c0[c]
			d1 := x1 - c1[c]
			d := d0*d0 + d1*d1
			if d < bestD {
				best, bestD = orig[c], d
			}
		}
		accSum[best*2] += x0
		accSum[best*2+1] += x1
		accN[best]++
	}
	return true
}

// statsDim4 is the unrolled assignment sweep for 4-D points.
func statsDim4(pc *vectorColumn, n int, ctrs [][]float64, accSum, accN []float64) bool {
	var cd []float64
	var orig []int
	for c, ctr := range ctrs {
		if ctr != nil {
			cd = append(cd, ctr[0], ctr[1], ctr[2], ctr[3])
			orig = append(orig, c)
		}
	}
	flat := pc.Flat
	for i := 0; i < n; i++ {
		base := pc.Off[i]
		if pc.Off[i+1]-base != 4 {
			return false
		}
		x0, x1, x2, x3 := flat[base], flat[base+1], flat[base+2], flat[base+3]
		best, bestD := 0, math.Inf(1)
		for c := range orig {
			d0 := x0 - cd[c*4]
			d1 := x1 - cd[c*4+1]
			d2 := x2 - cd[c*4+2]
			d3 := x3 - cd[c*4+3]
			d := d0*d0 + d1*d1 + d2*d2 + d3*d3
			if d < bestD {
				best, bestD = orig[c], d
			}
		}
		accSum[best*4] += x0
		accSum[best*4+1] += x1
		accSum[best*4+2] += x2
		accSum[best*4+3] += x3
		accN[best]++
	}
	return true
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
