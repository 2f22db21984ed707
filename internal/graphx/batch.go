package graphx

// Payload kinds, their columns and batch kernels for the graph workloads.
// Each kernel is the vectorized twin of a row compute function in
// pagerank.go / stream.go / svdpp.go and must stay observationally
// identical to it: same records, same order, bit-equal floats (identical
// accumulation order). Kernels type-assert their input columns and
// return nil to decline, which drops the partition back onto the row
// escape hatch — so correctness never depends on a kernel firing.

import (
	"blaze/internal/dataflow"
)

func init() {
	dataflow.RegisterKind(AdjListKind{})
	dataflow.RegisterKind(VertexRankKind{})
	dataflow.RegisterKind(FactorsKind{})
}

// The payload columns: an adjacency list, a rank plus an adjacency list
// (the lead), and a factor vector per record.
type (
	adjListColumn    = dataflow.Ragged[int64, AdjList, AdjListKind]
	vertexRankColumn = dataflow.Ragged[int64, VertexRank, VertexRankKind]
	factorsColumn    = dataflow.Ragged[float64, Factors, FactorsKind]
)

// AdjListKind flattens AdjList values.
type AdjListKind struct{}

func (AdjListKind) Name() string                       { return "graphx.AdjList" }
func (AdjListKind) HasLead() bool                      { return false }
func (AdjListKind) Box(_ float64, s []int64) AdjList   { return AdjList{Dsts: s} }
func (AdjListKind) Unbox(v AdjList) (float64, []int64) { return 0, v.Dsts }

// VertexRankKind flattens VertexRank values, the rank as the lead.
type VertexRankKind struct{}

func (VertexRankKind) Name() string                          { return "graphx.VertexRank" }
func (VertexRankKind) HasLead() bool                         { return true }
func (VertexRankKind) Box(r float64, s []int64) VertexRank   { return VertexRank{Adj: s, Rank: r} }
func (VertexRankKind) Unbox(v VertexRank) (float64, []int64) { return v.Rank, v.Adj }

// FactorsKind flattens Factors values.
type FactorsKind struct{}

func (FactorsKind) Name() string                         { return "graphx.Factors" }
func (FactorsKind) HasLead() bool                        { return false }
func (FactorsKind) Box(_ float64, s []float64) Factors   { return Factors{V: s} }
func (FactorsKind) Unbox(v Factors) (float64, []float64) { return 0, v.V }

// --- PageRank kernels --------------------------------------------------

// rankInitKernel vectorizes the rank-graph bootstrap Map: adjacency in,
// VertexRank{Adj, Rank: 1} out. The row Map returns a non-nil slice, so
// the output batch is always NonNil.
func rankInitKernel() dataflow.BatchFunc {
	return func(_ int, ins []*dataflow.Batch) *dataflow.Batch {
		in := ins[0]
		out := dataflow.NewBatch(in.Len())
		out.NonNil = true
		if in.Len() == 0 {
			return out
		}
		ac, ok := in.Col.(*adjListColumn)
		if !ok {
			return nil
		}
		oc := dataflow.NewRagged(VertexRankKind{}, in.Len())
		out.Col = oc
		out.Keys = append(out.Keys, in.Keys...)
		for range in.Keys {
			oc.Lead = append(oc.Lead, 1)
		}
		oc.Flat = dataflow.Append(oc.Flat, ac.Flat...)
		oc.Off = append(oc.Off[:0], ac.Off...)
		return out
	}
}

// contribsKernel vectorizes the contributions FlatMap: one float64
// record per out-edge, share = rank/degree, in edge order. The row
// FlatMap yields nil for an empty result, so NonNil tracks emptiness.
func contribsKernel() dataflow.BatchFunc {
	return func(_ int, ins []*dataflow.Batch) *dataflow.Batch {
		in := ins[0]
		if in.Len() == 0 {
			return dataflow.NewBatch(0) // row FlatMap appends nothing: nil
		}
		vc, ok := in.Col.(*vertexRankColumn)
		if !ok {
			return nil
		}
		out := dataflow.NewBatch(len(vc.Flat))
		oc := dataflow.NewDense[float64](len(vc.Flat))
		out.Col = oc
		for i := range vc.Lead {
			lo, hi := vc.Off[i], vc.Off[i+1]
			if lo == hi {
				continue
			}
			share := vc.Lead[i] / float64(hi-lo)
			for _, dst := range vc.Flat[lo:hi] {
				out.Keys = append(out.Keys, dst)
				oc.Vals = append(oc.Vals, share)
			}
		}
		out.NonNil = len(out.Keys) > 0
		return out
	}
}

// rankUpdateKernel vectorizes the per-iteration Zip of the rank graph
// with the contribution sums: rank' = reset + (1-reset)*sum, adjacency
// carried through unchanged.
func rankUpdateKernel(resetProb float64) dataflow.BatchFunc {
	return func(_ int, ins []*dataflow.Batch) *dataflow.Batch {
		gs, ss := ins[0], ins[1]
		sum, ok := f64Map(ss)
		if !ok {
			return nil
		}
		out := dataflow.NewBatch(gs.Len())
		out.NonNil = true // row Zip body returns make([]Record, len(gs))
		if gs.Len() == 0 {
			return out
		}
		vc, ok := gs.Col.(*vertexRankColumn)
		if !ok {
			out.Release()
			return nil
		}
		oc := dataflow.NewRagged(VertexRankKind{}, gs.Len())
		out.Col = oc
		out.Keys = append(out.Keys, gs.Keys...)
		oc.Flat = dataflow.Append(oc.Flat, vc.Flat...)
		oc.Off = append(oc.Off[:0], vc.Off...)
		for _, k := range gs.Keys {
			s := 0.0
			if sv, ok := sum[k]; ok {
				s = sv
			}
			oc.Lead = append(oc.Lead, resetProb+(1-resetProb)*s)
		}
		return out
	}
}

// rankCarryKernel vectorizes the window-boundary Zip of the drifted
// adjacency with the previous window's rank graph: vertices keep their
// carried rank (default 1), edges come from the new adjacency.
func rankCarryKernel() dataflow.BatchFunc {
	return func(_ int, ins []*dataflow.Batch) *dataflow.Batch {
		as, cs := ins[0], ins[1]
		prev := make(map[int64]float64, cs.Len())
		if cs.Len() > 0 {
			pc, ok := cs.Col.(*vertexRankColumn)
			if !ok {
				return nil
			}
			for i, k := range cs.Keys {
				prev[k] = pc.Lead[i]
			}
		}
		out := dataflow.NewBatch(as.Len())
		out.NonNil = true // row Zip body returns make([]Record, len(as))
		if as.Len() == 0 {
			return out
		}
		ac, ok := as.Col.(*adjListColumn)
		if !ok {
			out.Release()
			return nil
		}
		oc := dataflow.NewRagged(VertexRankKind{}, as.Len())
		out.Col = oc
		out.Keys = append(out.Keys, as.Keys...)
		oc.Flat = dataflow.Append(oc.Flat, ac.Flat...)
		oc.Off = append(oc.Off[:0], ac.Off...)
		for _, k := range as.Keys {
			rank := 1.0
			if r, ok := prev[k]; ok {
				rank = r
			}
			oc.Lead = append(oc.Lead, rank)
		}
		return out
	}
}

// f64Map indexes a float64 batch by key (the columnar vertexMap). It
// reports false when the batch holds a non-float64 column.
func f64Map(b *dataflow.Batch) (map[int64]float64, bool) {
	m := make(map[int64]float64, b.Len())
	if b.Len() == 0 {
		return m, true
	}
	fc, ok := b.Col.(*dataflow.Dense[float64])
	if !ok {
		return nil, false
	}
	for i, k := range b.Keys {
		m[k] = fc.Vals[i]
	}
	return m, true
}

// --- SVD++ kernels -----------------------------------------------------

// factorsStepKernel vectorizes the item-factor Zip: each factor vector
// is copied and, when a gradient exists for its key, stepped by
// learnRate in place — the same order of operations as the row closure.
// Its first input, the item factors, is columnar when a cached block of
// them is read back decoded (real bytes); the gradients, a shuffle of a
// row function's output, arrive in row form and are columnarized.
func factorsStepKernel(learnRate float64) dataflow.BatchFunc {
	return func(_ int, ins []*dataflow.Batch) *dataflow.Batch {
		fs, gs := ins[0], ins[1]
		var gc *factorsColumn
		if gs.Len() > 0 {
			var ok bool
			gc, ok = gs.Col.(*factorsColumn)
			if !ok {
				return nil
			}
		}
		grad := make(map[int64]int, gs.Len())
		for i, k := range gs.Keys {
			grad[k] = i
		}
		out := dataflow.NewBatch(fs.Len())
		out.NonNil = true // row Zip body returns make([]Record, len(fs))
		if fs.Len() == 0 {
			return out
		}
		fc, ok := fs.Col.(*factorsColumn)
		if !ok {
			out.Release()
			return nil
		}
		oc := dataflow.NewRagged(FactorsKind{}, fs.Len())
		out.Col = oc
		for i, k := range fs.Keys {
			lo, hi := fc.Off[i], fc.Off[i+1]
			dlo := len(oc.Flat)
			oc.Flat = dataflow.Append(oc.Flat, fc.Flat[lo:hi]...)
			oc.Off = append(oc.Off, int32(len(oc.Flat)))
			out.Keys = append(out.Keys, k)
			if j, ok := grad[k]; ok {
				glo := gc.Off[j]
				nv := oc.Flat[dlo:]
				g := gc.Flat[glo:gc.Off[j+1]]
				for d := range nv {
					nv[d] += learnRate * g[d]
				}
			}
		}
		return out
	}
}
