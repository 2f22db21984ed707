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
}

// The payload columns: an adjacency list, and a rank plus an adjacency
// list (the lead), per record.
type (
	adjListColumn    = dataflow.Ragged[int64, AdjList, AdjListKind]
	vertexRankColumn = dataflow.Ragged[int64, VertexRank, VertexRankKind]
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

// --- PageRank kernels --------------------------------------------------

// rankInitKernel vectorizes the rank-graph bootstrap Map: adjacency in,
// VertexRank{Adj, Rank: 1} out. The row Map returns a non-nil slice, so
// the output batch is always NonNil. The output borrows the adjacency's
// keys and edges (dataflow.Borrow): only the ranks are new. It and the
// two Zip kernels below decline an empty input without a column to the
// row body.
func rankInitKernel() dataflow.BatchFunc {
	return func(_ int, ins []*dataflow.Batch) *dataflow.Batch {
		in := ins[0]
		if _, ok := in.Col.(*adjListColumn); !ok {
			return nil
		}
		out, oc := dataflow.Borrow(VertexRankKind{}, in)
		out.NonNil = true
		for range out.Keys {
			oc.Lead = append(oc.Lead, 1)
		}
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
// carried through unchanged — borrowed from the previous graph, whose
// own keys and edges are borrowed from the adjacency, so every
// iteration's graph shares the one adjacency and allocates its ranks
// only.
func rankUpdateKernel(resetProb float64) dataflow.BatchFunc {
	return func(_ int, ins []*dataflow.Batch) *dataflow.Batch {
		gs, ss := ins[0], ins[1]
		sums, ok := f64Vals(ss)
		if !ok {
			return nil
		}
		if _, ok := gs.Col.(*vertexRankColumn); !ok {
			return nil
		}
		out, oc := dataflow.Borrow(VertexRankKind{}, gs)
		out.NonNil = true // row Zip body returns make([]Record, len(gs))
		sum := dataflow.IndexKeys(ss.Keys)
		for _, k := range out.Keys {
			s := 0.0
			if j, ok := sum.Find(k); ok {
				s = sums[j]
			}
			oc.Lead = append(oc.Lead, resetProb+(1-resetProb)*s)
		}
		sum.Release()
		return out
	}
}

// rankCarryKernel vectorizes the window-boundary Zip of the drifted
// adjacency with the previous window's rank graph: vertices keep their
// carried rank (default 1), edges come from the new adjacency, borrowed
// like rankInitKernel's.
func rankCarryKernel() dataflow.BatchFunc {
	return func(_ int, ins []*dataflow.Batch) *dataflow.Batch {
		as, cs := ins[0], ins[1]
		var ranks []float64
		if cs.Len() > 0 {
			pc, ok := cs.Col.(*vertexRankColumn)
			if !ok {
				return nil
			}
			ranks = pc.Lead
		}
		if _, ok := as.Col.(*adjListColumn); !ok {
			return nil
		}
		out, oc := dataflow.Borrow(VertexRankKind{}, as)
		out.NonNil = true // row Zip body returns make([]Record, len(as))
		prev := dataflow.IndexKeys(cs.Keys)
		for _, k := range out.Keys {
			rank := 1.0
			if j, ok := prev.Find(k); ok {
				rank = ranks[j]
			}
			oc.Lead = append(oc.Lead, rank)
		}
		prev.Release()
		return out
	}
}

// f64Vals returns a float64 batch's values, for a lookup by key through
// dataflow.IndexKeys over its Keys (the columnar vertexMap: a repeated
// key finds its last value, as the row map's last store wins). It reports
// false when the batch holds a non-float64 column.
func f64Vals(b *dataflow.Batch) ([]float64, bool) {
	if b.Len() == 0 {
		return nil, true
	}
	fc, ok := b.Col.(*dataflow.Dense[float64])
	if !ok {
		return nil, false
	}
	return fc.Vals, true
}
