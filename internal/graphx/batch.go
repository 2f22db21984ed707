package graphx

// Columnar payload columns and batch kernels for the graph workloads.
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
	dataflow.RegisterColumnType(AdjList{}, func(capHint int) dataflow.Column {
		return NewAdjListColumn(capHint)
	})
	dataflow.RegisterColumnType(VertexRank{}, func(capHint int) dataflow.Column {
		return NewVertexRankColumn(capHint)
	})
	dataflow.RegisterColumnType(Factors{}, func(capHint int) dataflow.Column {
		return NewFactorsColumn(capHint)
	})
}

// AdjListColumn stores AdjList values as a flattened struct-of-arrays:
// element i's destinations span Flat[Off[i]:Off[i+1]].
type AdjListColumn struct {
	Off  []int32
	Flat []int64
}

// NewAdjListColumn returns an empty adjacency column with pooled storage.
func NewAdjListColumn(capHint int) *AdjListColumn {
	c := &AdjListColumn{Off: dataflow.GetI32Slice(capHint + 1), Flat: dataflow.GetI64Slice(capHint)}
	c.Off = append(c.Off, 0)
	return c
}

func (c *AdjListColumn) Len() int { return len(c.Off) - 1 }

func (c *AdjListColumn) Value(i int) any {
	lo, hi := c.Off[i], c.Off[i+1]
	if lo == hi {
		return AdjList{}
	}
	out := make([]int64, hi-lo)
	copy(out, c.Flat[lo:hi])
	return AdjList{Dsts: out}
}

func (c *AdjListColumn) View(i int) any {
	return AdjList{Dsts: dataflow.Span(c.Flat, c.Off, i)}
}

func (c *AdjListColumn) Layout() (string, []dataflow.Array) {
	return "graphx.AdjList", []dataflow.Array{{Off: &c.Off}, {I64: &c.Flat}}
}

func (c *AdjListColumn) AppendValue(v any) bool {
	x, ok := v.(AdjList)
	if !ok {
		return false
	}
	c.Flat = append(c.Flat, x.Dsts...)
	c.Off = append(c.Off, int32(len(c.Flat)))
	return true
}

func (c *AdjListColumn) AppendFrom(src dataflow.Column, i int) bool {
	s, ok := src.(*AdjListColumn)
	if !ok {
		return false
	}
	c.Flat = append(c.Flat, s.Flat[s.Off[i]:s.Off[i+1]]...)
	c.Off = append(c.Off, int32(len(c.Flat)))
	return true
}

func (c *AdjListColumn) SizeAt(i int) int64 { return 24 + 8*int64(c.Off[i+1]-c.Off[i]) }

func (c *AdjListColumn) SizeBytes() int64 {
	return 24*int64(c.Len()) + 8*int64(len(c.Flat))
}

func (c *AdjListColumn) NewEmpty(capHint int) dataflow.Column { return NewAdjListColumn(capHint) }

func (c *AdjListColumn) Release() {
	dataflow.PutI32Slice(c.Off)
	dataflow.PutI64Slice(c.Flat)
	c.Off, c.Flat = nil, nil
}

// VertexRankColumn stores VertexRank values: a dense rank column plus the
// flattened adjacency.
type VertexRankColumn struct {
	Ranks   []float64
	AdjOff  []int32
	AdjFlat []int64
}

// NewVertexRankColumn returns an empty rank-graph column with pooled
// storage.
func NewVertexRankColumn(capHint int) *VertexRankColumn {
	c := &VertexRankColumn{
		Ranks:   dataflow.GetF64Slice(capHint),
		AdjOff:  dataflow.GetI32Slice(capHint + 1),
		AdjFlat: dataflow.GetI64Slice(capHint),
	}
	c.AdjOff = append(c.AdjOff, 0)
	return c
}

func (c *VertexRankColumn) Len() int { return len(c.Ranks) }

func (c *VertexRankColumn) Value(i int) any {
	lo, hi := c.AdjOff[i], c.AdjOff[i+1]
	var adj []int64
	if lo != hi {
		adj = make([]int64, hi-lo)
		copy(adj, c.AdjFlat[lo:hi])
	}
	return VertexRank{Adj: adj, Rank: c.Ranks[i]}
}

func (c *VertexRankColumn) View(i int) any {
	return VertexRank{Adj: dataflow.Span(c.AdjFlat, c.AdjOff, i), Rank: c.Ranks[i]}
}

func (c *VertexRankColumn) Layout() (string, []dataflow.Array) {
	return "graphx.VertexRank", []dataflow.Array{{F64: &c.Ranks}, {Off: &c.AdjOff}, {I64: &c.AdjFlat}}
}

func (c *VertexRankColumn) AppendValue(v any) bool {
	x, ok := v.(VertexRank)
	if !ok {
		return false
	}
	c.Ranks = append(c.Ranks, x.Rank)
	c.AdjFlat = append(c.AdjFlat, x.Adj...)
	c.AdjOff = append(c.AdjOff, int32(len(c.AdjFlat)))
	return true
}

func (c *VertexRankColumn) AppendFrom(src dataflow.Column, i int) bool {
	s, ok := src.(*VertexRankColumn)
	if !ok {
		return false
	}
	c.Ranks = append(c.Ranks, s.Ranks[i])
	c.AdjFlat = append(c.AdjFlat, s.AdjFlat[s.AdjOff[i]:s.AdjOff[i+1]]...)
	c.AdjOff = append(c.AdjOff, int32(len(c.AdjFlat)))
	return true
}

func (c *VertexRankColumn) SizeAt(i int) int64 {
	return 40 + 8*int64(c.AdjOff[i+1]-c.AdjOff[i])
}

func (c *VertexRankColumn) SizeBytes() int64 {
	return 40*int64(c.Len()) + 8*int64(len(c.AdjFlat))
}

func (c *VertexRankColumn) NewEmpty(capHint int) dataflow.Column { return NewVertexRankColumn(capHint) }

func (c *VertexRankColumn) Release() {
	dataflow.PutF64Slice(c.Ranks)
	dataflow.PutI32Slice(c.AdjOff)
	dataflow.PutI64Slice(c.AdjFlat)
	c.Ranks, c.AdjOff, c.AdjFlat = nil, nil, nil
}

// FactorsColumn stores Factors values as a flattened struct-of-arrays.
type FactorsColumn struct {
	Off  []int32
	Flat []float64
}

// NewFactorsColumn returns an empty factor column with pooled storage.
func NewFactorsColumn(capHint int) *FactorsColumn {
	c := &FactorsColumn{Off: dataflow.GetI32Slice(capHint + 1), Flat: dataflow.GetF64Slice(capHint)}
	c.Off = append(c.Off, 0)
	return c
}

func (c *FactorsColumn) Len() int { return len(c.Off) - 1 }

func (c *FactorsColumn) Value(i int) any {
	lo, hi := c.Off[i], c.Off[i+1]
	var v []float64
	if lo != hi {
		v = make([]float64, hi-lo)
		copy(v, c.Flat[lo:hi])
	}
	return Factors{V: v}
}

func (c *FactorsColumn) View(i int) any {
	return Factors{V: dataflow.Span(c.Flat, c.Off, i)}
}

func (c *FactorsColumn) Layout() (string, []dataflow.Array) {
	return "graphx.Factors", []dataflow.Array{{Off: &c.Off}, {F64: &c.Flat}}
}

func (c *FactorsColumn) AppendValue(v any) bool {
	x, ok := v.(Factors)
	if !ok {
		return false
	}
	c.Flat = append(c.Flat, x.V...)
	c.Off = append(c.Off, int32(len(c.Flat)))
	return true
}

func (c *FactorsColumn) AppendFrom(src dataflow.Column, i int) bool {
	s, ok := src.(*FactorsColumn)
	if !ok {
		return false
	}
	c.Flat = append(c.Flat, s.Flat[s.Off[i]:s.Off[i+1]]...)
	c.Off = append(c.Off, int32(len(c.Flat)))
	return true
}

func (c *FactorsColumn) SizeAt(i int) int64 { return 24 + 8*int64(c.Off[i+1]-c.Off[i]) }

func (c *FactorsColumn) SizeBytes() int64 {
	return 24*int64(c.Len()) + 8*int64(len(c.Flat))
}

func (c *FactorsColumn) NewEmpty(capHint int) dataflow.Column { return NewFactorsColumn(capHint) }

func (c *FactorsColumn) Release() {
	dataflow.PutI32Slice(c.Off)
	dataflow.PutF64Slice(c.Flat)
	c.Off, c.Flat = nil, nil
}

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
		ac, ok := in.Col.(*AdjListColumn)
		if !ok {
			return nil
		}
		oc := NewVertexRankColumn(in.Len())
		out.Col = oc
		out.Keys = append(out.Keys, in.Keys...)
		for range in.Keys {
			oc.Ranks = append(oc.Ranks, 1)
		}
		oc.AdjFlat = append(oc.AdjFlat, ac.Flat...)
		oc.AdjOff = append(oc.AdjOff[:0], ac.Off...)
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
		vc, ok := in.Col.(*VertexRankColumn)
		if !ok {
			return nil
		}
		out := dataflow.NewBatch(len(vc.AdjFlat))
		oc := dataflow.NewF64Column(len(vc.AdjFlat))
		out.Col = oc
		for i := range vc.Ranks {
			lo, hi := vc.AdjOff[i], vc.AdjOff[i+1]
			if lo == hi {
				continue
			}
			share := vc.Ranks[i] / float64(hi-lo)
			for _, dst := range vc.AdjFlat[lo:hi] {
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
		vc, ok := gs.Col.(*VertexRankColumn)
		if !ok {
			out.Release()
			return nil
		}
		oc := NewVertexRankColumn(gs.Len())
		out.Col = oc
		out.Keys = append(out.Keys, gs.Keys...)
		oc.AdjFlat = append(oc.AdjFlat, vc.AdjFlat...)
		oc.AdjOff = append(oc.AdjOff[:0], vc.AdjOff...)
		for _, k := range gs.Keys {
			s := 0.0
			if sv, ok := sum[k]; ok {
				s = sv
			}
			oc.Ranks = append(oc.Ranks, resetProb+(1-resetProb)*s)
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
			pc, ok := cs.Col.(*VertexRankColumn)
			if !ok {
				return nil
			}
			for i, k := range cs.Keys {
				prev[k] = pc.Ranks[i]
			}
		}
		out := dataflow.NewBatch(as.Len())
		out.NonNil = true // row Zip body returns make([]Record, len(as))
		if as.Len() == 0 {
			return out
		}
		ac, ok := as.Col.(*AdjListColumn)
		if !ok {
			out.Release()
			return nil
		}
		oc := NewVertexRankColumn(as.Len())
		out.Col = oc
		out.Keys = append(out.Keys, as.Keys...)
		oc.AdjFlat = append(oc.AdjFlat, ac.Flat...)
		oc.AdjOff = append(oc.AdjOff[:0], ac.Off...)
		for _, k := range as.Keys {
			rank := 1.0
			if r, ok := prev[k]; ok {
				rank = r
			}
			oc.Ranks = append(oc.Ranks, rank)
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
	fc, ok := b.Col.(*dataflow.F64Column)
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
		var gc *FactorsColumn
		if gs.Len() > 0 {
			var ok bool
			gc, ok = gs.Col.(*FactorsColumn)
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
		fc, ok := fs.Col.(*FactorsColumn)
		if !ok {
			out.Release()
			return nil
		}
		oc := NewFactorsColumn(fs.Len())
		out.Col = oc
		for i, k := range fs.Keys {
			lo, hi := fc.Off[i], fc.Off[i+1]
			dlo := len(oc.Flat)
			oc.Flat = append(oc.Flat, fc.Flat[lo:hi]...)
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
