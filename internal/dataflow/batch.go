package dataflow

import (
	"reflect"
	"sync"
)

// This file implements the columnar batch representation used by the
// engine's vectorized task loop. A Batch stores one partition as a
// dense key column plus a typed value column, so narrow operator chains
// can run as flat loops without boxing one Record interface value per
// element. The row representation remains the source of truth at every
// storage and driver boundary: batches convert losslessly to and from
// []Record, and EstimateSize matches EstimateRecords on the equivalent
// rows exactly, which is what keeps virtual-time metrics bit-identical
// between the row and batched loops.
//
// Ownership rules (see DESIGN.md "Hot path & columnar execution"):
//   - A batch's backing arrays may come from sync.Pools. Whoever created
//     a batch releases it once its single consumer is done.
//   - Column.Value boxes a copy of any backing storage; boxed values
//     never alias pooled arrays.
//   - Batch kernels must return a fresh batch and must not retain their
//     input batches past the call.
//   - Batches handed to the shuffle service (routed buckets, broadcast
//     outputs) are retained, never released; they outlive the task.

// Column stores the values of one batch.
type Column interface {
	// Len returns the number of values.
	Len() int
	// Value boxes element i. Implementations copy any backing arrays so
	// the boxed value stays valid after the column is released.
	Value(i int) any
	// AppendValue appends a boxed value; it reports false (leaving the
	// column unchanged) if the value's type does not fit this column.
	AppendValue(v any) bool
	// AppendFrom appends element i of src without boxing; it reports
	// false if src is not the same concrete column type.
	AppendFrom(src Column, i int) bool
	// SizeAt returns ValueSize(Value(i)) without boxing.
	SizeAt(i int) int64
	// SizeBytes returns the sum of SizeAt over all elements.
	SizeBytes() int64
	// NewEmpty returns a fresh empty column of the same concrete type.
	NewEmpty(capHint int) Column
	// Release returns pooled backing arrays. The column must not be used
	// afterwards.
	Release()
}

// Batch is the columnar form of one partition's []Record.
type Batch struct {
	Keys []int64
	Col  Column
	// NonNil records whether the equivalent row slice is non-nil. The
	// row operators distinguish the two (Map returns a non-nil empty
	// slice for empty input, FlatMap/Filter return nil), and the block
	// codec round-trips the distinction, so batches must carry it too.
	NonNil bool
}

// NewBatch returns an empty batch with pooled key storage.
func NewBatch(capHint int) *Batch {
	return &Batch{Keys: GetI64Slice(capHint)}
}

// Len returns the number of records in the batch.
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	return len(b.Keys)
}

// Append adds one record, choosing a typed column from the first value.
func (b *Batch) Append(key int64, v any) {
	b.Keys = append(b.Keys, key)
	if b.Col == nil {
		b.Col = columnFor(v, cap(b.Keys))
	}
	if !b.Col.AppendValue(v) {
		b.migrate()
		b.Col.AppendValue(v)
	}
}

// AppendFromBatch adds record i of src, copying column storage directly
// when the column types match and boxing otherwise.
func (b *Batch) AppendFromBatch(src *Batch, i int) {
	b.Keys = append(b.Keys, src.Keys[i])
	if b.Col == nil {
		b.Col = src.Col.NewEmpty(cap(b.Keys))
	}
	if b.Col.AppendFrom(src.Col, i) {
		return
	}
	v := src.Col.Value(i)
	if b.Col.AppendValue(v) {
		return
	}
	b.migrate()
	b.Col.AppendValue(v)
}

// migrate rebuilds the column as an AnyColumn when a mixed-type value
// arrives, boxing (and thereby copying) the elements appended so far.
func (b *Batch) migrate() {
	old := b.Col
	ac := NewAnyColumn(old.Len() + 8)
	for i := 0; i < old.Len(); i++ {
		ac.Vals = append(ac.Vals, old.Value(i))
	}
	old.Release()
	b.Col = ac
}

// Records boxes the batch back into the row representation, preserving
// the nil-vs-empty distinction.
func (b *Batch) Records() []Record {
	if b == nil || len(b.Keys) == 0 {
		if b != nil && b.NonNil {
			return []Record{}
		}
		return nil
	}
	out := make([]Record, len(b.Keys))
	for i := range out {
		out[i] = Record{Key: b.Keys[i], Value: b.Col.Value(i)}
	}
	return out
}

// FromRecords builds a batch from rows. The batch copies every payload,
// so it stays valid independent of the source slice (which may belong to
// a cache).
func FromRecords(recs []Record) *Batch {
	b := NewBatch(len(recs))
	b.NonNil = recs != nil
	for _, r := range recs {
		b.Append(r.Key, r.Value)
	}
	return b
}

// EstimateSize returns the analytic footprint of the equivalent rows:
// exactly EstimateRecords(b.Records()), computed without boxing.
func (b *Batch) EstimateSize() int64 {
	if b == nil {
		return 24
	}
	s := int64(24) + 16*int64(len(b.Keys))
	if b.Col != nil {
		s += b.Col.SizeBytes()
	}
	return s
}

// Release returns the batch's pooled storage. Safe to call on nil and
// idempotent; the batch must not be used afterwards.
func (b *Batch) Release() {
	if b == nil {
		return
	}
	if b.Keys != nil {
		PutI64Slice(b.Keys)
		b.Keys = nil
	}
	if b.Col != nil {
		b.Col.Release()
		b.Col = nil
	}
	b.NonNil = false
}

// --- slice pools -----------------------------------------------------

// maxPooledCap bounds what the pools retain so a one-off giant partition
// doesn't pin memory forever.
const maxPooledCap = 1 << 21

var (
	i64SlicePool sync.Pool
	f64SlicePool sync.Pool
	i32SlicePool sync.Pool
	anySlicePool sync.Pool
)

// GetI64Slice returns an empty []int64 with at least capHint capacity,
// reusing pooled storage when possible.
func GetI64Slice(capHint int) []int64 {
	if v := i64SlicePool.Get(); v != nil {
		s := *(v.(*[]int64))
		if cap(s) >= capHint {
			return s[:0]
		}
	}
	if capHint < 8 {
		capHint = 8
	}
	return make([]int64, 0, capHint)
}

// PutI64Slice recycles a slice obtained from GetI64Slice.
func PutI64Slice(s []int64) {
	if cap(s) == 0 || cap(s) > maxPooledCap {
		return
	}
	p := new([]int64)
	*p = s[:0]
	i64SlicePool.Put(p)
}

// GetF64Slice returns an empty []float64 with at least capHint capacity.
func GetF64Slice(capHint int) []float64 {
	if v := f64SlicePool.Get(); v != nil {
		s := *(v.(*[]float64))
		if cap(s) >= capHint {
			return s[:0]
		}
	}
	if capHint < 8 {
		capHint = 8
	}
	return make([]float64, 0, capHint)
}

// PutF64Slice recycles a slice obtained from GetF64Slice.
func PutF64Slice(s []float64) {
	if cap(s) == 0 || cap(s) > maxPooledCap {
		return
	}
	p := new([]float64)
	*p = s[:0]
	f64SlicePool.Put(p)
}

// GetI32Slice returns an empty []int32 with at least capHint capacity.
func GetI32Slice(capHint int) []int32 {
	if v := i32SlicePool.Get(); v != nil {
		s := *(v.(*[]int32))
		if cap(s) >= capHint {
			return s[:0]
		}
	}
	if capHint < 8 {
		capHint = 8
	}
	return make([]int32, 0, capHint)
}

// PutI32Slice recycles a slice obtained from GetI32Slice.
func PutI32Slice(s []int32) {
	if cap(s) == 0 || cap(s) > maxPooledCap {
		return
	}
	p := new([]int32)
	*p = s[:0]
	i32SlicePool.Put(p)
}

func getAnySlice(capHint int) []any {
	if v := anySlicePool.Get(); v != nil {
		s := *(v.(*[]any))
		if cap(s) >= capHint {
			return s[:0]
		}
	}
	if capHint < 8 {
		capHint = 8
	}
	return make([]any, 0, capHint)
}

func putAnySlice(s []any) {
	for i := range s {
		s[i] = nil // drop references so the pool doesn't pin values
	}
	if cap(s) == 0 || cap(s) > maxPooledCap {
		return
	}
	p := new([]any)
	*p = s[:0]
	anySlicePool.Put(p)
}

// --- built-in columns ------------------------------------------------

// F64Column stores float64 values (shuffle contributions, partial sums).
type F64Column struct{ Vals []float64 }

// NewF64Column returns an empty float64 column with pooled storage.
func NewF64Column(capHint int) *F64Column { return &F64Column{Vals: GetF64Slice(capHint)} }

func (c *F64Column) Len() int        { return len(c.Vals) }
func (c *F64Column) Value(i int) any { return c.Vals[i] }

func (c *F64Column) AppendValue(v any) bool {
	x, ok := v.(float64)
	if !ok {
		return false
	}
	c.Vals = append(c.Vals, x)
	return true
}

func (c *F64Column) AppendFrom(src Column, i int) bool {
	s, ok := src.(*F64Column)
	if !ok {
		return false
	}
	c.Vals = append(c.Vals, s.Vals[i])
	return true
}

func (c *F64Column) SizeAt(int) int64            { return 8 }
func (c *F64Column) SizeBytes() int64            { return 8 * int64(len(c.Vals)) }
func (c *F64Column) NewEmpty(capHint int) Column { return NewF64Column(capHint) }

func (c *F64Column) Release() {
	PutF64Slice(c.Vals)
	c.Vals = nil
}

// I64Column stores int64 values.
type I64Column struct{ Vals []int64 }

// NewI64Column returns an empty int64 column with pooled storage.
func NewI64Column(capHint int) *I64Column { return &I64Column{Vals: GetI64Slice(capHint)} }

func (c *I64Column) Len() int        { return len(c.Vals) }
func (c *I64Column) Value(i int) any { return c.Vals[i] }

func (c *I64Column) AppendValue(v any) bool {
	x, ok := v.(int64)
	if !ok {
		return false
	}
	c.Vals = append(c.Vals, x)
	return true
}

func (c *I64Column) AppendFrom(src Column, i int) bool {
	s, ok := src.(*I64Column)
	if !ok {
		return false
	}
	c.Vals = append(c.Vals, s.Vals[i])
	return true
}

func (c *I64Column) SizeAt(int) int64            { return 8 }
func (c *I64Column) SizeBytes() int64            { return 8 * int64(len(c.Vals)) }
func (c *I64Column) NewEmpty(capHint int) Column { return NewI64Column(capHint) }

func (c *I64Column) Release() {
	PutI64Slice(c.Vals)
	c.Vals = nil
}

// FloatsColumn stores []float64 values as a flattened struct-of-arrays:
// element i spans Flat[Off[i]:Off[i+1]].
type FloatsColumn struct {
	Off  []int32
	Flat []float64
}

// NewFloatsColumn returns an empty []float64 column with pooled storage.
func NewFloatsColumn(capHint int) *FloatsColumn {
	c := &FloatsColumn{Off: GetI32Slice(capHint + 1), Flat: GetF64Slice(capHint)}
	c.Off = append(c.Off, 0)
	return c
}

func (c *FloatsColumn) Len() int { return len(c.Off) - 1 }

func (c *FloatsColumn) Value(i int) any {
	lo, hi := c.Off[i], c.Off[i+1]
	if lo == hi {
		return []float64(nil)
	}
	out := make([]float64, hi-lo)
	copy(out, c.Flat[lo:hi])
	return out
}

func (c *FloatsColumn) AppendValue(v any) bool {
	x, ok := v.([]float64)
	if !ok {
		return false
	}
	c.Flat = append(c.Flat, x...)
	c.Off = append(c.Off, int32(len(c.Flat)))
	return true
}

func (c *FloatsColumn) AppendFrom(src Column, i int) bool {
	s, ok := src.(*FloatsColumn)
	if !ok {
		return false
	}
	c.Flat = append(c.Flat, s.Flat[s.Off[i]:s.Off[i+1]]...)
	c.Off = append(c.Off, int32(len(c.Flat)))
	return true
}

func (c *FloatsColumn) SizeAt(i int) int64 { return 24 + 8*int64(c.Off[i+1]-c.Off[i]) }

func (c *FloatsColumn) SizeBytes() int64 {
	return 24*int64(c.Len()) + 8*int64(len(c.Flat))
}

func (c *FloatsColumn) NewEmpty(capHint int) Column { return NewFloatsColumn(capHint) }

func (c *FloatsColumn) Release() {
	PutI32Slice(c.Off)
	PutF64Slice(c.Flat)
	c.Off, c.Flat = nil, nil
}

// AnyColumn is the boxed escape hatch: it stores values as-is, so any
// record type works and sizes fall back to ValueSize. Stored values are
// ordinary heap values (never pooled storage), so Value returns them
// without copying.
type AnyColumn struct{ Vals []any }

// NewAnyColumn returns an empty boxed column with pooled storage.
func NewAnyColumn(capHint int) *AnyColumn { return &AnyColumn{Vals: getAnySlice(capHint)} }

func (c *AnyColumn) Len() int        { return len(c.Vals) }
func (c *AnyColumn) Value(i int) any { return c.Vals[i] }

func (c *AnyColumn) AppendValue(v any) bool {
	c.Vals = append(c.Vals, v)
	return true
}

func (c *AnyColumn) AppendFrom(src Column, i int) bool {
	s, ok := src.(*AnyColumn)
	if !ok {
		return false
	}
	c.Vals = append(c.Vals, s.Vals[i])
	return true
}

func (c *AnyColumn) SizeAt(i int) int64 { return ValueSize(c.Vals[i]) }

func (c *AnyColumn) SizeBytes() int64 {
	var s int64
	for _, v := range c.Vals {
		s += ValueSize(v)
	}
	return s
}

func (c *AnyColumn) NewEmpty(capHint int) Column { return NewAnyColumn(capHint) }

func (c *AnyColumn) Release() {
	putAnySlice(c.Vals)
	c.Vals = nil
}

// --- column registry -------------------------------------------------

var columnBuilders sync.Map // reflect.Type -> func(capHint int) Column

// RegisterColumnType installs a typed column builder for values with the
// same dynamic type as sample, the way RegisterValueType does for gob.
// Workload packages register their payload columns from init. A column
// that is a FlatColumn also becomes decodable from typed blocks.
func RegisterColumnType(sample any, builder func(capHint int) Column) {
	columnBuilders.Store(reflect.TypeOf(sample), builder)
	proto := builder(0)
	registerFlat(proto)
	proto.Release()
}

// columnFor picks the column for a partition's first value.
func columnFor(v any, capHint int) Column {
	switch v.(type) {
	case float64:
		return NewF64Column(capHint)
	case int64:
		return NewI64Column(capHint)
	case []float64:
		return NewFloatsColumn(capHint)
	}
	if v != nil {
		if b, ok := columnBuilders.Load(reflect.TypeOf(v)); ok {
			return b.(func(int) Column)(capHint)
		}
	}
	return NewAnyColumn(capHint)
}

// --- batch kernels ---------------------------------------------------

// BatchFunc is the columnar analogue of ComputeFunc. A kernel may return
// nil to decline the inputs (e.g. an unexpected column type), in which
// case BatchCompute falls back to the row ComputeFunc; an empty result
// must therefore be an empty non-nil *Batch with NonNil set to mirror
// the row function's nil-vs-empty convention.
type BatchFunc func(part int, ins []*Batch) *Batch

// WithBatchKernel attaches a columnar kernel to the dataset. The kernel
// must be observationally identical to the row compute function: same
// records, same order, bit-equal floats (accumulate in the same order).
// Returns the dataset for chaining.
func (d *Dataset) WithBatchKernel(fn BatchFunc) *Dataset {
	d.batchFn = fn
	return d
}

// BatchCompute computes a partition in columnar form, using the attached
// kernel when one accepts the inputs and otherwise boxing through the
// row compute function. The fallback copies payloads both ways, so it is
// always safe — just slower.
func (d *Dataset) BatchCompute(part int, ins []*Batch) *Batch {
	if d.batchFn != nil {
		if out := d.batchFn(part, ins); out != nil {
			return out
		}
	}
	rows := make([][]Record, len(ins))
	for i, b := range ins {
		rows[i] = b.Records()
	}
	return FromRecords(d.fn(part, rows))
}

// ReduceByKeyF64 is ReduceByKey for float64 values: semantically
// identical (the boxed Combine is still installed for the row path and
// map-side combining), but the dependency additionally carries the
// unboxed combiner so the vectorized loop can merge key columns without
// boxing.
func (d *Dataset) ReduceByKeyF64(name string, parts int, f func(a, b float64) float64) *Dataset {
	combine := CombineFunc(func(a, b any) any { return f(a.(float64), b.(float64)) })
	c := d.ctx
	dep := Dependency{Parent: d, Shuffle: true, ShuffleID: c.nextShuffle, Combine: combine, CombineF64: f}
	c.nextShuffle++
	ds := c.newDataset(name, parts, []Dependency{dep}, OpMedium,
		func(_ int, ins [][]Record) []Record {
			return mergeByKey(ins[0], combine)
		})
	ds.batchFn = func(_ int, ins []*Batch) *Batch {
		return MergeBatchByKeyF64(ins[0], f)
	}
	return ds
}

// MergeBatchByKeyF64 aggregates a batch by key with an unboxed float64
// combiner, preserving first-seen key order exactly like mergeByKey. A
// non-float64 column falls back to the boxed merge.
func MergeBatchByKeyF64(in *Batch, f func(a, b float64) float64) *Batch {
	fc, ok := in.Col.(*F64Column)
	if !ok && in.Len() > 0 {
		out := FromRecords(mergeByKey(in.Records(), func(a, b any) any {
			return f(a.(float64), b.(float64))
		}))
		out.NonNil = true
		return out
	}
	out := NewBatch(in.Len())
	out.NonNil = true // mergeByKey returns a non-nil (possibly empty) slice
	oc := NewF64Column(in.Len())
	out.Col = oc
	if in.Len() <= smallCombine {
	next:
		for i, k := range in.Keys {
			for j, seen := range out.Keys {
				if seen == k {
					oc.Vals[j] = f(oc.Vals[j], fc.Vals[i])
					continue next
				}
			}
			out.Keys = append(out.Keys, k)
			oc.Vals = append(oc.Vals, fc.Vals[i])
		}
		return out
	}
	idx := make(map[int64]int, min(in.Len(), 64))
	for i, k := range in.Keys {
		if j, seen := idx[k]; seen {
			oc.Vals[j] = f(oc.Vals[j], fc.Vals[i])
		} else {
			idx[k] = len(oc.Vals)
			out.Keys = append(out.Keys, k)
			oc.Vals = append(oc.Vals, fc.Vals[i])
		}
	}
	return out
}
