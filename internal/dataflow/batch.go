package dataflow

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// This file implements the Batch, the one container of the engine's task
// loop. A batch holds one partition in one of two forms:
//
//   - Columnar: a key column plus a value column, flat (Dense or Ragged,
//     see columns.go) or, for values of no registered shape, boxed
//     (AnyColumn). Narrow operator chains run over flat columns as flat
//     loops without boxing one Record interface value per element. A
//     kernel's output, a decoded block and a typed source are columnar.
//   - Row form (Rows): the []Record a row function returned, shared and
//     never copied per record. Its records must not be mutated.
//
// Either form converts losslessly to []Record, and EstimateSize matches
// EstimateRecords on the equivalent rows exactly, which is what keeps
// virtual-time metrics independent of the form a partition takes.
//
// Ownership rules (see DESIGN.md "Pooling ownership rules"):
//   - A columnar batch's backing arrays may come from sync.Pools. Whoever
//     holds the batch owns a share of it, and releases that share exactly
//     once; the arrays go back to the pools when the last share is
//     released. The holders: the task loop for a partition in flight; a
//     block store for a cached block, until the block is dropped, evicted
//     without a spill, retired or purged (a spill hands the store's share
//     to the disk store); the shuffle service for a map output, until the
//     shuffle is cleaned or the map output lost. A map output's buckets
//     may be views on batches it owns (a split's one container, a
//     broadcast's one batch): the service releases what it owns, each
//     once, and a view's Release does nothing.
//   - Share hands a batch to one more holder without copying it: a store
//     adopts the batch a task computed (Keep), and a hit, a promotion or a
//     virtual disk read takes another share of what the store holds. No
//     holder may modify a shared batch, and a kernel never modifies its
//     inputs. Keep copies instead (CloneExact) when some array is more
//     than twice its contents, so a resident block never pins much more
//     than it holds.
//   - A row-form batch owns nothing pooled and never changes, so it is
//     shared without counting and Release leaves it alone.
//   - Column.Value boxes a copy of any backing storage; boxed values
//     never alias pooled arrays.
//   - Batch kernels must return a fresh batch and must not retain their
//     input batches past the call.

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
	// SizeBytes returns the sum of ValueSize(Value(i)) over all elements,
	// computed without boxing them.
	SizeBytes() int64
	// NewEmpty returns a fresh empty column of the same concrete type.
	NewEmpty(capHint int) Column
	// Release returns pooled backing arrays. The column must not be used
	// afterwards.
	Release()
}

// Batch is one partition: columnar, or in row form, when Col is the
// records themselves and Keys is empty (see Rows).
type Batch struct {
	Keys []int64
	Col  Column
	// NonNil records whether the equivalent row slice is non-nil. The
	// row operators distinguish the two (Map returns a non-nil empty
	// slice for empty input, FlatMap/Filter return nil), and the block
	// codec round-trips the distinction, so batches must carry it too.
	NonNil bool
	// view marks a bucket of a split (Router.Split): its arrays are a
	// range of a container another batch owns, so Release leaves them.
	view bool
	// shares counts the holders beyond the first (Share); Release frees
	// the arrays when it drops below zero. It and view sit in NonNil's
	// padding, keeping Batch at 48 bytes.
	shares int32
}

// NewBatch returns an empty columnar batch with pooled key storage.
func NewBatch(capHint int) *Batch {
	return &Batch{Keys: GetI64Slice(capHint)}
}

// rowBatch is a row-form batch and its column in one allocation. The
// records live in the column rather than in a Batch field, which keeps
// every columnar Batch in the smaller allocation size class.
type rowBatch struct {
	b    Batch
	recs rowsColumn
}

func (r *rowBatch) batch() *Batch {
	r.b = Batch{Col: &r.recs, NonNil: r.recs != nil}
	return &r.b
}

// noRows is Rows(nil). A row-form batch never changes, so one serves all.
var noRows = new(rowBatch).batch()

// Rows wraps records in a row-form batch without copying them.
func Rows(recs []Record) *Batch {
	if recs == nil {
		return noRows
	}
	return (&rowBatch{recs: recs}).batch()
}

// RowsEach is Rows of every slice, with the batches allocated together.
func RowsEach(parts [][]Record) []*Batch {
	out := make([]*Batch, len(parts))
	slab := make([]rowBatch, len(parts))
	for i, recs := range parts {
		out[i] = noRows
		if recs != nil {
			slab[i].recs = recs
			out[i] = slab[i].batch()
		}
	}
	return out
}

// rows returns a row-form batch's records.
func (b *Batch) rows() (rowsColumn, bool) {
	if b == nil {
		return nil, false
	}
	c, ok := b.Col.(*rowsColumn)
	if !ok {
		return nil, false
	}
	return *c, true
}

// RowForm reports whether the batch is in row form.
func (b *Batch) RowForm() bool {
	_, ok := b.rows()
	return ok
}

// Len returns the number of records in the batch.
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	if len(b.Keys) > 0 { // columnar: the common case on the hot path
		return len(b.Keys)
	}
	recs, _ := b.rows()
	return len(recs)
}

// Append adds one record, choosing a typed column from the first value.
func (b *Batch) Append(key int64, v any) {
	b.Keys = appendPooled(b.Keys, key)
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
	b.Keys = appendPooled(b.Keys, src.Keys[i])
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

// Records returns the batch as rows, preserving the nil-vs-empty
// distinction: a row-form batch's own records, a columnar one boxed.
func (b *Batch) Records() []Record {
	if recs, ok := b.rows(); ok {
		return recs
	}
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

// FromRecords builds a columnar batch from rows. The batch copies every
// payload, so it stays valid independent of the source slice (which may
// belong to a cache).
func FromRecords(recs []Record) *Batch {
	b := NewBatch(len(recs))
	b.NonNil = recs != nil
	for _, r := range recs {
		b.Append(r.Key, r.Value)
	}
	return b
}

// CloneExact returns a copy of the batch on arrays of exactly its size,
// for an owner that keeps it (Keep, a split's bucket of a boxed column).
// A flat column is copied through its Layout, one bulk copy per array;
// any other column (the boxed AnyColumn, whose values are immutable and
// shared) element by element. A row-form batch is its own copy.
// Released, the arrays feed the pools like any other.
func (b *Batch) CloneExact() *Batch {
	if b.RowForm() {
		return b
	}
	out := &Batch{Keys: appendArray(nil, b.Keys, false), NonNil: b.NonNil}
	switch c := b.Col.(type) {
	case nil:
	case FlatColumn:
		_, src := c.Layout()
		dst := c.blank()
		_, arrays := dst.Layout()
		appendArrays(arrays, src, false)
		out.Col = dst
	default:
		out.Col = c.NewEmpty(c.Len())
		for i := 0; i < c.Len(); i++ {
			out.Col.AppendFrom(c, i)
		}
	}
	return out
}

// Share hands the batch to one more holder and returns it: the same
// arrays, which go back to the pools only when the last holder releases
// its share. No holder may modify a shared batch. A row-form batch and a
// split's view own nothing pooled and are returned as they are.
func (b *Batch) Share() *Batch {
	if b.unowned() {
		return b
	}
	if poisonReleased {
		guardShare(b)
	} else {
		atomic.AddInt32(&b.shares, 1)
	}
	return b
}

// Keep returns the batch for a holder that keeps it, a block store: a
// share of the batch itself when its arrays are at most twice their
// contents (loose), and otherwise, or for a split's view, a copy of
// exactly its size (CloneExact). Arrays built in the size-classed pools
// pass, so a store adopts a task's output and a resident block never
// pins much more memory than it holds.
func (b *Batch) Keep() *Batch {
	if b.view || b.loose() {
		return b.CloneExact()
	}
	return b.Share()
}

// loose reports whether the batch's arrays together can hold more than
// twice their contents in bytes, each array counting at least the
// smallest size class as its contents' double.
func (b *Batch) loose() bool {
	r := room{}.add(8, len(b.Keys), cap(b.Keys))
	switch c := b.Col.(type) {
	case FlatColumn:
		r = r.plus(c.room())
	case *AnyColumn:
		r = r.add(16, len(c.Vals), cap(c.Vals))
	}
	return r.held > r.bound
}

// room tallies arrays in bytes for loose: what they hold room for,
// against twice their contents (or the smallest class).
type room struct{ held, bound int }

// add tallies an array of n elements of size bytes with capacity c.
func (r room) add(size, n, c int) room {
	if c > 0 {
		r.held += size * c
		r.bound += size * max(2*n, 1<<minClass)
	}
	return r
}

func (r room) plus(o room) room { return room{r.held + o.held, r.bound + o.bound} }

// unowned reports whether Release leaves the batch alone: nil, a
// row-form batch, or a split's view.
func (b *Batch) unowned() bool { return b == nil || b.view || b.RowForm() }

// AppendBatch appends every record of src: one bulk append per array
// when both columns have the same concrete type, record by record (as
// AppendFromBatch) otherwise.
func (b *Batch) AppendBatch(src *Batch) {
	n := src.Len()
	if n == 0 {
		return
	}
	if b.Col == nil {
		b.Col = src.Col.NewEmpty(max(cap(b.Keys), n))
	}
	if d, ok := b.Col.(*Dense[float64]); ok { // a shuffle bucket: no Layout slices to allocate
		if s, ok := src.Col.(*Dense[float64]); ok {
			b.Keys = appendPooled(b.Keys, src.Keys...)
			d.Vals = appendPooled(d.Vals, s.Vals...)
			return
		}
	}
	if d, ok := b.Col.(FlatColumn); ok {
		if s, ok := src.Col.(FlatColumn); ok {
			dn, da := d.Layout()
			if sn, sa := s.Layout(); dn == sn {
				b.Keys = appendPooled(b.Keys, src.Keys...)
				appendArrays(da, sa, true)
				return
			}
		}
	}
	for i := 0; i < n; i++ {
		b.AppendFromBatch(src, i)
	}
}

// appendArrays appends the arrays of one flat column's Layout to the
// same arrays of another column of its type (appendArray). Offsets are
// rebased onto the destination's delimited array, whose length the
// destination's last offset records, so an Off array is appended before
// the array it delimits (Layout order guarantees that).
func appendArrays(dst, src []Array, pooled bool) {
	for i, d := range dst {
		s := src[i]
		switch {
		case d.F64 != nil:
			*d.F64 = appendArray(*d.F64, *s.F64, pooled)
		case d.I64 != nil:
			*d.I64 = appendArray(*d.I64, *s.I64, pooled)
		case len(*d.Off) == 0:
			*d.Off = appendArray(*d.Off, *s.Off, pooled)
		default:
			base := (*d.Off)[len(*d.Off)-1]
			*d.Off = i32SlicePool.grow(*d.Off, len(*s.Off)-1)
			for _, o := range (*s.Off)[1:] {
				*d.Off = append(*d.Off, base+o)
			}
		}
	}
}

// appendArray appends src to dst: growing dst through the pools
// (appendPooled), or, unpooled, starting an empty destination on an array
// of exactly src's size.
func appendArray[T any](dst, src []T, pooled bool) []T {
	if pooled {
		return appendPooled(dst, src...)
	}
	if cap(dst) == 0 {
		dst = make([]T, 0, len(src))
	}
	return append(dst, src...)
}

// EstimateSize returns the analytic footprint of the equivalent rows:
// exactly EstimateRecords(b.Records()), computed without boxing.
func (b *Batch) EstimateSize() int64 {
	if b == nil {
		return 24
	}
	s := int64(24) + 16*int64(b.Len())
	if b.Col != nil {
		s += b.Col.SizeBytes()
	}
	return s
}

// Release gives up the caller's share of the batch; the last share
// returns a columnar batch's pooled storage. Safe to call on nil; the
// caller must not use the batch afterwards. A row-form batch, shared by
// its holders without counting, and a split's view, whose container owns
// its arrays, are left as they are.
func (b *Batch) Release() {
	if b.unowned() {
		return
	}
	if poisonReleased {
		if !guardRelease(b) {
			return
		}
	} else if atomic.AddInt32(&b.shares, -1) >= 0 {
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

// Pooled arrays come in power-of-two size classes, from 1<<minClass to
// maxPooledCap elements. A draw takes an array from the smallest class
// that fits and a miss allocates that class's size; a growing array moves
// to the next class that fits and gives its old array back. A released
// array joins the largest class its capacity covers. So an array built in
// the pools is less than twice its contents, unless its class handed back
// a larger released array, and a store adopts it (Keep).
const (
	minClass = 3  // 8 elements
	maxClass = 21 // maxPooledCap
	// maxPooledCap bounds what the pools retain so a one-off giant
	// partition doesn't pin memory forever.
	maxPooledCap = 1 << maxClass
)

// slicePool recycles arrays of one element type. A pooled array travels
// in a *[]T header, and emptied headers wait in spare, so a round trip
// through the pool allocates nothing once both are warm.
type slicePool[T any] struct {
	classes [maxClass - minClass + 1]sync.Pool // *[]T; class k holds capacities in [1<<k, 2<<k)
	spare   sync.Pool                          // *[]T, emptied
	dead    T                                  // what poisoning fills a released array with
}

var (
	i64SlicePool = slicePool[int64]{dead: math.MinInt64}
	f64SlicePool = slicePool[float64]{dead: math.NaN()}
	i32SlicePool = slicePool[int32]{dead: math.MinInt32}
	anySlicePool slicePool[any]
)

// poolOf returns the pool of arrays of T.
func poolOf[T any]() *slicePool[T] {
	var p any
	switch any(*new(T)).(type) {
	case int64:
		p = &i64SlicePool
	case float64:
		p = &f64SlicePool
	case int32:
		p = &i32SlicePool
	default:
		p = &anySlicePool
	}
	return p.(*slicePool[T])
}

// sizeClass returns the smallest class whose arrays hold n elements.
func sizeClass(n int) int { return max(bits.Len(uint(max(n, 1)-1)), minClass) }

// get returns an empty slice with at least capHint capacity: an array of
// the smallest class that fits, pooled or allocated to the class's size.
// Past the largest class it allocates exactly capHint.
func (p *slicePool[T]) get(capHint int) []T {
	k := sizeClass(capHint)
	if k > maxClass {
		return make([]T, 0, capHint)
	}
	if h, _ := p.classes[k-minClass].Get().(*[]T); h != nil {
		s := *h
		*h = nil
		p.spare.Put(h)
		return s[:0]
	}
	return make([]T, 0, 1<<k)
}

// put pools s's array in the largest class its capacity covers, unless
// it is smaller than the smallest class or too large to keep.
func (p *slicePool[T]) put(s []T) {
	if poisonReleased {
		s := s[:cap(s)]
		for i := range s {
			s[i] = p.dead
		}
	}
	c := cap(s)
	if c < 1<<minClass || c > maxPooledCap {
		return
	}
	h, _ := p.spare.Get().(*[]T)
	if h == nil {
		h = new([]T)
	}
	*h = s[:0]
	p.classes[bits.Len(uint(c))-1-minClass].Put(h)
}

// grow returns s with room for n more elements: s itself when it has the
// room, otherwise its elements moved onto an array of the next class that
// fits, with s's array put back. An array of a class's size grows to
// (at least) the next class, so one-by-one appends copy each element a
// bounded number of times.
func (p *slicePool[T]) grow(s []T, n int) []T {
	need := len(s) + n
	if need <= cap(s) {
		return s
	}
	if need > maxPooledCap {
		need = max(need, 2*cap(s)) // past the classes, double as append does
	}
	t := append(p.get(need), s...)
	p.put(s)
	return t
}

// Append is append for an array a batch owns that is still being
// built, such as a kernel's output column: a full s grows through the
// slice pools, onto the next size class that fits, and its outgrown array
// goes back to them.
func Append[T Elem](s []T, vals ...T) []T { return appendPooled(s, vals...) }

// appendPooled is Append for arrays of any pooled element type.
func appendPooled[T any](s []T, vals ...T) []T {
	if len(s)+len(vals) > cap(s) {
		s = poolOf[T]().grow(s, len(vals))
	}
	return append(s, vals...)
}

// poisonReleased makes every Put fill the released array with a sentinel
// (NaN, math.MinInt64, math.MinInt32) over its whole capacity, so a
// reader that kept a released batch sees garbage instead of plausible
// stale values, and turns on the share guard (guardShare). Only tests set
// it.
var poisonReleased bool

// shareGuard is the test-only check of the share rules: while poisoning
// is on, Share records a checksum of a batch's contents, every release of
// a share checks it is unchanged, and a release past the last holder
// panics.
var shareGuard struct {
	sync.Mutex
	sums map[*Batch]uint64
}

// guardShare is Share under the guard.
func guardShare(b *Batch) {
	sum := checksum(b)
	shareGuard.Lock()
	defer shareGuard.Unlock()
	if old, ok := shareGuard.sums[b]; ok && old != sum {
		panic("dataflow: a holder modified a shared batch")
	}
	if shareGuard.sums == nil {
		shareGuard.sums = make(map[*Batch]uint64)
	}
	shareGuard.sums[b] = sum
	atomic.AddInt32(&b.shares, 1)
}

// guardRelease is Release's count under the guard: it reports whether
// the share released was the last.
func guardRelease(b *Batch) bool {
	shareGuard.Lock()
	defer shareGuard.Unlock()
	n := atomic.AddInt32(&b.shares, -1)
	if n < -1 {
		panic("dataflow: batch released past its last holder")
	}
	if sum, ok := shareGuard.sums[b]; ok {
		if checksum(b) != sum {
			panic("dataflow: a holder modified a shared batch")
		}
		if n < 0 {
			delete(shareGuard.sums, b)
		}
	}
	return n < 0
}

// checksum hashes a batch's keys and flat arrays (FNV-1a over 64-bit
// words).
func checksum(b *Batch) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) { h = (h ^ x) * 1099511628211 }
	for _, k := range b.Keys {
		mix(uint64(k))
	}
	if c, ok := b.Col.(FlatColumn); ok {
		_, arrays := c.Layout()
		for _, a := range arrays {
			switch {
			case a.F64 != nil:
				for _, v := range *a.F64 {
					mix(math.Float64bits(v))
				}
			case a.I64 != nil:
				for _, v := range *a.I64 {
					mix(uint64(v))
				}
			default:
				for _, v := range *a.Off {
					mix(uint64(v))
				}
			}
		}
	}
	return h
}

// GetI64Slice returns an empty []int64 with at least capHint capacity,
// reusing pooled storage when possible.
func GetI64Slice(capHint int) []int64 { return i64SlicePool.get(capHint) }

// PutI64Slice recycles a slice obtained from GetI64Slice.
func PutI64Slice(s []int64) { i64SlicePool.put(s) }

// GetF64Slice returns an empty []float64 with at least capHint capacity.
func GetF64Slice(capHint int) []float64 { return f64SlicePool.get(capHint) }

// PutF64Slice recycles a slice obtained from GetF64Slice.
func PutF64Slice(s []float64) { f64SlicePool.put(s) }

// GetI32Slice returns an empty []int32 with at least capHint capacity.
func GetI32Slice(capHint int) []int32 { return i32SlicePool.get(capHint) }

// PutI32Slice recycles a slice obtained from GetI32Slice.
func PutI32Slice(s []int32) { i32SlicePool.put(s) }

func getAnySlice(capHint int) []any { return anySlicePool.get(capHint) }

func putAnySlice(s []any) {
	clear(s) // drop references so the pool doesn't pin values
	anySlicePool.put(s)
}

// --- boxed columns ---------------------------------------------------

// rowsColumn is the column of a row-form batch: the records themselves,
// keys included, shared and never written.
type rowsColumn []Record

func (c *rowsColumn) Len() int                    { return len(*c) }
func (c *rowsColumn) Value(i int) any             { return (*c)[i].Value }
func (c *rowsColumn) AppendValue(any) bool        { return false }
func (c *rowsColumn) AppendFrom(Column, int) bool { return false }

func (c *rowsColumn) SizeBytes() int64 {
	var s int64
	for _, r := range *c {
		s += ValueSize(r.Value)
	}
	return s
}

func (c *rowsColumn) NewEmpty(capHint int) Column { return NewAnyColumn(capHint) }
func (c *rowsColumn) Release()                    {}

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

// --- batch kernels ---------------------------------------------------

// BatchFunc is the columnar analogue of ComputeFunc. Its inputs are
// columnar. A kernel may return nil to decline them (e.g. an unexpected
// column type), in which case BatchCompute falls back to the row
// ComputeFunc; an empty result must therefore be an empty non-nil *Batch
// with NonNil set to mirror the row function's nil-vs-empty convention.
type BatchFunc func(part int, ins []*Batch) *Batch

// WithBatchKernel attaches a columnar kernel to the dataset. The kernel
// must be observationally identical to the row compute function: same
// records, same order, bit-equal floats (accumulate in the same order).
// Attached to a source, it makes the source typed. Returns the dataset
// for chaining.
func (d *Dataset) WithBatchKernel(fn BatchFunc) *Dataset {
	d.batchFn = fn
	return d
}

// declineKernels makes every dataset compute through its row function,
// so a whole run stays in row form: the reference every kernel is tested
// against. Only tests set it.
var declineKernels bool

// BatchCompute computes a partition, keeping the form its inputs give
// it. The kernel runs when the first input — the partition it maps over
// — is columnar, or when there is no input (a typed source); any other
// input in row form, a broadcast table or a side input, is columnarized
// for it. Otherwise, or when the kernel declines, the row function runs
// on the inputs' records (a row-form input is shared, a columnar one
// boxed) and its result stays in row form, uncopied.
func (d *Dataset) BatchCompute(part int, ins []*Batch) *Batch {
	if d.batchFn != nil && !declineKernels && (len(ins) == 0 || !ins[0].RowForm()) {
		if out := d.runKernel(part, ins); out != nil {
			return out
		}
	}
	// One allocation holds both the row function's input headers and the
	// batch its result becomes, so a row-form task allocates no more than
	// the row function's own inputs would.
	call := new(struct {
		out rowBatch
		ins [2][]Record
	})
	rows := call.ins[:0] // more than two inputs grow onto the heap
	for _, b := range ins {
		rows = append(rows, b.Records())
	}
	call.out.recs = d.fn(part, rows)
	call.ins = [2][]Record{} // the result must not keep its inputs alive
	if call.out.recs == nil {
		return noRows
	}
	return call.out.batch()
}

// runKernel calls the kernel with every input columnar. The kernel gets
// its own slice, so ins never escapes: a caller may keep it on its stack.
func (d *Dataset) runKernel(part int, ins []*Batch) *Batch {
	typed := slices.Clone(ins)
	for i, in := range typed {
		if in.RowForm() {
			typed[i] = FromRecords(in.Records())
			defer typed[i].Release()
		}
	}
	return d.batchFn(part, typed)
}

// ReduceByKeyF64 is ReduceByKey for float64 values: semantically
// identical (the boxed Combine is still installed for row-form inputs),
// but the dependency additionally carries the unboxed combiner so
// columnar partitions merge key columns without boxing.
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
	fc, ok := in.Col.(*Dense[float64])
	if !ok && in.Len() > 0 {
		out := FromRecords(mergeByKey(in.Records(), func(a, b any) any {
			return f(a.(float64), b.(float64))
		}))
		out.NonNil = true
		return out
	}
	out := NewBatch(in.Len())
	out.NonNil = true // mergeByKey returns a non-nil (possibly empty) slice
	oc := NewDense[float64](in.Len())
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
	idx := getKeyIndex(in.Len())
	for i, k := range in.Keys {
		if s := idx.slot(k, out.Keys); *s != 0 {
			j := *s - 1
			oc.Vals[j] = f(oc.Vals[j], fc.Vals[i])
		} else {
			*s = int32(len(out.Keys) + 1)
			out.Keys = append(out.Keys, k)
			oc.Vals = append(oc.Vals, fc.Vals[i])
		}
	}
	keyIndexPool.Put(idx)
	return out
}

// keyIndex finds a key's position in the key column a combine is
// building: open addressing with linear probing over a power-of-two
// table at most half full. It stores positions only (the keys are read
// back from the column) and is pooled, so a combine allocates no index.
// Slots are addressed by the top bits of a Fibonacci hash, not by mix64:
// every key of one shuffle bucket shares mix64's low bits (Router), and
// would pile into a fraction of the table.
type keyIndex struct {
	slots []int32 // position+1; 0 marks an empty slot
	shift uint
}

var keyIndexPool sync.Pool // *keyIndex

// getKeyIndex returns an empty index with room for n keys.
func getKeyIndex(n int) *keyIndex {
	bitsN := uint(4)
	for 1<<bitsN < 2*n {
		bitsN++
	}
	t, _ := keyIndexPool.Get().(*keyIndex)
	if t == nil {
		t = &keyIndex{}
	}
	if size := 1 << bitsN; cap(t.slots) < size {
		t.slots = make([]int32, size)
	} else {
		t.slots = t.slots[:size]
		clear(t.slots)
	}
	t.shift = 64 - bitsN
	return t
}

// slot returns the slot holding key's position in keys, or the empty
// slot where it belongs.
func (t *keyIndex) slot(key int64, keys []int64) *int32 {
	mask := uint64(len(t.slots) - 1)
	for h := (uint64(key) * 0x9e3779b97f4a7c15) >> t.shift; ; h = (h + 1) & mask {
		s := &t.slots[h]
		if *s == 0 || keys[*s-1] == key {
			return s
		}
	}
}
