package dataflow

import (
	"fmt"
	"math"
	"reflect"
)

// This file holds the two flat column shapes every typed partition takes:
//
//   - Dense[T]: one int64 or float64 per record (shuffle contributions,
//     partial sums, counts).
//   - Ragged[T, V, K]: a variable-length span of T per record, plus an
//     optional float64 lead (a rank, a count). Element i spans
//     Flat[Off[i]:Off[i+1]] and, with a lead, Lead[i] is its scalar.
//
// A ragged value type V (a []float64, a graph adjacency list, a factor
// vector, ...) is described by a zero-size kind K, which names its block
// and boxes and unboxes it; a workload package registers its kinds from
// init (RegisterKind). Being a type parameter rather than a field, the
// kind costs a column nothing.

// Elem is the element type of a flat value array.
type Elem interface{ int64 | float64 }

// Kind describes how a ragged value type V flattens onto a Ragged column.
// Its value's ValueSize must be 24 + 8 per span element (40 + 8 per span
// element with a lead): the column sizes its records without boxing them.
type Kind[T Elem, V any] interface {
	// Name is the column's block name (1 to 255 bytes).
	Name() string
	// HasLead reports whether every record carries a float64 lead.
	HasLead() bool
	// Box builds a value from its lead (0 without one) and span; the
	// value may keep span.
	Box(lead float64, span []T) V
	// Unbox returns a value's lead and span.
	Unbox(v V) (lead float64, span []T)
}

// Dense is a column of one int64 or float64 per record.
type Dense[T Elem] struct{ Vals []T }

// NewDense returns an empty dense column with pooled storage.
func NewDense[T Elem](capHint int) *Dense[T] {
	return &Dense[T]{Vals: poolOf[T]().get(capHint)}
}

func (c *Dense[T]) Len() int        { return len(c.Vals) }
func (c *Dense[T]) Value(i int) any { return c.Vals[i] }
func (c *Dense[T]) View(i int) any  { return c.Vals[i] }

func (c *Dense[T]) AppendValue(v any) bool {
	x, ok := v.(T)
	if ok {
		c.Vals = appendPooled(c.Vals, x)
	}
	return ok
}

func (c *Dense[T]) AppendFrom(src Column, i int) bool {
	s, ok := src.(*Dense[T])
	if ok {
		c.Vals = appendPooled(c.Vals, s.Vals[i])
	}
	return ok
}

func (c *Dense[T]) SizeBytes() int64            { return 8 * int64(len(c.Vals)) }
func (c *Dense[T]) NewEmpty(capHint int) Column { return NewDense[T](capHint) }
func (c *Dense[T]) blank() FlatColumn           { return &Dense[T]{} }
func (c *Dense[T]) room() room                  { return room{}.add(8, len(c.Vals), cap(c.Vals)) }

func (c *Dense[T]) Release() {
	poolOf[T]().put(c.Vals)
	c.Vals = nil
}

func (c *Dense[T]) Layout() (string, []Array) {
	a := arrayOf(&c.Vals)
	if a.F64 != nil {
		return "f64", []Array{a}
	}
	return "i64", []Array{a}
}

// Ragged is a column of values of kind K: a span of T per record, and a
// float64 lead per record if the kind has one.
type Ragged[T Elem, V any, K Kind[T, V]] struct {
	Lead []float64
	Off  []int32
	Flat []T
}

// NewRagged returns an empty column of values of kind k with pooled
// storage.
func NewRagged[T Elem, V any, K Kind[T, V]](k K, capHint int) *Ragged[T, V, K] {
	c := &Ragged[T, V, K]{Off: GetI32Slice(capHint + 1)}
	if k.HasLead() {
		c.Lead = GetF64Slice(capHint)
	}
	c.Flat = poolOf[T]().get(capHint)
	c.Off = append(c.Off, 0)
	return c
}

func (c *Ragged[T, V, K]) Len() int { return len(c.Off) - 1 }

func (c *Ragged[T, V, K]) Value(i int) any {
	var span []T
	if lo, hi := c.Off[i], c.Off[i+1]; lo != hi {
		span = make([]T, hi-lo)
		copy(span, c.Flat[lo:hi])
	}
	var k K
	return k.Box(c.lead(i), span)
}

// View boxes element i's span of Flat itself: nil when empty,
// capacity-clipped otherwise so an append by whoever holds it cannot
// reach its neighbour.
func (c *Ragged[T, V, K]) View(i int) any {
	var span []T
	if lo, hi := c.Off[i], c.Off[i+1]; lo != hi {
		span = c.Flat[lo:hi:hi]
	}
	var k K
	return k.Box(c.lead(i), span)
}

// lead returns element i's lead, or 0 if the kind has none.
func (c *Ragged[T, V, K]) lead(i int) float64 {
	var k K
	if k.HasLead() {
		return c.Lead[i]
	}
	return 0
}

func (c *Ragged[T, V, K]) AppendValue(v any) bool {
	x, ok := v.(V)
	if ok {
		var k K
		c.push(k.Unbox(x))
	}
	return ok
}

func (c *Ragged[T, V, K]) AppendFrom(src Column, i int) bool {
	s, ok := src.(*Ragged[T, V, K])
	if ok {
		c.push(s.lead(i), s.Flat[s.Off[i]:s.Off[i+1]])
	}
	return ok
}

func (c *Ragged[T, V, K]) push(lead float64, span []T) {
	var k K
	if k.HasLead() {
		c.Lead = appendPooled(c.Lead, lead)
	}
	c.Flat = appendPooled(c.Flat, span...)
	c.Off = appendPooled(c.Off, int32(len(c.Flat)))
}

// SizeBytes sums the values' sizes (see Kind) without boxing them.
func (c *Ragged[T, V, K]) SizeBytes() int64 {
	var k K
	base := int64(24)
	if k.HasLead() {
		base = 40
	}
	return base*int64(c.Len()) + 8*int64(len(c.Flat))
}

func (c *Ragged[T, V, K]) NewEmpty(capHint int) Column {
	var k K
	return NewRagged[T, V](k, capHint)
}

func (c *Ragged[T, V, K]) Release() {
	PutF64Slice(c.Lead)
	PutI32Slice(c.Off)
	poolOf[T]().put(c.Flat)
	c.Lead, c.Off, c.Flat = nil, nil, nil
}

func (c *Ragged[T, V, K]) blank() FlatColumn { return &Ragged[T, V, K]{} }
func (c *Ragged[T, V, K]) room() room {
	return room{}.add(8, len(c.Lead), cap(c.Lead)).add(4, len(c.Off), cap(c.Off)).add(8, len(c.Flat), cap(c.Flat))
}

func (c *Ragged[T, V, K]) Layout() (string, []Array) {
	var k K
	if k.HasLead() {
		return k.Name(), []Array{{F64: &c.Lead}, {Off: &c.Off}, arrayOf(&c.Flat)}
	}
	return k.Name(), []Array{{Off: &c.Off}, arrayOf(&c.Flat)}
}

// arrayOf returns the Array that points at s.
func arrayOf[T Elem](s *[]T) Array {
	if f, ok := any(s).(*[]float64); ok {
		return Array{F64: f}
	}
	return Array{I64: any(s).(*[]int64)}
}

// FloatsKind flattens []float64 values.
type FloatsKind struct{}

func (FloatsKind) Name() string                            { return "floats" }
func (FloatsKind) HasLead() bool                           { return false }
func (FloatsKind) Box(_ float64, span []float64) []float64 { return span }
func (FloatsKind) Unbox(v []float64) (float64, []float64)  { return 0, v }

// --- registry --------------------------------------------------------

// A blank column per block name (what DecodeBlock rebuilds) and per
// registered value type (what FromRecords picks). RegisterKind adds to
// them from init, before anything reads them.
var (
	columnsByName = map[string]FlatColumn{
		"f64":    &Dense[float64]{},
		"i64":    &Dense[int64]{},
		"floats": &Ragged[float64, []float64, FloatsKind]{},
	}
	columnsByType = map[reflect.Type]FlatColumn{}
)

// RegisterKind makes values of kind k flat: FromRecords holds them in a
// Ragged column, and typed blocks carry them. Workload packages register
// their kinds from init.
func RegisterKind[T Elem, V any, K Kind[T, V]](k K) {
	name := k.Name()
	if name == "" || len(name) > math.MaxUint8 {
		panic(fmt.Sprintf("dataflow: %T has no usable block name (%q)", k, name))
	}
	blank := &Ragged[T, V, K]{}
	columnsByName[name] = blank
	columnsByType[reflect.TypeFor[V]()] = blank
}

// columnFor picks the column for a partition's first value.
func columnFor(v any, capHint int) Column {
	switch v.(type) {
	case float64:
		return NewDense[float64](capHint)
	case int64:
		return NewDense[int64](capHint)
	case []float64:
		return NewRagged(FloatsKind{}, capHint)
	}
	if c, ok := columnsByType[reflect.TypeOf(v)]; ok {
		return c.NewEmpty(capHint)
	}
	return NewAnyColumn(capHint)
}
