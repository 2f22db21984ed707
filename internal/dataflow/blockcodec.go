package dataflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// This file is the at-rest byte format of one partition: what a
// real-bytes block store holds in memory, what a spill or checkpoint
// block file contains, and what a shuffle snapshot carries per bucket.
// A typed block is the batch's own flat arrays, length-prefixed:
//
//	byte    BlockTyped
//	byte    NonNil (0 or 1)
//	byte+s  length and bytes of the column's block name ("" = no column)
//	arrays  Keys, then the column's arrays in Layout order (Dense: Vals;
//	        Ragged: Lead if its kind has one, Off, Flat), each a u32
//	        element count followed by the elements (8 or 4 bytes each)
//
// All integers and float bits are little-endian. Which arrays a column
// has is its Layout, so there is one encoder and one decoder for every
// column. A partition whose values have no flat column (AnyColumn: mixed
// or unregistered types) is not representable here; internal/storage
// writes those as BlockGob followed by a gob stream.

// Format markers: the first byte of every encoded block.
const (
	BlockTyped byte = 1
	BlockGob   byte = 2
)

// Array is one flat array of a FlatColumn: exactly one field is set. An
// Off array holds Len()+1 offsets delimiting the elements of the array
// that follows it; an array not preceded by an Off holds one entry per
// record.
type Array struct {
	F64 *[]float64
	I64 *[]int64
	Off *[]int32
}

func (a Array) len() int {
	switch {
	case a.F64 != nil:
		return len(*a.F64)
	case a.I64 != nil:
		return len(*a.I64)
	}
	return len(*a.Off)
}

func (a Array) elemSize() int {
	if a.Off != nil {
		return 4
	}
	return 8
}

// FlatColumn is a Column whose entire storage is a fixed list of flat
// arrays, which makes it encodable as a typed block.
type FlatColumn interface {
	Column
	// Layout returns the name the column is known by in encoded blocks
	// and pointers to its arrays in format order. The zero value of the
	// column type must answer too: the decoder fills a zero column
	// through these pointers.
	Layout() (name string, arrays []Array)
	// View boxes element i like Value, but aliasing the column's arrays
	// instead of copying them. Only valid on columns whose arrays are
	// never pooled or rewritten (decoded blocks).
	View(i int) any
	// blank returns a zero column of the same type, for a decode or a
	// clone to fill through its Layout.
	blank() FlatColumn
	// room tallies the column's arrays (Batch.Keep).
	room() room
}

// EncodeBlock serializes a batch as a typed block. It reports false for a
// batch whose column is not a FlatColumn; the caller falls back to gob.
func EncodeBlock(b *Batch) ([]byte, bool) {
	var name string
	arrays := []Array{{I64: &b.Keys}}
	if b.Col != nil {
		fc, ok := b.Col.(FlatColumn)
		if !ok {
			return nil, false
		}
		var cols []Array
		name, cols = fc.Layout()
		arrays = append(arrays, cols...)
	}
	size := 3 + len(name)
	for _, a := range arrays {
		size += 4 + a.elemSize()*a.len()
	}
	out := make([]byte, size)
	out[0] = BlockTyped
	if b.NonNil {
		out[1] = 1
	}
	out[2] = byte(len(name))
	p := out[3+copy(out[3:], name):]
	for _, a := range arrays {
		binary.LittleEndian.PutUint32(p, uint32(a.len()))
		p = p[4:]
		switch {
		case a.F64 != nil:
			for _, v := range *a.F64 {
				binary.LittleEndian.PutUint64(p, math.Float64bits(v))
				p = p[8:]
			}
		case a.I64 != nil:
			for _, v := range *a.I64 {
				binary.LittleEndian.PutUint64(p, uint64(v))
				p = p[8:]
			}
		default:
			for _, v := range *a.Off {
				binary.LittleEndian.PutUint32(p, uint32(v))
				p = p[4:]
			}
		}
	}
	return out, true
}

var errShortBlock = errors.New("dataflow: block truncated")

// blockReader consumes an encoded block front to back. Every read checks
// the bytes that remain first; after the first short read err is set and
// every further read returns nothing.
type blockReader struct {
	p   []byte
	err error
}

func (r *blockReader) take(n int) []byte {
	if r.err != nil || n > len(r.p) {
		r.err = errShortBlock
		return nil
	}
	out := r.p[:n]
	r.p = r.p[n:]
	return out
}

// array reads a u32 element count and the elements it announces, so a
// count the remaining bytes cannot back fails before anything is
// allocated for it.
func (r *blockReader) array(elemSize int) (n int, raw []byte) {
	if p := r.take(4); p != nil {
		n = int(binary.LittleEndian.Uint32(p))
	}
	if n > len(r.p)/elemSize {
		r.err = errShortBlock
		return 0, nil
	}
	return n, r.take(n * elemSize)
}

// DecodeBlock rebuilds the batch of a typed block. The batch's arrays are
// freshly allocated and owned by it alone; it must not be Released while
// views of it are alive. Every count, offset and array shape is checked
// against the bytes and the named column's Layout before it is used, and
// the encoding must be exactly what EncodeBlock writes (no trailing
// bytes), so a torn file is an error here.
func DecodeBlock(data []byte) (*Batch, error) { return decodeBlock(data, false) }

// DecodeBlockPooled is DecodeBlock onto arrays drawn from the slice
// pools, for a batch its one owner releases when done with it.
func DecodeBlockPooled(data []byte) (*Batch, error) { return decodeBlock(data, true) }

func decodeBlock(data []byte, pooled bool) (*Batch, error) {
	r := blockReader{p: data}
	h := r.take(3) // marker, NonNil, name length
	if h == nil {
		return nil, r.err
	}
	name := string(r.take(int(h[2])))
	if h[0] != BlockTyped || h[1] > 1 {
		return nil, fmt.Errorf("dataflow: %#x %#x does not start a typed block", h[0], h[1])
	}
	b := &Batch{NonNil: h[1] == 1}
	arrays := []Array{{I64: &b.Keys}}
	if name != "" {
		proto, ok := columnsByName[name]
		if !ok {
			return nil, fmt.Errorf("dataflow: block names unregistered column %q", name)
		}
		fc := proto.blank()
		_, cols := fc.Layout()
		arrays = append(arrays, cols...)
		b.Col = fc
	}
	for _, a := range arrays {
		n, raw := r.array(a.elemSize())
		switch {
		case a.F64 != nil:
			s := decodeArray(n, pooled, GetF64Slice)
			for i := range s {
				s[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
			*a.F64 = s
		case a.I64 != nil:
			s := decodeArray(n, pooled, GetI64Slice)
			for i := range s {
				s[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
			}
			*a.I64 = s
		default:
			s := decodeArray(n, pooled, GetI32Slice)
			for i := range s {
				s[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
			}
			*a.Off = s
		}
	}
	switch {
	case r.err != nil:
		return nil, r.err
	case len(r.p) != 0:
		return nil, fmt.Errorf("dataflow: block has %d trailing bytes", len(r.p))
	case b.Col == nil && len(b.Keys) > 0:
		return nil, fmt.Errorf("dataflow: block has %d records and no column", len(b.Keys))
	}
	if err := checkShape(arrays[1:], len(b.Keys)); err != nil {
		return nil, fmt.Errorf("dataflow: block of column %q: %w", name, err)
	}
	return b, nil
}

// decodeArray returns an n-element array for a decode to fill: drawn from
// the pool (get), or allocated to exactly that size.
func decodeArray[T any](n int, pooled bool, get func(int) []T) []T {
	if pooled {
		return get(n)[:n]
	}
	return make([]T, n)
}

// checkShape verifies decoded column arrays describe n elements: a dense
// array has n entries; an offsets array has n+1, starts at 0, never
// decreases and ends at the length of the array it delimits.
func checkShape(arrays []Array, n int) error {
	for i := 0; i < len(arrays); i++ {
		a := arrays[i]
		if a.Off == nil {
			if a.len() != n {
				return fmt.Errorf("array %d has %d entries for %d records", i, a.len(), n)
			}
			continue
		}
		off := *a.Off
		i++ // the array the offsets delimit
		if i == len(arrays) || len(off) != n+1 || off[0] != 0 || !slices.IsSorted(off) || int(off[n]) != arrays[i].len() {
			return fmt.Errorf("offsets array %d does not delimit %d elements of the array after it", i-1, n)
		}
	}
	return nil
}

// DecodeBlockRecords decodes a typed block to rows. Every value is a
// View: the values of one block share one backing array per column array
// and, like live records in a virtual store, must not be mutated.
func DecodeBlockRecords(data []byte) ([]Record, error) {
	b, err := DecodeBlock(data)
	if err != nil {
		return nil, err
	}
	if len(b.Keys) == 0 {
		return b.Records(), nil
	}
	fc := b.Col.(FlatColumn)
	out := make([]Record, len(b.Keys))
	for i, k := range b.Keys {
		out[i] = Record{Key: k, Value: fc.View(i)}
	}
	return out, nil
}
