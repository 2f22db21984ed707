package dataflow

import "reflect"

// Sized lets workload value types report their in-memory footprint so
// the cache sees realistic, skewed partition sizes (§2.2). It is
// structurally identical to storage.Sized; the sizing logic lives here
// so the columnar batch layer can compute exact per-element sizes
// without importing the storage package (which imports dataflow).
type Sized interface {
	SizeBytes() int64
}

// ValueSize estimates the in-memory footprint of a record value. The
// columnar path depends on these rules being exact: every Column's
// SizeBytes equals the sum of ValueSize over its values, which is what
// keeps virtual-time metrics bit-identical between a partition's two
// forms.
func ValueSize(v any) int64 {
	switch x := v.(type) {
	case nil:
		return 0
	case Sized:
		return x.SizeBytes()
	case bool, int8, uint8:
		return 1
	case int16, uint16:
		return 2
	case int32, uint32, float32:
		return 4
	case int, int64, uint64, float64:
		return 8
	case string:
		return 16 + int64(len(x))
	case []byte:
		return 24 + int64(len(x))
	case []float64:
		return 24 + 8*int64(len(x))
	case []float32:
		return 24 + 4*int64(len(x))
	case []int64:
		return 24 + 8*int64(len(x))
	case []int32:
		return 24 + 4*int64(len(x))
	case []int:
		return 24 + 8*int64(len(x))
	case []string:
		s := int64(24)
		for _, e := range x {
			s += 16 + int64(len(e))
		}
		return s
	case []any:
		s := int64(24)
		for _, e := range x {
			s += 16 + ValueSize(e)
		}
		return s
	default:
		return reflectValueSize(v)
	}
}

// reflectValueSize sizes slice- and map-typed values that have no
// dedicated case above, walking elements reflectively. Summation is
// order-independent, so map iteration order does not affect the result.
// Anything else keeps the historical flat fallback.
func reflectValueSize(v any) int64 {
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Slice:
		s := int64(24)
		for i := 0; i < rv.Len(); i++ {
			s += 8 + ValueSize(rv.Index(i).Interface())
		}
		return s
	case reflect.Map:
		s := int64(48)
		it := rv.MapRange()
		for it.Next() {
			s += 16 + ValueSize(it.Key().Interface()) + ValueSize(it.Value().Interface())
		}
		return s
	default:
		return 48
	}
}

// RecordSize estimates the footprint of one record (16 bytes of header
// plus the value).
func RecordSize(r Record) int64 { return 16 + ValueSize(r.Value) }

// EstimateRecords estimates the footprint of a whole partition.
func EstimateRecords(recs []Record) int64 {
	s := int64(24) // slice header and bookkeeping
	for _, r := range recs {
		s += RecordSize(r)
	}
	return s
}
