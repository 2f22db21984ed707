package dataflow

import (
	"fmt"
	"sync/atomic"
)

// Router maps record keys to shuffle buckets: the splitmix64 finalizer
// followed by reduction mod parts, the function HashPartition computes.
// A power-of-two count (every workload's) reduces by a mask instead of a
// division, since the route loop runs once per shuffled record. Bucket
// assignments are a determinism contract (partition membership and
// shuffle routing both derive from them), so the mask must agree with
// plain % bit for bit; TestRouterMatchesReference enforces that.
type Router struct {
	parts int
	// pow2 marks a power-of-two count: x % parts == x & mask.
	pow2 bool
	mask uint64
}

// NewRouter builds a router for the given bucket count.
func NewRouter(parts int) Router {
	if parts <= 0 {
		panic(fmt.Sprintf("dataflow: router needs positive parts, got %d", parts))
	}
	r := Router{parts: parts}
	if parts&(parts-1) == 0 {
		r.pow2 = true
		r.mask = uint64(parts - 1)
	}
	return r
}

// Parts returns the bucket count.
func (r Router) Parts() int { return r.parts }

// Bucket returns the shuffle bucket for a key.
func (r Router) Bucket(key int64) int {
	x := mix64(uint64(key))
	if r.pow2 {
		return int(x & r.mask)
	}
	return int(x % uint64(r.parts))
}

// Split routes an empty or Dense batch into one batch per bucket, each
// keeping the input order, and returns the buckets with the batches that
// own their storage: the shuffle service keeps the buckets until the
// shuffle is cleaned and releases owned, each once, as one unit. The
// column is scattered into one container, one key array and one value
// array drawn from the pools for the input's size, in bucket order, and
// each bucket is a view on its range (splitDense). An empty bucket is nil
// and a non-empty one is NonNil, like the row slices routing appends
// into. The input is left to the caller. Any other column panics: the
// engine routes it by rows.
func (r Router) Split(in *Batch) (buckets, owned []*Batch) {
	n := in.Len()
	if n == 0 {
		return make([]*Batch, r.parts), nil
	}
	at := GetI32Slice(n)[:n]
	for i, k := range in.Keys {
		at[i] = int32(r.Bucket(k))
	}
	switch c := in.Col.(type) {
	case *Dense[float64]:
		buckets, owned = splitDense(r.parts, in.Keys, c.Vals, at)
	case *Dense[int64]:
		buckets, owned = splitDense(r.parts, in.Keys, c.Vals, at)
	default:
		panic(fmt.Sprintf("dataflow: Split of a %T column", in.Col))
	}
	PutI32Slice(at)
	return buckets, owned
}

// splitView is one bucket's batch and column headers, allocated together
// in a split's slab.
type splitView[T Elem] struct {
	b Batch
	c Dense[T]
}

// splitDense scatters keys and vals, record i into bucket at[i], into
// one container by counting sort, and returns every non-empty bucket as
// a view on its range with its capacity capped at its length, so an
// append to one bucket cannot reach the next. The views' headers and the
// container's share one slab: a split allocates the same few objects at
// any bucket count.
func splitDense[T Elem](parts int, keys []int64, vals []T, at []int32) (buckets, owned []*Batch) {
	end := GetI32Slice(parts)[:parts]
	clear(end)
	for _, b := range at {
		end[b]++
	}
	var off int32
	for b, c := range end {
		end[b] = off // bucket b's start, advanced to its end by the scatter
		off += c
	}
	ck, cv := GetI64Slice(len(at))[:len(at)], poolOf[T]().get(len(at))[:len(at)]
	for i, b := range at {
		j := end[b]
		ck[j], cv[j] = keys[i], vals[i]
		end[b]++
	}
	slab := make([]splitView[T], parts+1)
	out := make([]*Batch, parts+1)
	var lo int32
	for b, hi := range end {
		if hi > lo {
			v := &slab[b]
			v.c.Vals = cv[lo:hi:hi]
			v.b = Batch{Keys: ck[lo:hi:hi], Col: &v.c, NonNil: true, view: true}
			out[b] = &v.b
		}
		lo = hi
	}
	PutI32Slice(end)
	c := &slab[parts]
	c.c.Vals = cv
	c.b = Batch{Keys: ck, Col: &c.c, NonNil: true}
	out[parts] = &c.b
	return out[:parts:parts], out[parts:]
}

// mix64 is the splitmix64 finalizer, spreading keys uniformly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// routerCache memoizes routers for small partition counts so the scalar
// HashPartition entry point skips both the division and the router
// construction. Entries are immutable once published.
var routerCache [4096]atomic.Pointer[Router]

// HashPartition returns the shuffle bucket for a key, deterministically
// spreading keys with a 64-bit mix (splitmix64 finalizer). Equivalent to
// NewRouter(parts).Bucket(key); callers in a loop should hold a Router.
func HashPartition(key int64, parts int) int {
	if parts >= 1 && parts <= len(routerCache) {
		rp := routerCache[parts-1].Load()
		if rp == nil {
			r := NewRouter(parts)
			rp = &r
			routerCache[parts-1].Store(rp)
		}
		return rp.Bucket(key)
	}
	return int(mix64(uint64(key)) % uint64(parts))
}
