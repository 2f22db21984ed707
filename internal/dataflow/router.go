package dataflow

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Router maps record keys to shuffle buckets. The mapping is the
// splitmix64 finalizer followed by reduction mod parts — the same
// function HashPartition has always computed — but the division is
// replaced with multiply-shift arithmetic on the fast path, since the
// route loop runs once per shuffled record. Bucket assignments are a
// determinism contract (partition membership and shuffle routing both
// derive from them), so the fast path must agree with plain % bit for
// bit; TestRouterMatchesModulo enforces that.
type Router struct {
	parts int
	// Power-of-two reduction: x % parts == x & mask.
	pow2 bool
	mask uint64
	// Lemire fastmod for non-power-of-two parts up to 1<<16: m32 is
	// ceil(2^64 / parts), r32 is (1<<32) % parts. A 64-bit hash x is
	// reduced as ((hi32(x) % parts) * r32 + lo32(x) % parts) % parts,
	// with each 32-bit % computed by fastmod; exact because every
	// intermediate stays below 2^32 when parts <= 2^16.
	m32 uint64
	r32 uint64
	// Above 1<<16 buckets the fast path is disabled and Bucket falls
	// back to the hardware divider.
	slow bool
}

// maxFastParts bounds the fastmod path: the 32-bit split recombination
// needs (parts-1)*parts < 2^32.
const maxFastParts = 1 << 16

// NewRouter builds a router for the given bucket count.
func NewRouter(parts int) Router {
	if parts <= 0 {
		panic(fmt.Sprintf("dataflow: router needs positive parts, got %d", parts))
	}
	r := Router{parts: parts}
	switch {
	case parts&(parts-1) == 0:
		r.pow2 = true
		r.mask = uint64(parts - 1)
	case parts <= maxFastParts:
		r.m32 = ^uint64(0)/uint64(parts) + 1
		r.r32 = (1 << 32) % uint64(parts)
	default:
		r.slow = true
	}
	return r
}

// Parts returns the bucket count.
func (r Router) Parts() int { return r.parts }

// fastmod32 computes n % parts via Lemire's multiply-shift trick.
func (r Router) fastmod32(n uint32) uint64 {
	lowbits := r.m32 * uint64(n)
	res, _ := bits.Mul64(lowbits, uint64(r.parts))
	return res
}

// Bucket returns the shuffle bucket for a key.
func (r Router) Bucket(key int64) int {
	x := mix64(uint64(key))
	switch {
	case r.pow2:
		return int(x & r.mask)
	case r.slow:
		return int(x % uint64(r.parts))
	default:
		hi := r.fastmod32(uint32(x >> 32))
		lo := r.fastmod32(uint32(x))
		return int(r.fastmod32(uint32(hi*r.r32 + lo)))
	}
}

// Split routes a batch into one batch per bucket, each keeping the input
// order, on arrays of exactly the bucket's size: the shuffle service
// keeps buckets until the shuffle is cleaned, and a pooled array could
// pin many times what a bucket holds. Rows are counted per bucket first,
// so a float64 column is scattered straight into its buckets with no
// call through the Column interface; any other column is appended record
// by record and then copied to size. An empty bucket is nil and a
// non-empty one is NonNil, like the row slices routing appends into. The
// input is left to the caller.
func (r Router) Split(in *Batch) []*Batch {
	out := make([]*Batch, r.parts)
	n := in.Len()
	if n == 0 {
		return out
	}
	at := GetI32Slice(n)[:n]
	counts := make([]int32, r.parts)
	for i, k := range in.Keys {
		b := r.Bucket(k)
		at[i] = int32(b)
		counts[b]++
	}
	for b, c := range counts {
		if c > 0 {
			out[b] = &Batch{Keys: make([]int64, 0, c), NonNil: true}
		}
	}
	if fc, ok := in.Col.(*F64Column); ok {
		cols := make([]*F64Column, r.parts)
		for b, c := range counts {
			if c > 0 {
				cols[b] = &F64Column{Vals: make([]float64, 0, c)}
				out[b].Col = cols[b]
			}
		}
		for i, b := range at {
			out[b].Keys = append(out[b].Keys, in.Keys[i])
			cols[b].Vals = append(cols[b].Vals, fc.Vals[i])
		}
	} else {
		for i, b := range at {
			out[b].AppendFromBatch(in, i)
		}
		for b, bb := range out {
			if bb != nil {
				out[b] = bb.CloneExact()
				bb.Release()
			}
		}
	}
	PutI32Slice(at)
	return out
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
