package dataflow

import (
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// refPartition is the original modulo implementation of HashPartition
// (splitmix64 finalizer, then %). The Router's mask path is a pure
// strength reduction of this expression; bucket assignment is a
// determinism contract — shuffle layouts, adjacency partition
// membership and every historical event log depend on it — so the
// router must agree with the reference on every input, not just be
// well-distributed.
func refPartition(key int64, parts int) int {
	x := uint64(key)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(parts))
}

// TestRouterMatchesReference sweeps part counts across the mask path
// (powers of two) and plain % (every other count), small and past
// 65536, over adversarial and dense key sets.
func TestRouterMatchesReference(t *testing.T) {
	partCounts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
		31, 64, 100, 1000, 4095, 4096, 4097, 65535, 65536, 65537, 70000, 1 << 20}
	keys := []int64{0, 1, 2, 3, -1, -2, 1 << 62, -(1 << 62), 1<<63 - 1, -1 << 63,
		0x5555555555555555, -0x5555555555555556, 123456789, 987654321}
	for i := int64(0); i < 4096; i++ {
		keys = append(keys, i, i*1_000_003, -i*7_777_777)
	}
	for _, parts := range partCounts {
		r := NewRouter(parts)
		if r.Parts() != parts {
			t.Fatalf("Parts()=%d want %d", r.Parts(), parts)
		}
		for _, k := range keys {
			if got, want := r.Bucket(k), refPartition(k, parts); got != want {
				t.Fatalf("parts=%d key=%d: Bucket=%d ref=%d", parts, k, got, want)
			}
			if got, want := HashPartition(k, parts), refPartition(k, parts); got != want {
				t.Fatalf("parts=%d key=%d: HashPartition=%d ref=%d", parts, k, got, want)
			}
		}
	}
}

// TestRouterDistribution is a sanity check that the mix still spreads
// dense keys evenly (no bucket more than 2x the mean over a large
// sample) — the property the original modulo hash provided.
func TestRouterDistribution(t *testing.T) {
	for _, parts := range []int{7, 8, 100} {
		r := NewRouter(parts)
		counts := make([]int, parts)
		const n = 100000
		for k := int64(0); k < n; k++ {
			counts[r.Bucket(k)]++
		}
		mean := n / parts
		for b, c := range counts {
			if c > 2*mean || c < mean/2 {
				t.Errorf("parts=%d bucket %d has %d keys (mean %d)", parts, b, c, mean)
			}
		}
	}
}

// TestSplitViewsShareOneContainer: a dense split's buckets are views on
// one container, one key array and one value array in bucket order,
// each capped at its length so an append to it cannot reach its
// neighbour. A view's Release does nothing: only the container's returns
// the arrays to the pools, and only then do the views read the poison
// sentinel.
func TestSplitViewsShareOneContainer(t *testing.T) {
	if size := unsafe.Sizeof(Batch{}); size != 48 {
		t.Errorf("Batch is %d bytes, want 48: the view flag belongs in NonNil's padding", size)
	}
	poisonReleased = true
	defer func() { poisonReleased = false }()
	const n, parts = 500, 16
	split := func() (buckets []*Batch, container *Batch, want [][]Record) {
		in := NewBatch(n)
		col := NewDense[float64](n)
		in.Col = col
		want = make([][]Record, parts)
		for i := 0; i < n; i++ {
			k, v := int64(i*7%211), float64(i)+0.5
			in.Keys = append(in.Keys, k)
			col.Vals = append(col.Vals, v)
			b := HashPartition(k, parts)
			want[b] = append(want[b], Record{Key: k, Value: v})
		}
		buckets, owned := NewRouter(parts).Split(in)
		in.Release()
		if len(owned) != 1 {
			t.Fatalf("a dense split has %d owners, want one container", len(owned))
		}
		return buckets, owned[0], want
	}

	buckets, container, want := split()
	keys, vals := container.Keys, container.Col.(*Dense[float64]).Vals
	if len(keys) != n || len(vals) != n {
		t.Fatalf("the container holds %d keys and %d values, want %d of each", len(keys), len(vals), n)
	}
	off := 0
	for b, bb := range buckets {
		if len(want[b]) == 0 {
			if bb != nil {
				t.Fatalf("empty bucket %d is %v, want nil", b, bb)
			}
			continue
		}
		bv := bb.Col.(*Dense[float64]).Vals
		if &bb.Keys[0] != &keys[off] || &bv[0] != &vals[off] {
			t.Fatalf("bucket %d does not start at offset %d of the container's arrays", b, off)
		}
		if cap(bb.Keys) != len(bb.Keys) || cap(bv) != len(bv) {
			t.Fatalf("bucket %d holds %d records with room for %d keys and %d values", b, len(bb.Keys), cap(bb.Keys), cap(bv))
		}
		off += bb.Len()
		bb.Release()
		if got := bb.Records(); !reflect.DeepEqual(got, want[b]) {
			t.Fatalf("bucket %d reads %v after its own Release, want %v", b, got, want[b])
		}
	}
	if off != n {
		t.Fatalf("the buckets cover %d of the container's %d records", off, n)
	}
	container.Release()
	for b, bb := range buckets {
		if bb == nil {
			continue
		}
		for i, k := range bb.Keys {
			if v := bb.Col.(*Dense[float64]).Vals[i]; k != math.MinInt64 || !math.IsNaN(v) {
				t.Fatalf("bucket %d record %d reads (%d, %v) after the container's release, want the sentinel", b, i, k, v)
			}
		}
	}

	buckets, container, want = split()
	for b := 0; b+1 < parts; b++ {
		if buckets[b] == nil || buckets[b+1] == nil {
			continue
		}
		buckets[b].AppendBatch(buckets[b+1])
		if got := buckets[b+1].Records(); !reflect.DeepEqual(got, want[b+1]) {
			t.Fatalf("bucket %d reads %v after an append to bucket %d, want %v", b+1, got, b, want[b+1])
		}
		if got, wantB := buckets[b].Records(), append(want[b], want[b+1]...); !reflect.DeepEqual(got, wantB) {
			t.Fatalf("bucket %d reads %v after the append, want %v", b, got, wantB)
		}
	}
	container.Release()
}

func BenchmarkHashPartitionMod(b *testing.B) {
	s := 0
	for i := 0; i < b.N; i++ {
		s += refPartition(int64(i), 100)
	}
	sinkInt = s
}

func BenchmarkHashPartitionRouter(b *testing.B) {
	r := NewRouter(100)
	s := 0
	for i := 0; i < b.N; i++ {
		s += r.Bucket(int64(i))
	}
	sinkInt = s
}

var sinkInt int
