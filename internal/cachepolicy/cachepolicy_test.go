package cachepolicy

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"blaze/internal/storage"
)

func meta(ds, part int) *storage.BlockMeta {
	return &storage.BlockMeta{ID: storage.BlockID{Dataset: ds, Partition: part}}
}

func TestLRUOrder(t *testing.T) {
	a, b, c := meta(1, 0), meta(1, 1), meta(1, 2)
	a.LastAccess = 3 * time.Second
	b.LastAccess = 1 * time.Second
	c.LastAccess = 2 * time.Second
	got := (LRU{}).Order([]*storage.BlockMeta{a, b, c})
	if got[0] != b || got[1] != c || got[2] != a {
		t.Fatalf("LRU order wrong: %v %v %v", got[0].ID, got[1].ID, got[2].ID)
	}
}

func TestFIFOOrder(t *testing.T) {
	a, b := meta(1, 0), meta(1, 1)
	a.InsertSeq = 5
	b.InsertSeq = 2
	got := (FIFO{}).Order([]*storage.BlockMeta{a, b})
	if got[0] != b {
		t.Fatal("FIFO should evict earliest insert first")
	}
}

func TestLFUOrderWithRecencyTie(t *testing.T) {
	a, b, c := meta(1, 0), meta(1, 1), meta(1, 2)
	a.AccessCount, a.LastAccess = 5, 1*time.Second
	b.AccessCount, b.LastAccess = 2, 9*time.Second
	c.AccessCount, c.LastAccess = 2, 1*time.Second
	got := (LFU{}).Order([]*storage.BlockMeta{a, b, c})
	if got[0] != c || got[1] != b || got[2] != a {
		t.Fatalf("LFU order wrong: %v %v %v", got[0].ID, got[1].ID, got[2].ID)
	}
}

func TestLRCEvictsSmallestRefCount(t *testing.T) {
	a, b := meta(1, 0), meta(1, 1)
	a.RefCount = 4
	b.RefCount = 0
	got := (LRC{}).Order([]*storage.BlockMeta{a, b})
	if got[0] != b {
		t.Fatal("LRC should evict zero-reference block first")
	}
}

func TestMRDEvictsFarthestReference(t *testing.T) {
	a, b := meta(1, 0), meta(1, 1)
	a.RefDistance = 1 // needed next stage
	b.RefDistance = 9 // needed far away
	got := (MRD{}).Order([]*storage.BlockMeta{a, b})
	if got[0] != b {
		t.Fatal("MRD should evict the most distant reference first")
	}
	pf := PrefetchOrder([]*storage.BlockMeta{b, a})
	if pf[0] != a {
		t.Fatal("prefetch should fetch the nearest reference first")
	}
}

func TestCostAscending(t *testing.T) {
	a, b := meta(1, 0), meta(1, 1)
	a.Cost = 12.5
	b.Cost = 0.5
	got := (CostAscending{}).Order([]*storage.BlockMeta{a, b})
	if got[0] != b {
		t.Fatal("cost-aware should evict the cheapest-to-recover block first")
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]Policy{"lru": LRU{}, "fifo": FIFO{}, "lfu": LFU{}, "lrc": LRC{}, "mrd": MRD{}, "cost": CostAscending{}} {
		p, ok := ByName(name)
		if !ok || p != want {
			t.Fatalf("ByName(%q) = %T, %v; want %T", name, p, ok, want)
		}
	}
	if _, ok := ByName("belady"); ok {
		t.Fatal("unknown policy should not resolve")
	}
}

func allPolicies() []Policy {
	return []Policy{LRU{}, FIFO{}, LFU{}, LRC{}, MRD{}, CostAscending{}}
}

// Property: every policy returns a permutation of its input and never
// mutates the input slice.
func TestOrderIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20)
		in := make([]*storage.BlockMeta, n)
		for i := range in {
			m := meta(rng.Intn(5), rng.Intn(10))
			m.LastAccess = time.Duration(rng.Intn(100)) * time.Millisecond
			m.AccessCount = rng.Intn(5)
			m.InsertSeq = int64(rng.Intn(100))
			m.RefCount = rng.Intn(4)
			m.RefDistance = rng.Intn(8)
			m.Cost = rng.Float64()
			in[i] = m
		}
		orig := append([]*storage.BlockMeta(nil), in...)
		for _, p := range allPolicies() {
			out := p.Order(in)
			if len(out) != len(in) {
				return false
			}
			seen := map[*storage.BlockMeta]int{}
			for _, m := range out {
				seen[m]++
			}
			for _, m := range in {
				seen[m]--
			}
			for _, c := range seen {
				if c != 0 {
					return false
				}
			}
			for i := range in {
				if in[i] != orig[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: orderings are deterministic — the same input (even permuted)
// yields the same victim sequence, thanks to the id tie-break.
func TestOrderDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		in := make([]*storage.BlockMeta, n)
		for i := range in {
			m := meta(i/4, i%4)
			m.LastAccess = time.Duration(rng.Intn(3)) * time.Second
			m.AccessCount = rng.Intn(2)
			m.RefCount = rng.Intn(2)
			m.RefDistance = rng.Intn(3)
			m.Cost = float64(rng.Intn(3))
			in[i] = m
		}
		shuffled := append([]*storage.BlockMeta(nil), in...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, p := range allPolicies() {
			a := p.Order(in)
			b := p.Order(shuffled)
			for i := range a {
				if a[i].ID != b[i].ID {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
