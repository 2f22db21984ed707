package cachepolicy

import (
	"math/rand"
	"testing"
	"time"

	"blaze/internal/storage"
)

func TestTinyLFUFrequencyOrdering(t *testing.T) {
	p := NewTinyLFU(64)
	hot := storage.BlockID{Dataset: 1, Partition: 0}
	cold := storage.BlockID{Dataset: 1, Partition: 1}
	p.OnInsert(hot)
	p.OnInsert(cold)
	for i := 0; i < 20; i++ {
		p.OnAccess(hot)
	}
	blocks := []*storage.BlockMeta{
		{ID: hot}, {ID: cold},
	}
	got := p.Order(blocks)
	if got[0].ID != cold {
		t.Fatal("TinyLFU should evict the cold block first")
	}
}

func TestTinyLFUSketchAges(t *testing.T) {
	s := newCMSketch(64)
	id := storage.BlockID{Dataset: 1, Partition: 1}
	for i := 0; i < 100; i++ {
		s.touch(id)
	}
	before := s.estimate(id)
	// Flood with other keys to trigger the periodic halving.
	for d := 0; d < 5000; d++ {
		s.touch(storage.BlockID{Dataset: d + 10, Partition: 0})
	}
	after := s.estimate(id)
	if after >= before {
		t.Fatalf("sketch aging should decay counts: before=%d after=%d", before, after)
	}
}

func TestGDWheelPrefersCheapVictims(t *testing.T) {
	cheap := &storage.BlockMeta{ID: storage.BlockID{Dataset: 1, Partition: 0}, Cost: 0.001}
	costly := &storage.BlockMeta{ID: storage.BlockID{Dataset: 1, Partition: 1}, Cost: 10}
	got := (GDWheel{}).Order([]*storage.BlockMeta{costly, cheap})
	if got[0] != cheap {
		t.Fatal("GDWheel should evict the low-credit (cheap) block first")
	}
}

func TestGDWheelAgingOvercomesCost(t *testing.T) {
	// A costly but ancient block loses to a cheap but fresh one once the
	// clock inflation exceeds the cost difference.
	ancient := &storage.BlockMeta{ID: storage.BlockID{Dataset: 1, Partition: 0}, Cost: 2, LastAccess: 0}
	fresh := &storage.BlockMeta{ID: storage.BlockID{Dataset: 1, Partition: 1}, Cost: 0.5, LastAccess: 10 * time.Second}
	got := (GDWheel{}).Order([]*storage.BlockMeta{fresh, ancient})
	if got[0] != ancient {
		t.Fatal("aged-out costly block should be evicted before a fresh cheap one")
	}
}

func TestLeCaRLearnsFromMistakes(t *testing.T) {
	l := NewLeCaR()
	id := storage.BlockID{Dataset: 1, Partition: 0}
	// Simulate: LRU evicted this block, then it came back — LRU should be
	// penalized.
	l.history[id] = 1
	w0, _ := l.Weights()
	l.OnInsert(id)
	w1, _ := l.Weights()
	if w1 >= w0 {
		t.Fatalf("LRU expert should be penalized: %v -> %v", w0, w1)
	}
	// Weights stay normalized and floored.
	lru, lfu := l.Weights()
	if lru+lfu < 0.99 || lru+lfu > 1.01 {
		t.Fatalf("weights not normalized: %v + %v", lru, lfu)
	}
	if lru < 0.009 || lfu < 0.009 {
		t.Fatalf("weights below floor: %v %v", lru, lfu)
	}
}

func TestLeCaRAccessClearsHistory(t *testing.T) {
	l := NewLeCaR()
	id := storage.BlockID{Dataset: 2, Partition: 3}
	l.history[id] = 2
	l.OnAccess(id)
	w0, _ := l.Weights()
	l.OnInsert(id) // no longer in history: no penalty
	w1, _ := l.Weights()
	if w0 != w1 {
		t.Fatal("cleared history should prevent penalties")
	}
}

func TestLFUDAOrdering(t *testing.T) {
	// Frequent-but-old vs rare-but-recent: dynamic aging lets the recent
	// one win when the age gap is large enough.
	old := &storage.BlockMeta{ID: storage.BlockID{Dataset: 1, Partition: 0}, AccessCount: 3, LastAccess: 0}
	recent := &storage.BlockMeta{ID: storage.BlockID{Dataset: 1, Partition: 1}, AccessCount: 1, LastAccess: 30 * time.Second}
	got := (LFUDA{}).Order([]*storage.BlockMeta{recent, old})
	if got[0] != old {
		t.Fatal("LFUDA should age out the old block")
	}
}

func TestARCSplitsRecencyFrequency(t *testing.T) {
	once := &storage.BlockMeta{ID: storage.BlockID{Dataset: 1, Partition: 0}, AccessCount: 1, LastAccess: 99 * time.Second}
	many := &storage.BlockMeta{ID: storage.BlockID{Dataset: 1, Partition: 1}, AccessCount: 9, LastAccess: time.Second}
	got := (ARC{}).Order([]*storage.BlockMeta{many, once})
	if got[0] != once {
		t.Fatal("ARC should evict from the seen-once list first")
	}
}

func TestByNameIncludesAllPolicies(t *testing.T) {
	for _, name := range Names() {
		if _, ok := ByName(name); !ok {
			t.Fatalf("policy %q not constructible", name)
		}
	}
}

// Property: the stateful policies also return permutations and never
// mutate their input.
func TestStatefulOrderIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	policies := []Policy{NewTinyLFU(32), NewLeCaR(), GDWheel{}, LFUDA{}, ARC{}}
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(12)
		in := make([]*storage.BlockMeta, n)
		for i := range in {
			in[i] = &storage.BlockMeta{
				ID:          storage.BlockID{Dataset: rng.Intn(4), Partition: rng.Intn(6)},
				AccessCount: rng.Intn(5),
				LastAccess:  time.Duration(rng.Intn(50)) * time.Millisecond,
				Cost:        rng.Float64(),
			}
		}
		orig := append([]*storage.BlockMeta(nil), in...)
		for _, p := range policies {
			out := p.Order(in)
			if len(out) != len(in) {
				t.Fatalf("%T: length mismatch", p)
			}
			seen := map[*storage.BlockMeta]int{}
			for _, m := range out {
				seen[m]++
			}
			for i, m := range in {
				seen[m]--
				if in[i] != orig[i] {
					t.Fatalf("%T mutated its input", p)
				}
			}
			for _, c := range seen {
				if c != 0 {
					t.Fatalf("%T: not a permutation", p)
				}
			}
		}
	}
}

// Weights returns the current expert weights.
func (l *LeCaR) Weights() (lru, lfu float64) { return l.wLRU, l.wLFU }
