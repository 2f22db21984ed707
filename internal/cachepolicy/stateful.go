package cachepolicy

import (
	"blaze/internal/storage"
)

// StatefulPolicy extends Policy with lifecycle hooks for policies that
// maintain internal state beyond the per-block metadata — the
// learning-based policies of §3.1 (TinyLFU, LeCaR) and the cost wheel
// (GDWheel). The engine's annotation controller forwards block events to
// these hooks when the configured policy implements them.
type StatefulPolicy interface {
	Policy
	// OnInsert is invoked when a block enters the memory store.
	OnInsert(id storage.BlockID)
	// OnAccess is invoked on every cache hit.
	OnAccess(id storage.BlockID)
}

// Cloner is implemented by stateful policies that can produce a fresh,
// empty instance of themselves. Each executor evicts independently, so
// the engine clones the configured policy per executor — a single shared
// instance would observe the interleaved access streams of all executors
// and pollute its learned state.
type Cloner interface {
	// Clone returns a fresh instance with the same configuration and no
	// learned state.
	Clone() Policy
}

// cmSketch is a tiny count-min sketch with 4 rows, used by TinyLFU as its
// approximate frequency oracle.
type cmSketch struct {
	rows [4][]uint8
	mask uint64
	ops  int
	// cap halves all counters periodically (the "reset" aging of TinyLFU).
	resetAt int
}

func newCMSketch(size int) *cmSketch {
	// Round up to a power of two.
	n := 64
	for n < size {
		n <<= 1
	}
	s := &cmSketch{mask: uint64(n - 1), resetAt: n * 8}
	for i := range s.rows {
		s.rows[i] = make([]uint8, n)
	}
	return s
}

func sketchHash(id storage.BlockID, row int) uint64 {
	x := uint64(id.Dataset)<<32 ^ uint64(uint32(id.Partition))
	x ^= uint64(row+1) * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (s *cmSketch) touch(id storage.BlockID) {
	for r := range s.rows {
		i := sketchHash(id, r) & s.mask
		if s.rows[r][i] < 255 {
			s.rows[r][i]++
		}
	}
	s.ops++
	if s.ops >= s.resetAt {
		s.ops = 0
		for r := range s.rows {
			for i := range s.rows[r] {
				s.rows[r][i] /= 2
			}
		}
	}
}

func (s *cmSketch) estimate(id storage.BlockID) int {
	est := 255
	for r := range s.rows {
		i := sketchHash(id, r) & s.mask
		if int(s.rows[r][i]) < est {
			est = int(s.rows[r][i])
		}
	}
	return est
}

// TinyLFU approximates least-frequently-used eviction with a count-min
// frequency sketch (Einziger et al., ToS'17) — one of the learning-based
// policies §3.1 surveys. Blocks with the lowest estimated long-run
// frequency are evicted first.
type TinyLFU struct {
	sketch *cmSketch
	n      int
}

// NewTinyLFU creates a TinyLFU policy sized for roughly n tracked blocks.
func NewTinyLFU(n int) *TinyLFU {
	return &TinyLFU{sketch: newCMSketch(n * 4), n: n}
}

// Clone implements Cloner: a fresh sketch of the same size.
func (t *TinyLFU) Clone() Policy { return NewTinyLFU(t.n) }

// Order implements Policy: ascending estimated frequency, recency ties.
func (t *TinyLFU) Order(blocks []*storage.BlockMeta) []*storage.BlockMeta {
	return sorted(blocks, func(a, b *storage.BlockMeta) bool {
		fa, fb := t.sketch.estimate(a.ID), t.sketch.estimate(b.ID)
		if fa != fb {
			return fa < fb
		}
		return a.LastAccess < b.LastAccess
	})
}

// OnInsert implements StatefulPolicy.
func (t *TinyLFU) OnInsert(id storage.BlockID) { t.sketch.touch(id) }

// OnAccess implements StatefulPolicy.
func (t *TinyLFU) OnAccess(id storage.BlockID) { t.sketch.touch(id) }

// GDWheel approximates the GreedyDual cost-aware replacement of Li & Cox
// (EuroSys'15): each block carries a credit equal to its (attached)
// recovery cost, recharged on access and decayed by a global clock; the
// block with the least remaining credit is evicted first. This reproduction
// uses the attached BlockMeta.Cost as the cost input, decayed by the time
// since last access — a faithful priority ordering without the wheel's
// O(1) bucketing (our candidate sets are small).
type GDWheel struct{}

// Order implements Policy: ascending (cost - age) priority.
func (GDWheel) Order(blocks []*storage.BlockMeta) []*storage.BlockMeta {
	// The GreedyDual priority of a block is its cost credit minus the
	// global inflation; ordering by (Cost + LastAccess-as-seconds) gives
	// the same eviction order as maintaining an explicit L value.
	return sorted(blocks, func(a, b *storage.BlockMeta) bool {
		pa := a.Cost + a.LastAccess.Seconds()
		pb := b.Cost + b.LastAccess.Seconds()
		return pa < pb
	})
}

// LeCaR (Vietri et al., HotStorage'18) learns online whether LRU or LFU is
// the better policy via regret minimization: each eviction follows one of
// the two experts chosen by weight, and when a recently evicted block is
// re-requested the expert responsible is penalized.
type LeCaR struct {
	wLRU, wLFU   float64
	learningRate float64
	discount     float64
	// history remembers which expert evicted a block.
	history map[storage.BlockID]byte // 1 = LRU's choice, 2 = LFU's
	// seq provides the deterministic "randomness" for expert selection.
	seq uint64
}

// NewLeCaR creates a LeCaR policy with the reference hyperparameters.
func NewLeCaR() *LeCaR {
	return &LeCaR{
		wLRU: 0.5, wLFU: 0.5,
		learningRate: 0.45,
		discount:     0.995,
		history:      make(map[storage.BlockID]byte),
	}
}

// Clone implements Cloner: fresh weights and history.
func (l *LeCaR) Clone() Policy { return NewLeCaR() }

// Order implements Policy: picks the expert by current weights
// (deterministically pseudo-random) and returns that expert's order.
func (l *LeCaR) Order(blocks []*storage.BlockMeta) []*storage.BlockMeta {
	l.seq++
	x := l.seq * 0x9e3779b97f4a7c15
	x ^= x >> 33
	r := float64(x%1000) / 1000.0
	var ordered []*storage.BlockMeta
	var expert byte
	if r < l.wLRU/(l.wLRU+l.wLFU) {
		ordered = (LRU{}).Order(blocks)
		expert = 1
	} else {
		ordered = (LFU{}).Order(blocks)
		expert = 2
	}
	for _, m := range ordered {
		if _, ok := l.history[m.ID]; !ok {
			l.history[m.ID] = expert
		}
	}
	return ordered
}

// OnInsert implements StatefulPolicy.
func (l *LeCaR) OnInsert(id storage.BlockID) {
	// A (re)insert of a block in the eviction history means the expert
	// that evicted it made a mistake: penalize it.
	l.penalize(id)
}

// OnAccess implements StatefulPolicy.
func (l *LeCaR) OnAccess(id storage.BlockID) {
	delete(l.history, id)
}

func (l *LeCaR) penalize(id storage.BlockID) {
	expert, ok := l.history[id]
	if !ok {
		return
	}
	delete(l.history, id)
	switch expert {
	case 1:
		l.wLRU *= l.discount * (1 - l.learningRate)
	case 2:
		l.wLFU *= l.discount * (1 - l.learningRate)
	}
	// Renormalize with a floor so neither expert dies permanently.
	const floor = 0.01
	total := l.wLRU + l.wLFU
	l.wLRU = l.wLRU/total*(1-2*floor) + floor
	l.wLFU = l.wLFU/total*(1-2*floor) + floor
}

// LFUDA is LFU with dynamic aging (Arlitt et al., SIGMETRICS PER'00): a
// block's priority is its access count plus the cache age at its last
// access, which prevents formerly-hot blocks from squatting forever.
type LFUDA struct{}

// Order implements Policy.
func (LFUDA) Order(blocks []*storage.BlockMeta) []*storage.BlockMeta {
	return sorted(blocks, func(a, b *storage.BlockMeta) bool {
		pa := float64(a.AccessCount) + a.LastAccess.Seconds()
		pb := float64(b.AccessCount) + b.LastAccess.Seconds()
		return pa < pb
	})
}

// ARC-lite approximates the adaptive replacement cache's key behaviour —
// balancing recency and frequency — by splitting candidates into
// "seen once" (AccessCount <= 1) and "seen many" lists, evicting from the
// recency list first, each list in LRU order.
type ARC struct{}

// Order implements Policy.
func (ARC) Order(blocks []*storage.BlockMeta) []*storage.BlockMeta {
	return sorted(blocks, func(a, b *storage.BlockMeta) bool {
		aOnce := a.AccessCount <= 1
		bOnce := b.AccessCount <= 1
		if aOnce != bOnce {
			return aOnce // recency list (seen once) evicts first
		}
		return a.LastAccess < b.LastAccess
	})
}
