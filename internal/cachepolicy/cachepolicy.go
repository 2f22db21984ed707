// Package cachepolicy implements the eviction policies the paper
// evaluates against Blaze (§3.1, §7.1): the classic history-based LRU,
// FIFO and LFU, and the dependency-aware LRC (least reference count,
// Yu et al., INFOCOM'17) and MRD (most reference distance, Perez et al.,
// ICPP'18).
//
// A policy is a pure ordering over cached block metadata: the first block
// in the returned order is the first victim. All bookkeeping the
// orderings rely on (access times, reference counts, reference distances,
// costs) is maintained by the engine's cache controller, which keeps the
// policies trivially testable.
package cachepolicy

import (
	"fmt"
	"sort"
	"sync"

	"blaze/internal/storage"
)

// Policy orders cached blocks by eviction priority.
type Policy interface {
	// Order returns the blocks sorted so that the preferred victim comes
	// first. The input slice is not modified.
	Order(blocks []*storage.BlockMeta) []*storage.BlockMeta
}

// tieBreak provides a deterministic final ordering criterion so that runs
// are reproducible regardless of map iteration order upstream.
func tieBreak(a, b *storage.BlockMeta) bool { return a.ID.Compare(b.ID) < 0 }

func sorted(blocks []*storage.BlockMeta, less func(a, b *storage.BlockMeta) bool) []*storage.BlockMeta {
	out := append([]*storage.BlockMeta(nil), blocks...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if less(a, b) {
			return true
		}
		if less(b, a) {
			return false
		}
		return tieBreak(a, b)
	})
	return out
}

// LRU evicts the least recently used block first — Spark's default
// eviction policy.
type LRU struct{}

// Order implements Policy.
func (LRU) Order(blocks []*storage.BlockMeta) []*storage.BlockMeta {
	return sorted(blocks, func(a, b *storage.BlockMeta) bool {
		return a.LastAccess < b.LastAccess
	})
}

// FIFO evicts the earliest inserted block first.
type FIFO struct{}

// Order implements Policy.
func (FIFO) Order(blocks []*storage.BlockMeta) []*storage.BlockMeta {
	return sorted(blocks, func(a, b *storage.BlockMeta) bool {
		return a.InsertSeq < b.InsertSeq
	})
}

// LFU evicts the least frequently accessed block first, breaking ties by
// recency.
type LFU struct{}

// Order implements Policy.
func (LFU) Order(blocks []*storage.BlockMeta) []*storage.BlockMeta {
	return sorted(blocks, func(a, b *storage.BlockMeta) bool {
		if a.AccessCount != b.AccessCount {
			return a.AccessCount < b.AccessCount
		}
		return a.LastAccess < b.LastAccess
	})
}

// LRC evicts the block with the smallest remaining reference count in the
// currently submitted job's DAG. Blocks with zero remaining references go
// first, as they provide no further benefit.
type LRC struct{}

// Order implements Policy.
func (LRC) Order(blocks []*storage.BlockMeta) []*storage.BlockMeta {
	return sorted(blocks, func(a, b *storage.BlockMeta) bool {
		if a.RefCount != b.RefCount {
			return a.RefCount < b.RefCount
		}
		return a.LastAccess < b.LastAccess
	})
}

// MRD evicts the block whose next reference is farthest away (largest
// reference distance), approximating Belady's algorithm with the current
// job's stage schedule. The engine prefetches in ascending reference
// distance order using PrefetchOrder.
type MRD struct{}

// Order implements Policy.
func (MRD) Order(blocks []*storage.BlockMeta) []*storage.BlockMeta {
	return sorted(blocks, func(a, b *storage.BlockMeta) bool {
		if a.RefDistance != b.RefDistance {
			return a.RefDistance > b.RefDistance
		}
		return a.LastAccess < b.LastAccess
	})
}

// CostAscending evicts the block with the smallest attached potential
// recovery cost first. This is the ordering used by the paper's
// +CostAware ablation (§7.3), which picks victims with the smallest disk
// access costs.
type CostAscending struct{}

// Order implements Policy.
func (CostAscending) Order(blocks []*storage.BlockMeta) []*storage.BlockMeta {
	return sorted(blocks, func(a, b *storage.BlockMeta) bool {
		return a.Cost < b.Cost
	})
}

// PrefetchOrder returns on-disk candidates sorted by ascending reference
// distance — MRD prefetches the data needed soonest.
func PrefetchOrder(blocks []*storage.BlockMeta) []*storage.BlockMeta {
	return sorted(blocks, func(a, b *storage.BlockMeta) bool {
		return a.RefDistance < b.RefDistance
	})
}

// ByName returns the policy with the given name, or false if unknown.
// Stateful policies (tinylfu, lecar) are freshly constructed per call.
func ByName(name string) (Policy, bool) {
	switch name {
	case "lru":
		return LRU{}, true
	case "fifo":
		return FIFO{}, true
	case "lfu":
		return LFU{}, true
	case "lfuda":
		return LFUDA{}, true
	case "arc":
		return ARC{}, true
	case "gdwheel":
		return GDWheel{}, true
	case "tinylfu":
		return NewTinyLFU(256), true
	case "lecar":
		return NewLeCaR(), true
	case "lrc":
		return LRC{}, true
	case "mrd":
		return MRD{}, true
	case "cost":
		return CostAscending{}, true
	default:
		regMu.RLock()
		f, ok := registry[name]
		regMu.RUnlock()
		if ok {
			return f(), true
		}
		return nil, false
	}
}

// registry holds user-registered policy factories, keyed by name. Each
// lookup invokes the factory so stateful policies get a fresh instance
// per run, like the built-in tinylfu/lecar.
var (
	regMu    sync.RWMutex
	registry = map[string]func() Policy{}
)

// Register adds a user-defined policy factory under the given name,
// making it resolvable through ByName (and hence runnable as a
// "policy-<name>" system). Registering a name that collides with a
// built-in or an earlier registration is an error.
func Register(name string, factory func() Policy) error {
	if name == "" || factory == nil {
		return fmt.Errorf("cachepolicy: Register requires a name and a factory")
	}
	if _, builtin := ByName(name); builtin {
		return fmt.Errorf("cachepolicy: policy %q already registered", name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	registry[name] = factory
	return nil
}

// Names lists every registered policy name, built-ins first, then
// user-registered names in sorted order.
func Names() []string {
	out := []string{"lru", "fifo", "lfu", "lfuda", "arc", "gdwheel", "tinylfu", "lecar", "lrc", "mrd", "cost"}
	regMu.RLock()
	extra := make([]string, 0, len(registry))
	for name := range registry {
		extra = append(extra, name)
	}
	regMu.RUnlock()
	sort.Strings(extra)
	return append(out, extra...)
}
