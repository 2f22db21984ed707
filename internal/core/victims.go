package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"blaze/internal/cachepolicy"
	"blaze/internal/engine"
	"blaze/internal/storage"
)

// This file keeps each executor's eviction order between decisions. A
// block's price depends on its partition column (metrics and ancestor
// residency of its partition index, plus whether the running stage has
// consumed it), on the stage cursor (which references are still ahead)
// and on the epoch (lineage, shuffles, assignment) — and an admission
// changes two or three columns, not the cache. So victimOrder re-prices
// only the blocks whose inputs moved and merges them back into the
// standing order; the SelectVictims that follows a PlaceComputed finds
// nothing moved and reuses the order as it stands.

// victim is one resident block's place in an executor's eviction order.
type victim struct {
	meta *storage.BlockMeta
	// cost is the price last stamped on meta.Cost and the key the block
	// is ordered by; stamp is the column stamp it was computed at. A
	// price that read beyond its column (held false) is due every round.
	cost  float64
	stamp uint64
	held  bool
	// out marks an entry that leaves its current place in the order this
	// round: it is gone from the store, new, or re-priced to another cost.
	out bool
}

// datasetFacts are the reference-index answers victim pricing and
// admission ask per dataset. They hold for one (epoch, stage cursor), so
// they are evaluated once per dataset then, not once per block per call.
type datasetFacts struct {
	node *Node
	// live: remaining work (this stage onward, or a later job) may read
	// the dataset. reused: so may work strictly after this stage.
	live, reused bool
	// horizon and admitHorizon are horizonFor and horizonForAdmission.
	horizon, admitHorizon int
}

// victimIndex is the per-executor decision state: the resident blocks in
// memory-store order and in eviction order, the dataset facts they were
// priced under, and the blocks the running stage has consumed. Like the
// per-executor estimators it is touched only by its executor's worker
// (or the driver between stages).
type victimIndex struct {
	byID  []*victim // aligned with the memory store's listing
	order []*victim // cost ascending, ties by block id
	metas []*storage.BlockMeta
	// spareID and spareOrder are the previous byID and order arrays,
	// reused as the next round's build targets. moved holds the entries
	// to merge into the order this round, gone those that left the store
	// this round, free those that left earlier and can be reused. Nothing
	// here is allocated in steady state.
	spareID, spareOrder, moved, gone, free []*victim

	// facts holds for the epoch+cursor reading factsAt. stale says the
	// standing prices predate it, so all of them are due.
	facts   map[int]datasetFacts
	factsAt uint64
	stale   bool

	// accessed marks blocks already consumed by the running stage;
	// combined with the reference index this gives partition-granularity
	// liveness: a block whose dataset has no references beyond the
	// current stage and whose own partition has been read is dead, hence
	// a free eviction victim. accessVer counts the marks per partition
	// index so the affected prices are found without a scan.
	accessed  map[storage.BlockID]bool
	accessVer []uint64
}

func newVictimIndex() *victimIndex {
	return &victimIndex{facts: make(map[int]datasetFacts), stale: true, accessed: make(map[storage.BlockID]bool)}
}

// markAccessed records that the running stage consumed the block.
func (v *victimIndex) markAccessed(id storage.BlockID) {
	v.accessed[id] = true
	v.accessVer = grown(v.accessVer, id.Partition+1)
	v.accessVer[id.Partition]++
}

// columnStamp is everything a resident block's price can change with
// short of the epoch and the stage cursor: its column's version and the
// access marks set in the column on this executor.
func (b *Controller) columnStamp(v *victimIndex, part int) uint64 {
	s := b.columnVersion(part)
	if part < len(v.accessVer) {
		s += v.accessVer[part]
	}
	return s
}

// columnVersion is the Estimator.ColumnVersion hook: observations of the
// partition index plus residency changes of that index in its home
// executor's two stores, each counted where the change is made.
func (b *Controller) columnVersion(part int) uint64 {
	home := b.c.ExecutorFor(part)
	return b.lin.Observations(part) + home.Mem.ColumnVersion(part) + home.Disk.ColumnVersion(part)
}

// epochNow is the Estimator.Epoch hook: the controller's own count of
// lineage, reference-offset and retirement changes plus the cluster's
// count of shuffle-completeness and slot-assignment changes.
func (b *Controller) epochNow() uint64 { return b.epoch + b.c.DriverEpoch() }

// refreshFacts drops the dataset facts if the epoch or the stage cursor
// moved since they were evaluated.
func (b *Controller) refreshFacts(v *victimIndex) {
	if at := b.epochNow() + b.cursor; at != v.factsAt {
		clear(v.facts)
		v.factsAt, v.stale = at, true
	}
}

// factsFor returns the dataset's facts under the current epoch and stage
// cursor.
func (b *Controller) factsFor(v *victimIndex, datasetID int) datasetFacts {
	b.refreshFacts(v)
	f, ok := v.facts[datasetID]
	if !ok {
		n := b.lin.Node(datasetID)
		f = datasetFacts{
			node:         n,
			live:         b.futureRefs(datasetID) > 0,
			reused:       b.strictFutureRefs(datasetID) > 0,
			horizon:      b.horizonFor(n, datasetID),
			admitHorizon: b.horizonForAdmission(n, datasetID),
		}
		v.facts[datasetID] = f
	}
	return f
}

// price is the block's potential recovery cost in seconds — the value
// victims are ordered by and stamped with — and whether it holds until
// the block's column stamp, the stage cursor or the epoch moves.
func (b *Controller) price(v *victimIndex, est *Estimator, m *storage.BlockMeta) (float64, bool) {
	f := b.factsFor(v, m.ID.Dataset)
	switch {
	case f.node == nil:
		// Outside this session's lineage. Standalone that means no
		// future benefit; in a shared pool the block belongs to
		// another live session, so keep the cost its owner last
		// stamped (its victimOrder or an ILP solve) instead of
		// pricing the neighbor's cache at zero and churning it.
		if b.c.SharedPool() {
			return m.Cost, true
		}
		return 0, true
	case !f.live:
		return 0, true // no future benefit: free to evict
	case b.feat.ILP && !f.reused && v.accessed[m.ID]:
		// Partition-granularity liveness: this block's only remaining
		// reference was the current stage, and its partition has been
		// consumed — it is dead regardless of the dataset-level view.
		return 0, true
	case b.feat.ILP:
		// min(cost_d, cost_r) at the block's next recovery horizon
		c, held := est.recoveryCostAt(f.node, m.ID.Partition, f.horizon)
		return c.Seconds(), held
	default:
		return est.DiskCost(f.node, m.ID.Partition).Seconds(), true // +CostAware: disk cost only
	}
}

func byCostThenID(x, y *victim) int {
	if c := cmp.Compare(x.cost, y.cost); c != 0 {
		return c
	}
	return x.meta.ID.Compare(y.meta.ID)
}

// victimOrder ranks the executor's resident blocks for eviction, with
// their potential recovery costs attached to the metadata. The slice is
// the index's own: valid until the next call for this executor.
func (b *Controller) victimOrder(ex *engine.Executor) []*storage.BlockMeta {
	if !b.feat.CostAware {
		return cachepolicy.LRU{}.Order(ex.Mem.Blocks())
	}
	v := b.victims[ex.ID]
	est := b.estFor(ex)
	est.Reset()
	b.refreshFacts(v)

	// Line the entries up with the store's listing; both are in block-id
	// order, and a metadata pointer identifies one residency of a block.
	next := v.spareID[:0]
	old := v.byID
	for _, m := range ex.Mem.BlocksView() {
		for len(old) > 0 && old[0].meta != m && old[0].meta.ID.Compare(m.ID) <= 0 {
			old[0].out = true
			v.gone, old = append(v.gone, old[0]), old[1:]
		}
		var e *victim
		if len(old) > 0 && old[0].meta == m {
			e, old = old[0], old[1:]
		} else {
			if n := len(v.free); n > 0 {
				e, v.free = v.free[n-1], v.free[:n-1]
			} else {
				e = new(victim)
			}
			*e = victim{meta: m, out: true}
			v.moved = append(v.moved, e)
		}
		next = append(next, e)
	}
	for _, e := range old {
		e.out = true
		v.gone = append(v.gone, e)
	}
	v.spareID, v.byID = v.byID[:0], next

	// Re-price what moved: everything after an epoch or cursor change,
	// otherwise new blocks, blocks whose column stamp moved, blocks whose
	// price read another column, and blocks whose stamped cost someone
	// else overwrote (an ILP solve; in a shared pool, the owning session).
	for _, e := range v.byID {
		stamp := b.columnStamp(v, e.meta.ID.Partition)
		if !v.stale && !e.out && e.held && e.stamp == stamp && e.meta.Cost == e.cost {
			continue
		}
		cost, held := b.price(v, est, e.meta)
		e.meta.Cost, e.stamp, e.held = cost, stamp, held
		if !e.out && cost != e.cost {
			e.out = true
			v.moved = append(v.moved, e)
		}
		e.cost = cost
	}
	v.stale = false

	if len(v.gone) > 0 || len(v.moved) > 0 {
		// Drop what left its place, then merge the re-priced entries
		// back in: the result is the one total order by (cost, id).
		slices.SortFunc(v.moved, byCostThenID)
		merged, in := v.spareOrder[:0], v.moved
		for _, e := range v.order {
			if e.out {
				continue
			}
			for len(in) > 0 && byCostThenID(in[0], e) < 0 {
				merged, in = append(merged, in[0]), in[1:]
			}
			merged = append(merged, e)
		}
		merged = append(merged, in...)
		v.spareOrder, v.order = v.order[:0], merged
		for _, e := range v.moved {
			e.out = false
		}
		v.moved = v.moved[:0]
		v.free, v.gone = append(v.free, v.gone...), v.gone[:0]
		v.metas = v.metas[:0]
		for _, e := range v.order {
			v.metas = append(v.metas, e.meta)
		}
	}
	if checkCached.Load() {
		if err := b.checkVictimOrder(ex); err != nil {
			panic(err)
		}
	}
	return v.metas
}

// checkCached switches checkVictimOrder on inside victimOrder. No
// configuration field, flag or environment variable reaches it: only
// tests call VerifyCachedCosts.
var checkCached atomic.Bool

// VerifyCachedCosts makes every later victimOrder call, on every
// controller, verify itself against fresh pricing (checkVictimOrder) and
// panic on a difference. For the identity, fuzz and chaos tests of this
// and other packages.
func VerifyCachedCosts(on bool) { checkCached.Store(on) }

// freshEstimator returns an estimator that shares nothing with the
// standing ones and keeps nothing between rounds: the reference the
// cached answers are compared against.
func (b *Controller) freshEstimator() *Estimator {
	e := b.newEstimator(b.c)
	e.ColumnVersion, e.Epoch = nil, nil
	return e
}

// checkVictimOrder is the cached-vs-fresh check on the order victimOrder
// last built for the executor: every resident block must carry the price
// a fresh estimator derives from the uncached reference index, and the
// maintained order must equal CostAscending.Order over those prices.
func (b *Controller) checkVictimOrder(ex *engine.Executor) error {
	v := b.victims[ex.ID]
	fresh := b.freshEstimator()
	blocks := ex.Mem.Blocks()
	for i, m := range blocks {
		cp := *m
		n := b.lin.Node(m.ID.Dataset)
		switch {
		case n == nil:
			if !b.c.SharedPool() {
				cp.Cost = 0
			}
		case b.futureRefs(m.ID.Dataset) == 0:
			cp.Cost = 0
		case b.feat.ILP && b.strictFutureRefs(m.ID.Dataset) == 0 && v.accessed[m.ID]:
			cp.Cost = 0
		case b.feat.ILP:
			cp.Cost = fresh.RecoveryCostAt(n, m.ID.Partition, b.horizonFor(n, m.ID.Dataset)).Seconds()
		default:
			cp.Cost = fresh.DiskCost(n, m.ID.Partition).Seconds()
		}
		if cp.Cost != m.Cost {
			return fmt.Errorf("core: cached cost of %v on executor %d is %v, fresh %v (job %d stage %d)",
				m.ID, ex.ID, m.Cost, cp.Cost, b.curJob, b.curStageIdx)
		}
		blocks[i] = &cp
	}
	want := cachepolicy.CostAscending{}.Order(blocks)
	if len(want) != len(v.metas) {
		return fmt.Errorf("core: victim order of executor %d has %d blocks, store has %d", ex.ID, len(v.metas), len(want))
	}
	for i := range want {
		if want[i].ID != v.metas[i].ID {
			return fmt.Errorf("core: victim order of executor %d differs at %d: maintained %v (%v), fresh %v (%v)",
				ex.ID, i, v.metas[i].ID, v.metas[i].Cost, want[i].ID, want[i].Cost)
		}
	}
	return nil
}
