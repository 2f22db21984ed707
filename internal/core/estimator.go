package core

import (
	"time"

	"blaze/internal/costmodel"
	"blaze/internal/storage"
)

// BlockState reports where a partition currently resides.
type BlockState struct {
	InMemory bool
	OnDisk   bool
}

// StateFunc resolves the current state of a real partition. Unknown or
// future partitions report neither location.
type StateFunc func(datasetID, part int) BlockState

// Estimator computes the potential recovery costs of §5.4: the disk
// access cost (Eq. 3) and the recursive recomputation cost (Eq. 4),
// combined into the potential recovery cost (Eq. 2). Costs change as
// partition states change (§4.3), so every memoized cost records what it
// was computed from and is reused only while that is unchanged:
//
//   - Everything the recursion for (node, partition p) reads is local to
//     partition index p — the metrics of p, the residency of ancestors'
//     partition p — as long as each step maps p onto p. Such an entry
//     records ColumnVersion(p) and survives decision rounds until the
//     column changes.
//   - The inputs that are not column-local (lineage structure, reference
//     offsets, retirement, shuffle completeness, the slot→executor map)
//     are summarized by Epoch; when it moves the memo starts a new
//     generation and every older entry is dead.
//   - An entry that read another column (a parent with a different
//     partition count), that was priced under a hypothetical assignment,
//     or that was cut off by the depth bound is valid for the current
//     round only, as is every entry of an estimator without the two
//     version hooks.
type Estimator struct {
	L           *CostLineage
	Params      costmodel.Params
	DiskEnabled bool
	State       StateFunc

	// ShuffleOK reports whether a shuffle's outputs still exist; when
	// they do, recomputation across that edge reads the persisted
	// shuffle files instead of re-running the parent stage. Nil treats
	// every shuffle as missing (conservative).
	ShuffleOK func(shuffleID int) bool
	// Executors scales the cost of regenerating a cleaned shuffle: the
	// parent stage recomputes all its partitions in parallel waves of
	// one task per executor. Zero disables the scaling.
	Executors int

	// AliveAt reports whether a node's partitions will still be retained
	// (referenced) at the given job index; ancestors that die before the
	// recovery horizon cannot be counted on as recomputation shortcuts
	// (§4.3's dynamically changing dependencies). Nil means always alive.
	AliveAt func(n *Node, job int) bool

	// ColumnVersion and Epoch, when both set, let entries outlive a round
	// (see the type comment). ColumnVersion(p) must move whenever a
	// metric of partition index p or the residency State reports for an
	// (ancestor, p) changes; Epoch whenever anything else the recursion
	// reads does.
	ColumnVersion func(part int) uint64
	Epoch         func() uint64

	// hypoMem optionally overrides memory residency for a set of blocks,
	// letting the ILP fixed-point loop evaluate costs under a candidate
	// assignment before applying it.
	hypoMem map[storage.BlockID]bool

	// memo is indexed by Node.seq; its slots index cells, which holds
	// the current generation gen's entries. A new generation begins with
	// every round of an estimator that keeps nothing beyond it and with
	// every Epoch move; it empties cells, reusing its array.
	memo  []nodeMemo
	cells []costEntry
	gen   uint64
	round uint64 // current decision round, from 1
	epoch uint64 // Epoch() reading the current generation was computed under
}

// memoHorizons is how many recovery horizons a node keeps entries for at
// once: the current job, the next, and the next referencing one. A
// fourth takes over one of the three.
const memoHorizons = 3

// nodeMemo is one lineage node's memoized Eq. 4 costs: per recovery
// horizon asked about, a partition-indexed range of the estimator's
// cells. A slot of another generation is dead.
type nodeMemo struct {
	node  *Node // owner of the slots: RestoreState renumbers, so another owner resets them
	slots [memoHorizons]memoSlot
}

type memoSlot struct {
	gen       uint64
	horizon   int
	off, size int
}

// costEntry is one memoized recomputation cost. A round-scoped entry is
// valid while the estimator is in round stamp; any other, computed under
// the real states, whenever those are asked about and the column version
// of its partition equals stamp. set distinguishes an entry from an
// unused cell.
type costEntry struct {
	cost   time.Duration
	stamp  uint64
	scoped bool
	set    bool
}

// NewEstimator builds an estimator over the lineage.
func NewEstimator(l *CostLineage, params costmodel.Params, diskEnabled bool, state StateFunc) *Estimator {
	return &Estimator{L: l, Params: params, DiskEnabled: diskEnabled, State: state, gen: 1, round: 1}
}

// Reset starts a decision round under the real partition states:
// round-scoped entries expire, column-versioned ones stay while they
// validate, and an Epoch move starts a new generation. It allocates
// nothing.
func (e *Estimator) Reset() { e.begin(nil) }

// SetHypothetical starts a decision round that overrides memory
// residency with the given assignment for nodes that have real dataset
// ids; used by the ILP fixed point. A hypothetical assignment is not a
// store state, so everything computed in the round is round-scoped.
func (e *Estimator) SetHypothetical(inMem map[storage.BlockID]bool) { e.begin(inMem) }

func (e *Estimator) begin(hypo map[storage.BlockID]bool) {
	e.round++
	e.hypoMem = hypo
	if !e.persistent() {
		e.newGeneration()
	} else if ep := e.Epoch(); ep != e.epoch {
		e.newGeneration()
		e.epoch = ep
	}
}

// newGeneration kills every memo entry at once.
func (e *Estimator) newGeneration() {
	e.gen++
	e.cells = e.cells[:0]
}

// cell returns the memo cell of (n, part, horizon) in the current
// generation, claiming a slot and a range of cells for a horizon the
// node has none for. Once the cells array has grown to a generation's
// working set it allocates nothing. The pointer is valid until the next
// cell call.
func (e *Estimator) cell(n *Node, part, horizon int) *costEntry {
	if n.seq >= len(e.memo) {
		e.memo = append(e.memo, make([]nodeMemo, n.seq+1-len(e.memo))...)
	}
	m := &e.memo[n.seq]
	if m.node != n {
		*m = nodeMemo{node: n}
	}
	slot := &m.slots[len(m.slots)-1]
	for i := range m.slots {
		s := &m.slots[i]
		if s.gen != e.gen {
			slot = s
		} else if s.horizon == horizon {
			slot = s
			break
		}
	}
	if slot.gen != e.gen || slot.horizon != horizon || part >= slot.size {
		// A fresh range; a node of unknown partition count asked about a
		// partition beyond its range starts the range over.
		size := max(n.Parts, part+1)
		*slot = memoSlot{gen: e.gen, horizon: horizon, off: len(e.cells), size: size}
		e.cells = append(e.cells, make([]costEntry, size)...)
	}
	return &e.cells[slot.off+part]
}

// persistent reports whether entries may outlive the round.
func (e *Estimator) persistent() bool { return e.ColumnVersion != nil && e.Epoch != nil }

// alive reports whether the node's partitions can be counted on to still
// exist at the recovery horizon. Horizon <= 0 means "now".
func (e *Estimator) alive(n *Node, horizon int) bool {
	if horizon < 0 || e.AliveAt == nil {
		return true
	}
	return e.AliveAt(n, horizon)
}

func (e *Estimator) inMemory(n *Node, part, horizon int) bool {
	if n.DatasetID < 0 || !e.alive(n, horizon) {
		return false
	}
	id := storage.BlockID{Dataset: n.DatasetID, Partition: part}
	if e.hypoMem != nil {
		if v, ok := e.hypoMem[id]; ok {
			return v
		}
	}
	return e.State(n.DatasetID, part).InMemory
}

func (e *Estimator) onDisk(n *Node, part, horizon int) bool {
	if n.DatasetID < 0 || !e.alive(n, horizon) {
		return false
	}
	return e.State(n.DatasetID, part).OnDisk
}

// DiskCost implements Eq. 3: size over disk throughput. A partition not
// yet on disk pays the spill write in addition to the read-back.
func (e *Estimator) DiskCost(n *Node, part int) time.Duration {
	size, ok := e.L.PartitionSize(n, part)
	if !ok {
		return 0
	}
	return e.Params.DiskRecoveryCost(size, e.onDisk(n, part, -1))
}

// maxRecursionDepth bounds the Eq. 4 recursion; real lineages are DAGs
// so this only guards against pathological chains.
const maxRecursionDepth = 256

// RecomputeCostAt implements Eq. 4: the longest recomputation chain from
// the nearest available ancestors, dynamically reflecting the partition
// states expected at the given job horizon (ancestors whose last
// reference precedes the horizon will have been auto-unpersisted and
// cannot shortcut the chain). Horizon -1 is "now".
func (e *Estimator) RecomputeCostAt(n *Node, part, horizon int) time.Duration {
	cost, _ := e.recomputeCostAt(n, part, horizon)
	return cost
}

// recomputeCostAt is RecomputeCostAt plus whether the answer read
// nothing beyond column part, the epoch and the real states — that is,
// whether it still holds for as long as those do.
func (e *Estimator) recomputeCostAt(n *Node, part, horizon int) (time.Duration, bool) {
	return e.recompute(n, part, 0, horizon, e.hypoMem == nil && e.persistent())
}

// recompute returns the Eq. 4 cost of (n, part) and whether the result
// may be kept beyond this round. keep says the chain from the priced
// partition down to here stayed inside column part under real states;
// below a step that left the column nothing is kept, so no state homed
// on another executor is ever cached.
func (e *Estimator) recompute(n *Node, part, depth, horizon int, keep bool) (time.Duration, bool) {
	if n == nil {
		return 0, keep
	}
	if depth > maxRecursionDepth {
		return 0, false // a property of the path taken here, not of the column
	}
	c := e.cell(n, part, horizon)
	if c.set {
		if c.scoped {
			if c.stamp == e.round {
				return c.cost, false
			}
		} else if e.hypoMem == nil && c.stamp == e.ColumnVersion(part) {
			return c.cost, keep
		}
	}
	// Mark in-progress to cut accidental cycles at zero.
	*c = costEntry{stamp: e.round, scoped: true, set: true}

	own, _ := e.L.PartitionCost(n, part) // cost_{k→i}: generating p_i from its inputs
	kept := keep
	var worst time.Duration
	for _, edge := range n.Parents {
		if edge.Shuffle && e.ShuffleOK != nil && e.ShuffleOK(edge.ShuffleID) && e.alive(edge.node, horizon) {
			// The shuffle's outputs persist on local disks and its
			// producing parent is still alive at the horizon (releasing
			// it cleans the shuffle); recomputing the child rereads them,
			// which is already part of cost_{k→i}.
			continue
		}
		pn := edge.node
		if pn == nil {
			continue
		}
		pp := mapPartition(part, n.Parts, pn.Parts)
		sameColumn := keep && pp == part
		kept = kept && sameColumn
		if e.inMemory(pn, pp, horizon) {
			continue // (1-m_k) zeroes the ancestor term
		}
		rec, sub := e.recoveryCost(pn, pp, depth+1, horizon, sameColumn)
		kept = kept && sub
		if edge.Shuffle && e.Executors > 0 && pn.Parts > e.Executors {
			// Regenerating a cleaned shuffle re-runs the whole parent
			// stage: ceil(parts/executors) waves of parallel tasks.
			waves := (pn.Parts + e.Executors - 1) / e.Executors
			rec *= time.Duration(waves)
		}
		if rec > worst {
			worst = rec
		}
	}
	total := worst + own
	if kept {
		*e.cell(n, part, horizon) = costEntry{cost: total, stamp: e.ColumnVersion(part), set: true}
	} else {
		*e.cell(n, part, horizon) = costEntry{cost: total, stamp: e.round, scoped: true, set: true}
	}
	return total, kept
}

// recoveryCost implements Eq. 2 for an ancestor during the recursion: the
// cheaper of reading it back from disk (only possible if it is there) and
// recomputing it.
func (e *Estimator) recoveryCost(n *Node, part, depth, horizon int, keep bool) (time.Duration, bool) {
	rec, keep := e.recompute(n, part, depth, horizon, keep)
	if e.DiskEnabled && e.onDisk(n, part, horizon) {
		if size, ok := e.L.PartitionSize(n, part); ok {
			d := e.Params.DiskRead(size)
			if d < rec {
				return d, keep
			}
		}
	}
	return rec, keep
}

// RecoveryCostAt implements Eq. 2 for a decision candidate: the minimum
// of the potential disk cost and the potential recomputation cost (only
// the latter when the disk tier is disabled).
func (e *Estimator) RecoveryCostAt(n *Node, part, horizon int) time.Duration {
	cost, _ := e.recoveryCostAt(n, part, horizon)
	return cost
}

// recoveryCostAt is RecoveryCostAt plus recomputeCostAt's second result
// (the disk cost reads column part only).
func (e *Estimator) recoveryCostAt(n *Node, part, horizon int) (time.Duration, bool) {
	rec, kept := e.recomputeCostAt(n, part, horizon)
	if !e.DiskEnabled {
		return rec, kept
	}
	d := e.DiskCost(n, part)
	if d == 0 {
		return rec, kept
	}
	if d < rec {
		return d, kept
	}
	return rec, kept
}

// PreferDiskAt reports whether evicting the partition to disk is cheaper
// than discarding and recomputing it at a job horizon — the per-victim
// state choice of §4.2.
func (e *Estimator) PreferDiskAt(n *Node, part, horizon int) bool {
	if !e.DiskEnabled {
		return false
	}
	d := e.DiskCost(n, part)
	if d == 0 {
		return false
	}
	return d < e.RecomputeCostAt(n, part, horizon)
}

// mapPartition maps a child partition index onto a parent's partition
// space: identity for co-partitioned (narrow) parents, a representative
// modulo otherwise.
func mapPartition(childPart, childParts, parentParts int) int {
	if parentParts <= 0 {
		return 0
	}
	if childParts == parentParts {
		return childPart
	}
	return childPart % parentParts
}
