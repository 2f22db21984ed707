package engine

import (
	"sort"
	"time"

	"blaze/internal/cachepolicy"
	"blaze/internal/dataflow"
	"blaze/internal/storage"
)

// StorageLevel selects how evicted cache data is handled, the fixed
// per-workload choice existing systems offer (§3.2).
type StorageLevel int

const (
	// MemOnly discards victims and recovers by recomputation
	// (Spark's MEMORY_ONLY).
	MemOnly StorageLevel = iota
	// MemDisk spills victims to disk and recovers by reloading
	// (Spark's MEMORY_AND_DISK).
	MemDisk
)

// AnnotationController reproduces the caching mechanism of existing
// systems (§2.3): it blindly follows the user's cache()/unpersist()
// annotations at dataset granularity, evicts according to a pluggable
// policy, and recovers according to the fixed storage level. LRC and MRD
// are obtained by plugging their orderings and, for MRD, enabling
// prefetch; reference information is derived from the currently submitted
// job only, as those systems do (§7.1).
type AnnotationController struct {
	name     string
	level    StorageLevel
	policy   cachepolicy.Policy
	prefetch bool

	// perExec holds per-executor policy instances for stateful policies
	// that implement cachepolicy.Cloner. Executors evict independently,
	// so a single shared instance would observe the interleaved access
	// streams of all executors and pollute its learned state; stateless
	// policies are shared safely.
	perExec map[int]cachepolicy.Policy

	c *Cluster
	// refStages maps dataset id → stage indices (ascending) of the
	// current job that reference the dataset.
	refStages map[int][]int
	curStage  int
}

// NewSparkMemOnly models MEM_ONLY Spark: LRU eviction, recomputation
// recovery.
func NewSparkMemOnly() *AnnotationController {
	return &AnnotationController{name: "spark-mem", level: MemOnly, policy: cachepolicy.LRU{}}
}

// NewSparkMemDisk models MEM+DISK Spark: LRU eviction, spill to disk.
func NewSparkMemDisk() *AnnotationController {
	return &AnnotationController{name: "spark-memdisk", level: MemDisk, policy: cachepolicy.LRU{}}
}

// NewAlluxio models the controller side of Spark+Alluxio (pair with
// Config.AlluxioMode, which charges (de)serialization on the memory
// tier).
func NewAlluxio() *AnnotationController {
	return &AnnotationController{name: "spark-alluxio", level: MemDisk, policy: cachepolicy.LRU{}}
}

// NewLRC models Spark with the least-reference-count eviction policy.
func NewLRC(level StorageLevel) *AnnotationController {
	name := "lrc"
	if level == MemOnly {
		name = "lrc-mem"
	}
	return &AnnotationController{name: name, level: level, policy: cachepolicy.LRC{}}
}

// NewMRD models Spark with the most-reference-distance eviction policy
// and its nearest-reference prefetching.
func NewMRD(level StorageLevel) *AnnotationController {
	name := "mrd"
	prefetch := level == MemDisk // prefetching needs a disk tier
	if level == MemOnly {
		name = "mrd-mem"
	}
	return &AnnotationController{name: name, level: level, policy: cachepolicy.MRD{}, prefetch: prefetch}
}

// NewAnnotation builds a controller with an arbitrary policy, for custom
// configurations and tests. Stateful policies implementing
// cachepolicy.Cloner are cloned per executor so each executor's instance
// learns only from its own access stream.
func NewAnnotation(name string, level StorageLevel, policy cachepolicy.Policy, prefetch bool) *AnnotationController {
	return &AnnotationController{name: name, level: level, policy: policy, prefetch: prefetch}
}

// Name implements Controller.
func (a *AnnotationController) Name() string { return a.name }

// Bind implements Controller. Per-executor policy clones are created
// here, up front: policyFor is on the task path, and lazily growing the
// map there would race once stages run on parallel workers.
func (a *AnnotationController) Bind(c *Cluster) {
	a.c = c
	if cl, ok := a.policy.(cachepolicy.Cloner); ok {
		a.perExec = make(map[int]cachepolicy.Policy, len(c.Executors()))
		for _, ex := range c.Executors() {
			a.perExec[ex.ID] = cl.Clone()
		}
	}
}

// ParallelCaps implements ParallelCapable. Annotation controllers keep
// no shared task-path state: policy bookkeeping lives in per-block
// metadata and per-executor policy clones, and the reference index
// (refStages, curStage) is written only at job and stage boundaries.
// The eviction disposition is fixed by the storage level, so MemDisk
// controllers never drop a memory block without a disk copy.
func (a *AnnotationController) ParallelCaps() ParallelCaps {
	return ParallelCaps{
		Safe:               true,
		SpillOnlyEvictions: a.level == MemDisk,
	}
}

// policyFor returns the executor's policy instance: a per-executor clone
// for stateful policies implementing cachepolicy.Cloner, the shared
// instance otherwise.
func (a *AnnotationController) policyFor(ex *Executor) cachepolicy.Policy {
	if a.perExec != nil {
		if p, ok := a.perExec[ex.ID]; ok {
			return p
		}
	}
	return a.policy
}

// OnJobStart rebuilds the reference index from the submitted job's DAG —
// the only dependency information annotation-based systems have.
func (a *AnnotationController) OnJobStart(j *Job) {
	a.refStages = make(map[int][]int)
	a.curStage = 0
	for _, st := range j.Stages {
		for _, d := range st.Pipeline {
			a.refStages[d.ID()] = append(a.refStages[d.ID()], st.Index)
		}
	}
}

// OnJobEnd implements Controller.
func (a *AnnotationController) OnJobEnd(j *Job) {}

// OnStageEnd advances the reference cursor and, for MRD, prefetches the
// nearest-referenced disk blocks into free memory during barrier idle
// time.
func (a *AnnotationController) OnStageEnd(st *Stage, idle []time.Duration) {
	if st.Job != nil {
		a.curStage = st.Index + 1
	}
	if !a.prefetch {
		return
	}
	for i, ex := range a.c.Executors() {
		budget := idle[i]
		if budget <= 0 {
			continue
		}
		cands := a.prefetchCandidates(ex)
		for _, meta := range cands {
			cost := a.c.Params().DiskRead(meta.Size)
			if cost > budget || meta.Size > ex.Mem.Free() {
				continue
			}
			if a.c.PromoteBlock(ex, meta.ID, false) {
				budget -= cost
			}
		}
	}
}

// prefetchCandidates lists on-disk blocks with a future reference in the
// current job, nearest first.
func (a *AnnotationController) prefetchCandidates(ex *Executor) []*storage.BlockMeta {
	var metas []*storage.BlockMeta
	for _, id := range ex.Disk.Blocks() {
		dist, ok := a.refDistance(id.Dataset)
		if !ok {
			continue
		}
		// Size, not Get: this is a metadata scan, and in real-bytes mode
		// Get would read and decode the block's file.
		size, _ := ex.Disk.Size(id)
		metas = append(metas, &storage.BlockMeta{ID: id, Size: size, RefDistance: dist})
	}
	return cachepolicy.PrefetchOrder(metas)
}

// refCount returns the number of remaining references to the dataset in
// the current job.
func (a *AnnotationController) refCount(dsID int) int {
	n := 0
	for _, idx := range a.refStages[dsID] {
		if idx >= a.curStage {
			n++
		}
	}
	return n
}

// refDistance returns the stage distance to the dataset's next reference.
func (a *AnnotationController) refDistance(dsID int) (int, bool) {
	idxs := a.refStages[dsID]
	i := sort.SearchInts(idxs, a.curStage)
	if i == len(idxs) {
		return 0, false
	}
	return idxs[i] - a.curStage, true
}

// PlaceComputed follows the user annotation at dataset granularity: every
// partition of an annotated dataset is cached, regardless of benefit
// (§3.1).
func (a *AnnotationController) PlaceComputed(ex *Executor, ds *dataflow.Dataset, part int, size int64) (Placement, Placement) {
	if !ds.IsCached() {
		return PlaceNone, PlaceNone
	}
	if a.level == MemDisk {
		return PlaceMemory, PlaceDisk
	}
	return PlaceMemory, PlaceNone
}

// SelectVictims orders the executor's resident blocks with the policy and
// returns enough of a prefix to free the requested bytes. The disposition
// is fixed by the storage level, the cost-agnostic behaviour §3.2
// describes.
func (a *AnnotationController) SelectVictims(ex *Executor, need int64) []Victim {
	blocks := ex.Mem.Blocks()
	for _, m := range blocks {
		m.RefCount = a.refCount(m.ID.Dataset)
		if d, ok := a.refDistance(m.ID.Dataset); ok {
			m.RefDistance = d
		} else {
			m.RefDistance = 1 << 20 // never referenced again in this job
		}
	}
	ordered := a.policyFor(ex).Order(blocks)
	var out []Victim
	var freed int64
	for _, m := range ordered {
		if freed >= need {
			break
		}
		out = append(out, Victim{ID: m.ID, ToDisk: a.level == MemDisk})
		freed += m.Size
	}
	return out
}

// PromoteOnDiskRead mirrors Spark's MEMORY_AND_DISK behaviour of caching
// disk-read values back into memory when the level includes memory.
func (a *AnnotationController) PromoteOnDiskRead(ex *Executor, id storage.BlockID) bool {
	return a.level == MemDisk
}

// OnBlockAccess implements Controller; access stats live in BlockMeta,
// and stateful policies (TinyLFU, LeCaR) additionally receive the event
// on the accessed executor's own instance.
func (a *AnnotationController) OnBlockAccess(ex *Executor, id storage.BlockID) {
	if sp, ok := a.policyFor(ex).(cachepolicy.StatefulPolicy); ok {
		sp.OnAccess(id)
	}
}

// OnBlockAdmitted implements Controller.
func (a *AnnotationController) OnBlockAdmitted(ex *Executor, id storage.BlockID) {
	if sp, ok := a.policyFor(ex).(cachepolicy.StatefulPolicy); ok {
		sp.OnInsert(id)
	}
}

// OnBlockRemoved implements Controller; no policy keeps state past a
// block's eviction.
func (a *AnnotationController) OnBlockRemoved(ex *Executor, id storage.BlockID) {}

// OnComputed implements Controller; annotation systems track no
// per-partition metrics.
func (a *AnnotationController) OnComputed(ex *Executor, ds *dataflow.Dataset, part int, size int64, cost time.Duration) {
}
