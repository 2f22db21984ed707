package core

import (
	"sort"
	"time"

	"blaze/internal/dataflow"
)

// Workload is a driver program parameterized by input scale. The
// dependency extraction phase runs it at a tiny scale (the paper uses
// < 1 MB of the original input, §5.1); the real run uses scale 1.
type Workload func(ctx *dataflow.Context, scale float64)

// DefaultProfilingOverhead is the virtual time charged for the
// dependency extraction phase. The paper bounds profiling by a 10 s
// timeout and reports < 4% of ACT; with this harness's virtual-time
// scale (ACTs of hundreds of milliseconds standing in for the paper's
// thousands of seconds) a fixed 10 ms reproduces that accounting.
const DefaultProfilingOverhead = 10 * time.Millisecond

// Skeleton is the output of the dependency extraction phase: the
// structure of every job the workload submits, with role-level reference
// offsets and lineage edges, but no metrics (those are observed and
// inducted at runtime).
type Skeleton struct {
	// Jobs is the number of jobs the profiled run submitted.
	Jobs int
	// RefOffsets maps each role to the sorted job offsets (relative to
	// an instance's creation job) at which the role is referenced.
	RefOffsets map[string][]int
	// Nodes holds the structural lineage: parents per node key.
	Nodes map[NodeKey]*Node
}

// Profile runs the workload on a tiny sample through the reference
// evaluator, capturing the submitted job DAGs into a Skeleton — Blaze's
// dependency extraction phase (Fig. 7, steps 1-2). Because the sample is
// minuscule, no caching behaviour interferes and the full multi-job
// lineage (including all iterations) is captured.
func Profile(w Workload, sampleScale float64) *Skeleton {
	ctx := dataflow.NewContext()
	runner := dataflow.NewLocalRunner(ctx)
	w(ctx, sampleScale)

	sk := &Skeleton{
		RefOffsets: make(map[string][]int),
		Nodes:      make(map[NodeKey]*Node),
	}
	seq := make(map[string]map[int]int)
	byID := make(map[int]*Node)
	offsetSeen := make(map[string]map[int]bool)
	addOffset := func(role string, off int) {
		m := offsetSeen[role]
		if m == nil {
			m = make(map[int]bool)
			offsetSeen[role] = m
		}
		if !m[off] {
			m[off] = true
			sk.RefOffsets[role] = append(sk.RefOffsets[role], off)
		}
	}

	for jobIdx, target := range runner.JobTargets {
		// Iterate the job's datasets in dataset-id (creation) order so
		// ordinal assignment matches the real run's registration order.
		members := append(target.Ancestors(), target)
		sort.Slice(members, func(i, j int) bool { return members[i].ID() < members[j].ID() })
		for _, ds := range members {
			if _, seen := byID[ds.ID()]; seen {
				continue
			}
			key := keyFor(seq, ds)
			n := &Node{Key: key, DatasetID: -1, CreationJob: jobIdx, Parts: ds.Partitions()}
			for _, dep := range ds.Deps() {
				if pn, ok := byID[dep.Parent.ID()]; ok {
					n.Parents = append(n.Parents, Edge{Parent: pn.Key, Shuffle: dep.Shuffle, ShuffleID: dep.ShuffleID})
				}
			}
			byID[ds.ID()] = n
			sk.Nodes[key] = n
			// A dataset computed in this job references its direct
			// parents now (same reference rule as ObserveJob).
			addOffset(key.Role, 0)
			for _, e := range n.Parents {
				if pn := sk.Nodes[e.Parent]; pn != nil {
					addOffset(pn.Key.Role, jobIdx-pn.CreationJob)
				}
			}
		}
		if tn := byID[target.ID()]; tn != nil {
			addOffset(tn.Key.Role, jobIdx-tn.CreationJob)
		}
	}
	sk.Jobs = len(runner.JobTargets)
	for role := range sk.RefOffsets {
		sort.Ints(sk.RefOffsets[role])
	}
	return sk
}

// ApplySkeleton seeds a lineage with the profiled structure: reference
// offsets for every role and structural nodes for datasets that have not
// been created yet, enabling the ILP to reason about upcoming partitions.
func (l *CostLineage) ApplySkeleton(sk *Skeleton) {
	for role, offs := range sk.RefOffsets {
		for _, off := range offs {
			l.addRefOffset(role, off)
		}
	}
	for key, n := range sk.Nodes {
		if _, ok := l.nodes[key]; ok {
			continue
		}
		l.insert(&Node{
			Key:         key,
			DatasetID:   -1,
			Parents:     append([]Edge(nil), n.Parents...),
			CreationJob: n.CreationJob,
			Parts:       n.Parts,
		})
	}
	l.resolveEdges()
}
