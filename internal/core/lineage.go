// Package core implements the paper's primary contribution: Blaze's
// unified cost-aware caching mechanism. It contains
//
//   - the CostLineage (§5.3): a merged multi-job lineage of dataset
//     "roles" across iterations, tracking per-partition metrics (size,
//     computation time) observed during execution and inducting
//     unobserved metrics by linear regression over the role's nodes;
//   - the potential recovery cost estimator (§5.4, Eq. 2-4);
//   - the ILP-based optimal partition state solver (§5.5, Eq. 5-6);
//   - the unified decision layer (§5.6): an engine.Controller that makes
//     caching, eviction and recovery decisions together, replacing the
//     three separate operational layers of existing systems;
//   - the dependency extraction (profiling) phase (§5.1 step 1).
package core

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"blaze/internal/dataflow"
	"blaze/internal/regression"
)

// NodeKey identifies a dataset role instance across jobs: the congruent
// datasets "ranks@3" of different jobs merge into one node, as the
// CostLineage merges duplicate RDDs (Fig. 8). Ordinal disambiguates
// datasets that share a role name within one iteration.
type NodeKey struct {
	Role    string
	Iter    int
	Ordinal int
}

// ParseName splits a dataset name "role@iter" into its role and
// iteration. Names without '@' are iteration 0.
func ParseName(name string) (role string, iter int) {
	if i := strings.LastIndex(name, "@"); i >= 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], n
		}
	}
	return name, 0
}

// Edge is one lineage dependency between nodes.
type Edge struct {
	Parent  NodeKey
	Shuffle bool
	// ShuffleID identifies the shuffle whose persisted outputs (when
	// still present) make recomputation across this edge cheap.
	ShuffleID int

	// node is Parent resolved on the lineage that holds the edge, so the
	// cost recursion follows pointers instead of hashing keys. Set where
	// edges enter a lineage (RegisterDataset, resolveEdges); unexported,
	// so skeletons and snapshots carry the key only.
	node *Node
}

// Node is one dataset role instance on the CostLineage with its observed
// per-partition metrics, which are also the points §5.3 induction fits.
type Node struct {
	Key     NodeKey
	Parents []Edge
	// DatasetID is the id of the real dataset mapped to this node, or -1
	// for nodes known only from profiling/induction.
	DatasetID int
	// Parts is the partition count (0 until known).
	Parts int
	// CreationJob is the job index in which the node first appeared.
	CreationJob int
	// TouchedJob is the last job index that actually referenced the node
	// (created it, computed one of its direct children, or targeted it
	// with an action). Windowed lineage retirement compares it against
	// window boundaries to detect partitions whose lifetime has passed.
	TouchedJob int

	// sizes and costs hold observed per-partition metrics; observed
	// marks which partitions have real measurements.
	sizes    []int64
	costs    []time.Duration
	observed []bool

	// seq is the node's dense number on its lineage, assigned where the
	// lineage inserts it (RegisterDataset, ApplySkeleton, RestoreState);
	// the estimators index their cost memos by it. refs is the node's
	// role's reference offsets, so reference questions follow a pointer
	// instead of hashing the role. Both are set in driver context.
	seq  int
	refs *roleRefs
	// retired marks a node whose lifetime windowed retirement ended: it
	// is no candidate and no recomputation shortcut. Set by the
	// controller at window boundaries (driver context).
	retired bool
}

// roleRefs is one role's reference offsets: offs as observed or profiled
// (sorted; the form snapshots carry) and eff, offs extended by the
// on-the-run extrapolated step when the lineage extrapolates — what every
// reference question reads. eff is recomputed in driver context whenever
// offs or the lineage's extrapolation changes.
type roleRefs struct {
	offs, eff []int
}

// update recomputes eff from offs, reusing its array.
func (r *roleRefs) update(extrapolate bool) {
	r.eff = append(r.eff[:0], r.offs...)
	if extrapolate && len(r.offs) >= 2 {
		r.eff = append(r.eff, r.offs[len(r.offs)-1]+1)
	}
}

// CostLineage tracks the merged workload lineage and partition metrics.
// Every node it holds carries a dense sequence number (Node.seq) and a
// pointer to its role's reference offsets, both set where the node is
// inserted, so the Eq. 4 recursion neither hashes a key nor allocates.
//
// Concurrency: structural registration (RegisterDataset, ObserveJob,
// ApplySkeleton) happens only in driver context at job boundaries; every
// dataset a stage can compute is an ancestor of the job target and is
// registered at job start, so no structural insert occurs while tasks
// run. Per-partition metric observation and lookup do run on the task
// path, and those three methods serialize under metricsMu (a leaf lock).
// Metric content is still deterministic under parallel execution:
// partition p of every node — all that a lookup of partition p reads,
// induction included — is observed and read only by p's home executor,
// whose task order the parallel scheduler preserves.
type CostLineage struct {
	// metricsMu guards the per-node metric slices (sizes, costs,
	// observed) against concurrent task-path observation and lookup. Leaf
	// lock: nothing else is acquired while it is held.
	metricsMu sync.RWMutex

	nodes map[NodeKey]*Node
	byID  map[int]*Node

	// roleRefs maps role → the job-index offsets (relative to a node's
	// creation job) at which instances of the role are referenced. With
	// profiling the offsets come from the extracted skeleton; on the run
	// they are learned from observed jobs, which underestimates future
	// usage until the pattern has been seen (§7.5).
	roleRefs map[string]*roleRefs
	// roleNodes holds each role's nodes in key order: the points §5.3
	// induction fits, visited in an order a restored lineage repeats.
	roleNodes map[string][]*Node

	// extrapolate enables one-step reference extrapolation (see
	// SetExtrapolate).
	extrapolate bool

	// ordinalSeq tracks how many datasets of each (role, iter) have been
	// registered, assigning ordinals deterministically by creation order.
	ordinalSeq map[string]map[int]int

	// jobsSeen counts jobs registered from the real run.
	jobsSeen int

	// observed counts ObservePartition calls per partition index: every
	// metric PartitionSize/PartitionCost can return for partition p —
	// the node's own observation, or the fit over its role's nodes'
	// observations at p — changes only there, so an estimate that read
	// partition p's metrics stays valid while observed[p] does. Sized
	// with the nodes (driver context); element p is written and read only
	// by p's home executor.
	observed []uint64
}

// NewCostLineage creates an empty lineage (the on-the-run mode). Apply a
// profiled Skeleton with ApplySkeleton to enable full future-reference
// knowledge.
func NewCostLineage() *CostLineage {
	return &CostLineage{
		nodes:      make(map[NodeKey]*Node),
		byID:       make(map[int]*Node),
		roleRefs:   make(map[string]*roleRefs),
		roleNodes:  make(map[string][]*Node),
		ordinalSeq: make(map[string]map[int]int),
	}
}

// SetExtrapolate switches one-step reference extrapolation: a role that
// has been referenced at two or more job offsets is assumed to be
// referenced one job beyond its last observed offset. This is how the
// on-the-run mode (no dependency extraction, §7.5) retains static
// datasets that every iteration reads — without it, the last observed
// offset always trails the current job and such data would be
// unpersisted after every job. Profiled lineages have complete offsets
// and disable it. Driver context only.
func (l *CostLineage) SetExtrapolate(on bool) {
	l.extrapolate = on
	for _, r := range l.roleRefs {
		r.update(on)
	}
}

// refsFor returns the role's reference offsets, creating an empty entry
// on first use. Driver context only.
func (l *CostLineage) refsFor(role string) *roleRefs {
	r := l.roleRefs[role]
	if r == nil {
		r = &roleRefs{}
		l.roleRefs[role] = r
	}
	return r
}

// insert adds a node under a key not yet held, numbering it, pointing it
// at its role's reference offsets and placing it among its role's nodes.
// Nodes are never removed, so the numbers are dense. Driver context only.
func (l *CostLineage) insert(n *Node) {
	n.seq = len(l.nodes)
	n.refs = l.refsFor(n.Key.Role)
	l.nodes[n.Key] = n
	rn := l.roleNodes[n.Key.Role]
	i := sort.Search(len(rn), func(i int) bool { return keyLess(n.Key, rn[i].Key) })
	l.roleNodes[n.Key.Role] = slices.Insert(rn, i, n)
}

// Node returns the lineage node for a real dataset id, or nil.
func (l *CostLineage) Node(datasetID int) *Node { return l.byID[datasetID] }

// Nodes returns all nodes sorted by key for deterministic iteration.
func (l *CostLineage) Nodes() []*Node {
	out := make([]*Node, 0, len(l.nodes))
	for _, n := range l.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i].Key, out[j].Key) })
	return out
}

func keyLess(a, b NodeKey) bool {
	if a.Role != b.Role {
		return a.Role < b.Role
	}
	if a.Iter != b.Iter {
		return a.Iter < b.Iter
	}
	return a.Ordinal < b.Ordinal
}

// keyFor assigns the NodeKey for a dataset, disambiguating duplicate
// (role, iter) names by creation order. seq must be reset per run so
// profiling and the real run assign identical ordinals.
func keyFor(seq map[string]map[int]int, ds *dataflow.Dataset) NodeKey {
	role, iter := ParseName(ds.Name())
	m := seq[role]
	if m == nil {
		m = make(map[int]int)
		seq[role] = m
	}
	ord := m[iter]
	m[iter] = ord + 1
	return NodeKey{Role: role, Iter: iter, Ordinal: ord}
}

// RegisterDataset maps a real dataset onto the lineage, creating or
// merging its node. Parents must already be registered (datasets are
// created parents-first).
func (l *CostLineage) RegisterDataset(ds *dataflow.Dataset, jobIdx int) *Node {
	if n, ok := l.byID[ds.ID()]; ok {
		return n
	}
	key := keyFor(l.ordinalSeq, ds)
	n, ok := l.nodes[key]
	if !ok {
		n = &Node{Key: key, DatasetID: -1, CreationJob: jobIdx, TouchedJob: jobIdx}
		l.insert(n)
	}
	if jobIdx > n.TouchedJob {
		n.TouchedJob = jobIdx
	}
	n.DatasetID = ds.ID()
	if n.Parts == 0 {
		n.Parts = ds.Partitions()
	}
	if n.sizes == nil {
		n.sizes = make([]int64, n.Parts)
		n.costs = make([]time.Duration, n.Parts)
		n.observed = make([]bool, n.Parts)
	}
	l.observed = grown(l.observed, n.Parts)
	if len(n.Parents) == 0 {
		for _, dep := range ds.Deps() {
			if pn, ok := l.byID[dep.Parent.ID()]; ok {
				n.Parents = append(n.Parents, Edge{Parent: pn.Key, Shuffle: dep.Shuffle, ShuffleID: dep.ShuffleID, node: pn})
			}
		}
	}
	l.byID[ds.ID()] = n
	return n
}

// ObserveJob records a submitted job: registers its datasets and learns
// role reference offsets. A dataset is *referenced* by a job when the job
// creates one of its direct children (the child's computation reads it)
// or when it is the job's action target — not merely by being in the
// job's transitive ancestry, since cached children truncate access to
// older data.
func (l *CostLineage) ObserveJob(jobIdx int, datasets []*dataflow.Dataset, target *dataflow.Dataset) {
	for _, ds := range datasets {
		n := l.RegisterDataset(ds, jobIdx)
		if n.CreationJob == jobIdx {
			// Computed this job: references each direct parent now.
			l.addRefOffset(n.Key.Role, 0)
			for _, e := range n.Parents {
				if pn := l.nodes[e.Parent]; pn != nil {
					l.addRefOffset(pn.Key.Role, jobIdx-pn.CreationJob)
					if jobIdx > pn.TouchedJob {
						pn.TouchedJob = jobIdx
					}
				}
			}
		}
	}
	if target != nil {
		if tn := l.byID[target.ID()]; tn != nil {
			l.addRefOffset(tn.Key.Role, jobIdx-tn.CreationJob)
			if jobIdx > tn.TouchedJob {
				tn.TouchedJob = jobIdx
			}
		}
	}
	if jobIdx >= l.jobsSeen {
		l.jobsSeen = jobIdx + 1
	}
}

func (l *CostLineage) addRefOffset(role string, off int) {
	r := l.refsFor(role)
	i := sort.SearchInts(r.offs, off)
	if i < len(r.offs) && r.offs[i] == off {
		return
	}
	r.offs = slices.Insert(r.offs, i, off)
	r.update(l.extrapolate)
}

// FutureJobRefs returns how many jobs strictly after curJob are expected
// to reference the node, based on the role's reference offsets.
func (l *CostLineage) FutureJobRefs(n *Node, curJob int) int {
	count := 0
	for _, off := range n.refs.eff {
		if n.CreationJob+off > curJob {
			count++
		}
	}
	return count
}

// LastRefJob returns the last job expected to reference the node: its
// creation job plus the role's largest reference offset. After that job,
// Blaze's auto-unpersist reclaims the node's partitions.
func (l *CostLineage) LastRefJob(n *Node) int {
	offs := n.refs.eff
	if len(offs) == 0 {
		return n.CreationJob
	}
	return n.CreationJob + offs[len(offs)-1]
}

// NextRefJob returns the index of the next job (> curJob) expected to
// reference the node, or false.
func (l *CostLineage) NextRefJob(n *Node, curJob int) (int, bool) {
	for _, off := range n.refs.eff {
		if j := n.CreationJob + off; j > curJob {
			return j, true
		}
	}
	return 0, false
}

// ObservePartition records the measured size and computation time of a
// partition (step 5 of Fig. 7: executors report metadata back). A
// recomputed partition keeps its latest measurement.
func (l *CostLineage) ObservePartition(datasetID, part int, size int64, cost time.Duration) {
	n := l.byID[datasetID]
	if n == nil || part >= n.Parts {
		return
	}
	l.metricsMu.Lock()
	defer l.metricsMu.Unlock()
	n.sizes[part] = size
	n.costs[part] = cost
	n.observed[part] = true
	l.observed[part]++
}

// grown returns s extended with zeros to at least n elements.
func grown(s []uint64, n int) []uint64 {
	if n > len(s) {
		s = append(s, make([]uint64, n-len(s))...)
	}
	return s
}

// Observations returns how many times partition index part has been
// observed, across all datasets (see CostLineage.observed).
func (l *CostLineage) Observations(part int) uint64 {
	if part < len(l.observed) {
		return l.observed[part]
	}
	return 0
}

// resolveEdges points every edge at its parent node; call after nodes
// were inserted by key (ApplySkeleton, RestoreState).
func (l *CostLineage) resolveEdges() {
	for _, n := range l.nodes {
		for i := range n.Parents {
			n.Parents[i].node = l.nodes[n.Parents[i].Parent]
		}
	}
}

// PartitionSize returns the partition's size: the observation when
// available, otherwise the induction from its role (§5.3), otherwise
// false.
func (l *CostLineage) PartitionSize(n *Node, part int) (int64, bool) {
	if n == nil {
		return 0, false
	}
	l.metricsMu.RLock()
	defer l.metricsMu.RUnlock()
	if part < len(n.observed) && n.observed[part] {
		return n.sizes[part], true
	}
	v, ok := l.induce(n, part, func(m *Node) float64 { return float64(m.sizes[part]) })
	return int64(v), ok
}

// PartitionCost returns the partition's computation time, observed or
// inducted.
func (l *CostLineage) PartitionCost(n *Node, part int) (time.Duration, bool) {
	if n == nil {
		return 0, false
	}
	l.metricsMu.RLock()
	defer l.metricsMu.RUnlock()
	if part < len(n.observed) && n.observed[part] {
		return n.costs[part], true
	}
	v, ok := l.induce(n, part, func(m *Node) float64 { return float64(m.costs[part]) })
	return time.Duration(v), ok
}

// induce predicts a metric of n's partition part (§5.3): the
// least-squares line over the iteration index through the metric at part
// of every node of n's role observed there, evaluated at n's iteration.
// The nodes are visited in key order, so a restored lineage predicts
// exactly what the live one did. False when no node of the role observed
// part. Caller holds metricsMu.
func (l *CostLineage) induce(n *Node, part int, metric func(*Node) float64) (float64, bool) {
	var xs, ys []float64
	for _, m := range l.roleNodes[n.Key.Role] {
		if part < len(m.observed) && m.observed[part] {
			xs = append(xs, float64(m.Key.Iter))
			ys = append(ys, metric(m))
		}
	}
	fit, err := regression.Fit(xs, ys)
	if err != nil {
		return 0, false
	}
	return fit.PredictNonNegative(float64(n.Key.Iter)), true
}
