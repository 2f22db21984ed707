package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/storage"
)

func TestExtrapolationOnlyOnTheRun(t *testing.T) {
	l := NewCostLineage()
	l.addRefOffset("r", 0)
	l.addRefOffset("r", 1)
	n := &Node{Key: NodeKey{Role: "r", Iter: 3}, CreationJob: 3}
	l.insert(n)

	// Profiled mode: offsets are complete — no refs beyond creation+1.
	if got := l.FutureJobRefs(n, 4); got != 0 {
		t.Fatalf("profiled refs after last offset = %d, want 0", got)
	}
	// On-the-run mode: one extrapolated step keeps the node alive one
	// more job.
	l.SetExtrapolate(true)
	if got := l.FutureJobRefs(n, 4); got != 1 {
		t.Fatalf("extrapolated refs = %d, want 1", got)
	}
	if got := l.LastRefJob(n); got != 3+2 {
		t.Fatalf("extrapolated LastRefJob = %d, want 5", got)
	}
	// A single-offset role never extrapolates (no pattern yet).
	l.addRefOffset("single", 0)
	s := &Node{Key: NodeKey{Role: "single", Iter: 0}, CreationJob: 0}
	l.insert(s)
	if got := l.FutureJobRefs(s, 0); got != 0 {
		t.Fatalf("single-offset role should not extrapolate, got %d", got)
	}
}

func TestLastRefJobEmptyRole(t *testing.T) {
	l := NewCostLineage()
	n := &Node{Key: NodeKey{Role: "ghost", Iter: 2}, CreationJob: 2}
	l.insert(n)
	if got := l.LastRefJob(n); got != 2 {
		t.Fatalf("LastRefJob with no offsets = %d, want creation job", got)
	}
}

// buildDeepChain registers a linear chain c0 -> c1 -> ... -> cN on a
// lineage with uniform partition metrics.
func buildDeepChain(t *testing.T, depth int, size int64, cost time.Duration) (*CostLineage, []*dataflow.Dataset) {
	t.Helper()
	ctx := dataflow.NewContext()
	dataflow.NewLocalRunner(ctx)
	l := NewCostLineage()
	var all []*dataflow.Dataset
	cur := ctx.Source("c@0", 1, func(int) []dataflow.Record { return nil })
	all = append(all, cur)
	for i := 1; i <= depth; i++ {
		cur = cur.Map("c@"+itoa(i), func(r dataflow.Record) dataflow.Record { return r })
		all = append(all, cur)
	}
	l.ObserveJob(0, all, cur)
	for _, ds := range all {
		l.ObservePartition(ds.ID(), 0, size, cost)
	}
	return l, all
}

func TestHorizonKillsDeadAncestors(t *testing.T) {
	l, chain := buildDeepChain(t, 4, 1000, time.Second)
	st := fakeState{}
	// The immediate parent is in memory now...
	parent := chain[3]
	st[storage.BlockID{Dataset: parent.ID(), Partition: 0}] = BlockState{InMemory: true}
	e := NewEstimator(l, costmodel.Default(), true, st.fn)
	// ...but its role dies at job 0 (no future offsets).
	e.AliveAt = func(n *Node, job int) bool { return job <= 0 }

	tail := l.Node(chain[4].ID())
	// At the "now" horizon the parent shortcuts the chain: 1s.
	if got := e.RecomputeCostAt(tail, 0, -1); got != time.Second {
		t.Fatalf("now-horizon cost = %v, want 1s", got)
	}
	// At a future horizon the parent is gone: the full chain (5 nodes).
	e.Reset()
	e.AliveAt = func(n *Node, job int) bool { return job <= 0 }
	if got := e.RecomputeCostAt(tail, 0, 3); got != 5*time.Second {
		t.Fatalf("future-horizon cost = %v, want 5s", got)
	}
}

// Property: putting any single block into (hypothetical) memory never
// increases any node's recomputation cost — cost monotonicity under
// cache growth.
func TestRecomputeMonotoneUnderCaching(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		depth := 2 + rng.Intn(6)
		l, chain := buildDeepChain(t, depth, 1000, time.Duration(1+rng.Intn(5))*time.Second)
		st := fakeState{}
		e := NewEstimator(l, costmodel.Default(), true, st.fn)
		tail := l.Node(chain[len(chain)-1].ID())
		base := e.RecomputeCostAt(tail, 0, -1)
		for _, ds := range chain[:len(chain)-1] {
			e.SetHypothetical(map[storage.BlockID]bool{
				{Dataset: ds.ID(), Partition: 0}: true,
			})
			withCache := e.RecomputeCostAt(tail, 0, -1)
			if withCache > base {
				t.Fatalf("trial %d: caching %s increased cost %v -> %v", trial, ds.Name(), base, withCache)
			}
		}
	}
}

// Property: deeper chains never cost less to recompute.
func TestRecomputeMonotoneInDepth(t *testing.T) {
	prev := time.Duration(0)
	for depth := 1; depth <= 8; depth++ {
		l, chain := buildDeepChain(t, depth, 100, 500*time.Millisecond)
		st := fakeState{}
		e := NewEstimator(l, costmodel.Default(), true, st.fn)
		tail := l.Node(chain[len(chain)-1].ID())
		cost := e.RecomputeCostAt(tail, 0, -1)
		if cost < prev {
			t.Fatalf("depth %d cost %v < depth %d cost %v", depth, cost, depth-1, prev)
		}
		prev = cost
	}
}

func TestWindowWidensRefsInWindow(t *testing.T) {
	ctx := dataflow.NewContext()
	dataflow.NewLocalRunner(ctx)
	b := New("w", Features{ILP: true, DiskEnabled: true})
	// Role referenced at offsets 0..3.
	src := ctx.Source("wide@0", 1, func(int) []dataflow.Record { return nil })
	b.lin.ObserveJob(0, []*dataflow.Dataset{src}, src)
	for _, off := range []int{1, 2, 3} {
		b.lin.addRefOffset("wide", off)
	}
	b.curJob = 0
	b.stageRefs = map[int][]int{}
	n := b.lin.Node(src.ID())

	b.ilpWindow = 1
	w1 := b.refsInWindow(n)
	b.ilpWindow = 3
	w3 := b.refsInWindow(n)
	if w3 <= w1 {
		t.Fatalf("wider window should see more refs: window1=%d window3=%d", w1, w3)
	}
}

func TestHorizonForAdmissionSkipsCurrentStage(t *testing.T) {
	ctx := dataflow.NewContext()
	dataflow.NewLocalRunner(ctx)
	b := New("h", Features{ILP: true, DiskEnabled: true})
	ds := ctx.Source("x@0", 1, func(int) []dataflow.Record { return nil })
	b.lin.ObserveJob(0, []*dataflow.Dataset{ds}, ds)
	b.curJob = 0
	b.curStageIdx = 1
	n := b.lin.Node(ds.ID())

	// Only the current stage references it → admission horizon must be a
	// future job, not the current one.
	b.stageRefs = map[int][]int{ds.ID(): {1}}
	if h := b.horizonForAdmission(n, ds.ID()); h <= b.curJob {
		t.Fatalf("admission horizon %d should be beyond the current job", h)
	}
	// A later stage reference keeps the horizon at the current job.
	b.stageRefs = map[int][]int{ds.ID(): {1, 2}}
	if h := b.horizonForAdmission(n, ds.ID()); h != b.curJob {
		t.Fatalf("admission horizon %d, want current job", h)
	}
	// For protection (victims), the current stage counts.
	b.stageRefs = map[int][]int{ds.ID(): {1}}
	if h := b.horizonFor(n, ds.ID()); h != b.curJob {
		t.Fatalf("victim horizon %d, want current job", h)
	}
}

// TestReferenceOffsetsMatchDefinition checks the precomputed reference
// offsets against their definition — the role's offsets, one
// extrapolated step past the last when the lineage extrapolates and the
// role has two offsets or more — through every way offsets and
// extrapolation change: learned on the run, extrapolation switched off,
// a skeleton applied, and a snapshot restored in each mode. The restores
// must also carry every retirement mark.
func TestReferenceOffsetsMatchDefinition(t *testing.T) {
	ctl := NewBlaze()
	c := pageRankStream(t, ctl, 4, nil)
	defer c.Finish()
	// Roles with no offset and with exactly one, beside the stream's own.
	ctl.lin.insert(&Node{Key: NodeKey{Role: "unreferenced", Iter: 1}, DatasetID: -1, CreationJob: 2})
	ctl.lin.addRefOffset("once", 1)
	ctl.lin.insert(&Node{Key: NodeKey{Role: "once", Iter: 1}, DatasetID: -1, CreationJob: 3})

	definition := func(l *CostLineage, role string) []int {
		var offs []int
		if r := l.roleRefs[role]; r != nil {
			offs = r.offs
		}
		if !l.extrapolate || len(offs) < 2 {
			return offs
		}
		return append(slices.Clone(offs), offs[len(offs)-1]+1)
	}
	check := func(label string, b *Controller) {
		t.Helper()
		var byCount [3]int // roles' nodes with 0, 1 and ≥2 offsets
		for _, n := range b.lin.Nodes() {
			offs := definition(b.lin, n.Key.Role)
			byCount[min(len(b.lin.roleRefs[n.Key.Role].offs), 2)]++
			last := n.CreationJob
			if len(offs) > 0 {
				last += offs[len(offs)-1]
			}
			if got := b.lin.LastRefJob(n); got != last {
				t.Errorf("%s: LastRefJob(%v) = %d, want %d", label, n.Key, got, last)
			}
			for cur := -1; cur <= b.lin.jobsSeen+2; cur++ {
				future, next, found := 0, 0, false
				for _, off := range offs {
					if j := n.CreationJob + off; j > cur {
						future++
						if !found {
							next, found = j, true
						}
					}
				}
				if got := b.lin.FutureJobRefs(n, cur); got != future {
					t.Errorf("%s: FutureJobRefs(%v, %d) = %d, want %d", label, n.Key, cur, got, future)
				}
				if got, ok := b.lin.NextRefJob(n, cur); got != next || ok != found {
					t.Errorf("%s: NextRefJob(%v, %d) = %d, %v, want %d, %v", label, n.Key, cur, got, ok, next, found)
				}
			}
			for _, window := range []int{0, 1, 3} {
				b.ilpWindow = window
				want := 0
				if n.DatasetID >= 0 {
					for _, idx := range b.stageRefs[n.DatasetID] {
						if idx >= b.curStageIdx {
							want++
						}
					}
				}
				for _, off := range offs {
					if j := n.CreationJob + off; j > b.curJob && j <= b.curJob+window {
						want++
					}
				}
				if got := b.refsInWindow(n); got != want {
					t.Errorf("%s: refsInWindow(%v) over %d jobs = %d, want %d", label, n.Key, window, got, want)
				}
			}
		}
		for k, count := range byCount {
			if count == 0 {
				t.Errorf("%s: no node of a role with %d offset(s) (2 means two or more)", label, k)
			}
		}
	}
	retiredKeys := func(b *Controller) []NodeKey {
		var keys []NodeKey
		for _, n := range b.lin.Nodes() {
			if n.retired {
				keys = append(keys, n.Key)
			}
		}
		return keys
	}
	restored := func(label string) *Controller {
		t.Helper()
		snap, err := ctl.CaptureState()()
		if err != nil {
			t.Fatal(err)
		}
		b := NewBlaze()
		defer pageRankStream(t, b, 0, nil).Finish()
		if err := b.RestoreState(snap); err != nil {
			t.Fatal(err)
		}
		if got, want := retiredKeys(b), retiredKeys(ctl); !slices.Equal(got, want) {
			t.Errorf("%s: retired nodes %v, want %v", label, got, want)
		}
		if got, want := b.Summary().Roles, ctl.Summary().Roles; !slices.Equal(got, want) {
			t.Errorf("%s: summary roles %v, want %v", label, got, want)
		}
		return b
	}

	if len(retiredKeys(ctl)) == 0 {
		t.Fatal("no node retired: the snapshot round trip would not exercise retirement")
	}
	if !ctl.lin.extrapolate {
		t.Fatal("an unprofiled controller does not extrapolate")
	}
	check("on the run", ctl)
	ctl.lin.SetExtrapolate(false)
	check("extrapolation off", ctl)
	ctl.lin.SetExtrapolate(true)
	check("extrapolation back on", ctl)
	check("restored on the run", restored("restored on the run"))
	ctl.WithSkeleton(&Skeleton{RefOffsets: map[string][]int{"once": {4}, "profiled": {0, 2, 5}}})
	ctl.lin.insert(&Node{Key: NodeKey{Role: "profiled", Iter: 2}, DatasetID: -1, CreationJob: 4})
	check("after a skeleton", ctl)
	check("restored after a skeleton", restored("restored after a skeleton"))
}
