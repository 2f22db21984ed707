package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"
	_ "unsafe" // go:linkname

	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/datagen"
	"blaze/internal/engine"
	"blaze/internal/eventlog"
	"blaze/internal/graphx"
	"blaze/internal/metrics"
	"blaze/internal/storage"
)

// poisonReleased is internal/dataflow's test-only switch: while it is
// set, a released array is overwritten with a sentinel and the share
// guard checks every shared batch.
//
//go:linkname poisonReleased blaze/internal/dataflow.poisonReleased
var poisonReleased bool

// captureTwice is a window checkpointer that, at one boundary, captures
// the cluster twice: ref is encoded on the spot (its metrics into
// refMetrics, as the checkpoint's state gob carries them), late is left
// for the test to encode after it has changed the cluster.
type captureTwice struct {
	window     int
	ref, late  *engine.ResumeState
	refMetrics []byte
	err        error
}

func (h *captureTwice) OnWindowBoundary(c *engine.Cluster, window int) {
	if window != h.window {
		return
	}
	var err error
	if h.ref, err = c.CaptureResumeState(); err == nil {
		_, err = h.ref.Encode(nil)
		h.ref.Release()
		if err == nil {
			if h.refMetrics, err = gobBytes(h.ref.Metrics); err == nil {
				h.late, err = c.CaptureResumeState()
			}
		}
	}
	h.err = err
}

func gobBytes(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// TestCaptureIsolatedFromNextWindow: a boundary's capture encodes to the
// same bytes however the cluster changes between the capture and the
// encode. After the capture the test spills and drops every captured
// block, cleans every captured shuffle, rewrites the target states and
// runs the next window, all with released arrays poisoned; then it
// observes a captured node's partition and rewrites a role offset, an
// ordinal counter, a parent edge and the metrics in place. The late capture's blocks and buckets, encoded into
// a reused buffer, must still be byte-equal to the capture encoded at
// the boundary, and its controller payload and metrics must decode
// equal.
func TestCaptureIsolatedFromNextWindow(t *testing.T) {
	poisonReleased = true
	t.Cleanup(func() { poisonReleased = false })
	ctl := NewBlaze()
	ctx := dataflow.NewContext()
	c, err := engine.NewCluster(engine.Config{
		Executors:         4,
		Parallelism:       2,
		MemoryPerExecutor: 48 * 1024,
		Params:            costmodel.Default(),
		Controller:        ctl,
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hook := &captureTwice{window: 3}
	c.SetWindowCheckpointer(hook)
	step := graphx.PageRankStream(graphx.PageRankStreamConfig{
		Graph: datagen.GraphSpec{Seed: 11, Vertices: 1000, AvgDegree: 8},
		Parts: streamParts, ItersPerWindow: 3,
	})
	for w := 1; w <= hook.window; w++ {
		c.StartWindow()
		if w == hook.window {
			break
		}
		step(ctx, w)
	}
	if hook.err != nil {
		t.Fatal(hook.err)
	}
	ref, late := hook.ref, hook.late
	if len(ref.MemBlocks) == 0 || len(ref.DiskBlocks) == 0 || len(ref.Shuffle.Outputs) == 0 {
		t.Fatalf("capture holds %d memory blocks, %d disk blocks, %d shuffles: the test needs all three",
			len(ref.MemBlocks), len(ref.DiskBlocks), len(ref.Shuffle.Outputs))
	}

	// The storage and shuffle layers let go of everything captured.
	for i, b := range ref.MemBlocks {
		ex := c.Executors()[b.Executor]
		if i%2 == 0 && c.SpillBlock(ex, b.Meta.ID) {
			continue
		}
		c.DropBlock(ex, b.Meta.ID)
	}
	for _, b := range ref.DiskBlocks {
		c.DropBlock(c.Executors()[b.Executor], b.ID)
	}
	cleaned := 0
	for _, o := range ref.Shuffle.Outputs {
		if c.InjectShuffleLoss(o.ID) {
			cleaned++
		}
	}
	if cleaned == 0 {
		t.Fatal("no captured shuffle was complete, so none was cleaned")
	}

	// The target states are rewritten before the next window runs (its
	// re-solve replaces the map), the rest of the controller and the
	// metrics after it, in place where the capture copied them.
	for id := range ctl.targetState {
		ctl.targetState[id] = engine.PlaceDisk
	}
	ctl.targetState[storage.BlockID{Dataset: 1 << 20}] = engine.PlaceMemory
	step(ctx, hook.window)
	var node *Node
	for _, n := range ctl.lin.Nodes() {
		if n.DatasetID >= 0 && len(n.Parents) > 0 && len(n.refs.offs) > 0 && len(n.observed) > 0 && n.observed[0] {
			node = n
			break
		}
	}
	if node == nil {
		t.Fatal("no observed node with a parent and a reference offset to mutate")
	}
	ctl.lin.ObservePartition(node.DatasetID, 0, 1<<40, time.Hour)
	offs := node.refs.offs
	offs[len(offs)-1] += 1000
	ctl.lin.ordinalSeq[node.Key.Role][node.Key.Iter] += 5
	node.Parents[0].Parent.Ordinal += 100
	defer func() { node.Parents[0].Parent.Ordinal -= 100 }()
	m := c.Metrics()
	m.Executors[0].Tasks += 1000
	if len(m.RecomputeByJob) == 0 {
		t.Fatal("no per-job recomputation series to mutate")
	}
	m.RecomputeByJob[0] += time.Hour

	// The late capture encodes into a buffer of stale bytes, sized by
	// EncodedSize, as a checkpointer's reused arena is.
	arena := bytes.Repeat([]byte{0xff}, late.EncodedSize())[:0]
	_, err = late.Encode(arena)
	late.Release()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.MemBlocks {
		if !bytes.Equal(late.MemBlocks[i].Data, ref.MemBlocks[i].Data) {
			t.Errorf("memory block %v encodes differently after the cluster moved on", ref.MemBlocks[i].Meta.ID)
		}
	}
	for i := range ref.DiskBlocks {
		if !bytes.Equal(late.DiskBlocks[i].Data, ref.DiskBlocks[i].Data) {
			t.Errorf("disk block %v encodes differently after the cluster moved on", ref.DiskBlocks[i].ID)
		}
	}
	if !reflect.DeepEqual(late.Shuffle, ref.Shuffle) {
		t.Error("the shuffle snapshot encodes differently after its shuffles were cleaned")
	}
	if got, err := gobBytes(late.Metrics); err != nil || !bytes.Equal(got, hook.refMetrics) {
		t.Errorf("the captured metrics changed with the live ones (err %v)", err)
	}
	decode := func(data []byte) controllerWire {
		t.Helper()
		var w controllerWire
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
			t.Fatal(err)
		}
		return w
	}
	if got, want := decode(late.Controller), decode(ref.Controller); !reflect.DeepEqual(got, want) {
		t.Error("the controller payload decodes differently after the controller moved on")
	}
}

// TestInductionSurvivesRestore: §5.3 induction fits on the lineage's own
// nodes, visited in key order, so a controller restored from a snapshot
// predicts an unobserved partition's size and cost bit for bit as the
// live one did. The role is observed out of key order, at one iteration
// by two datasets, and every partition twice (a recomputation), with
// values of such different magnitudes that the fit's float64 sums,
// taken in another order, round to another prediction.
func TestInductionSurvivesRestore(t *testing.T) {
	bound := func() (*Controller, *dataflow.Context) {
		t.Helper()
		ctl, ctx := NewBlaze(), dataflow.NewContext()
		c, err := engine.NewCluster(engine.Config{
			Executors:         2,
			MemoryPerExecutor: 1 << 20,
			Params:            costmodel.Default(),
			Controller:        ctl,
		}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return ctl, ctx
	}
	live, ctx := bound()
	for job, obs := range []struct {
		iter int
		size int64
		cost time.Duration
	}{
		{3, 81579039858520155, 197196864459923010},
		{1, 24613210441, 17272475135843},
		{2, 27925791685, 16274321495},
		{2, 2486594842019, 205879265746},
	} {
		ds := ctx.Source("ranks@"+itoa(obs.iter), 2, func(int) []dataflow.Record { return nil })
		live.lin.ObserveJob(job, []*dataflow.Dataset{ds}, ds)
		live.lin.ObservePartition(ds.ID(), 0, 1, 1) // recomputed below
		live.lin.ObservePartition(ds.ID(), 0, obs.size, obs.cost)
	}
	future := &Node{Key: NodeKey{Role: "ranks", Iter: 4}, DatasetID: -1, Parts: 2}
	predict := func(l *CostLineage) (int64, time.Duration) {
		t.Helper()
		size, okSize := l.PartitionSize(future, 0)
		cost, okCost := l.PartitionCost(future, 0)
		if !okSize || !okCost {
			t.Fatal("no induction for an unobserved partition of an observed role")
		}
		if _, ok := l.PartitionSize(future, 1); ok {
			t.Fatal("induction for a partition no node of the role observed")
		}
		return size, cost
	}
	wantSize, wantCost := predict(live.lin)
	snap, err := live.CaptureState()()
	if err != nil {
		t.Fatal(err)
	}
	restored, _ := bound()
	if err := restored.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if size, cost := predict(restored.lin); size != wantSize || cost != wantCost {
		t.Fatalf("restored lineage inducts size %d, cost %d; the live one inducted %d, %d", size, cost, wantSize, wantCost)
	}
}

// parentSeries is one regression series as controller snapshots carried
// them when every observation was also kept per (role, partition): a
// marker, a uvarint count, then the xs and the ys as little-endian
// float64 bits, behind GobEncode.
type parentSeries struct{ xs, ys []float64 }

func (s *parentSeries) GobEncode() ([]byte, error) {
	buf := binary.AppendUvarint([]byte{0xFF, 0x00}, uint64(len(s.xs)))
	for _, v := range append(slices.Clone(s.xs), s.ys...) {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf, nil
}

// parentControllerWire is controllerWire with the per-role series that
// form carried.
type parentControllerWire struct {
	Name        string
	Profiled    bool
	CurJob      int
	CurWindow   int
	WinFirstJob int

	JobsSeen       int
	Extrapolate    bool
	Nodes          []nodeWire
	RoleRefOffsets map[string][]int
	RoleSeries     []parentRoleSeries
	OrdinalSeq     map[string]map[int]int

	Retired     []NodeKey
	TargetState map[storage.BlockID]engine.Placement
}

type parentRoleSeries struct {
	Role       string
	Size, Cost map[int]*parentSeries
}

// TestRestoreSkipsRoleSeries: a controller payload in the form that also
// carried per-role regression series restores, gob skipping the series,
// and a stream continued from it runs and prices exactly as one
// continued from the same state in the current form: the same metrics,
// event log and controller state after two more windows.
func TestRestoreSkipsRoleSeries(t *testing.T) {
	ctl := NewBlaze()
	c := pageRankStream(t, ctl, 3, nil)
	snap, err := ctl.CaptureState()()
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	var w controllerWire
	if err := gob.NewDecoder(bytes.NewReader(snap)).Decode(&w); err != nil {
		t.Fatal(err)
	}
	old := parentControllerWire{
		Name: w.Name, Profiled: w.Profiled, CurJob: w.CurJob, CurWindow: w.CurWindow, WinFirstJob: w.WinFirstJob,
		JobsSeen: w.JobsSeen, Extrapolate: w.Extrapolate, Nodes: w.Nodes, RoleRefOffsets: w.RoleRefOffsets,
		OrdinalSeq: w.OrdinalSeq, Retired: w.Retired, TargetState: w.TargetState,
	}
	role := map[string]int{}
	points := 0
	for _, nw := range w.Nodes {
		i, ok := role[nw.Key.Role]
		if !ok {
			i = len(old.RoleSeries)
			role[nw.Key.Role] = i
			old.RoleSeries = append(old.RoleSeries, parentRoleSeries{
				Role: nw.Key.Role, Size: map[int]*parentSeries{}, Cost: map[int]*parentSeries{},
			})
		}
		rs := &old.RoleSeries[i]
		for p, seen := range nw.Observed {
			if !seen {
				continue
			}
			if rs.Size[p] == nil {
				rs.Size[p], rs.Cost[p] = &parentSeries{}, &parentSeries{}
			}
			x := float64(nw.Key.Iter)
			rs.Size[p].xs, rs.Size[p].ys = append(rs.Size[p].xs, x), append(rs.Size[p].ys, float64(nw.Sizes[p]))
			rs.Cost[p].xs, rs.Cost[p].ys = append(rs.Cost[p].xs, x), append(rs.Cost[p].ys, float64(nw.Costs[p]))
			points++
		}
	}
	if points == 0 {
		t.Fatal("no observed partition to carry as a series point")
	}
	oldSnap, err := gobBytes(&old)
	if err != nil {
		t.Fatal(err)
	}
	if len(oldSnap) < len(snap)+2*16*points {
		t.Fatalf("the old form is %d bytes beside the new form's %d: its %d series points are missing", len(oldSnap), len(snap), points)
	}

	type continued struct {
		metrics *metrics.App
		events  []eventlog.Event
		state   controllerWire
	}
	resume := func(payload []byte) continued {
		t.Helper()
		ctl, ctx, log := NewBlaze(), dataflow.NewContext(), eventlog.New()
		c, err := engine.NewCluster(engine.Config{
			Executors:         4,
			Parallelism:       1,
			MemoryPerExecutor: 96 * 1024,
			Params:            costmodel.Default(),
			Controller:        ctl,
			EventLog:          log,
		}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := ctl.RestoreState(payload); err != nil {
			t.Fatal(err)
		}
		step := graphx.PageRankStream(graphx.PageRankStreamConfig{
			Graph: datagen.GraphSpec{Seed: 11, Vertices: 1000, AvgDegree: 8},
			Parts: streamParts, ItersPerWindow: 3,
		})
		for w := 1; w <= 2; w++ {
			c.StartWindow()
			step(ctx, w)
		}
		out := continued{metrics: c.Metrics(), events: log.Events()}
		data, err := ctl.CaptureState()()
		if err != nil {
			t.Fatal(err)
		}
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&out.state); err != nil {
			t.Fatal(err)
		}
		return out
	}
	fromOld, fromNew := resume(oldSnap), resume(snap)
	if len(fromNew.events) == 0 {
		t.Fatal("the continued run logged no event")
	}
	if !metrics.EqualDeterministic(fromOld.metrics, fromNew.metrics) {
		t.Error("the run continued from the old form has other metrics")
	}
	if !reflect.DeepEqual(fromOld.events, fromNew.events) {
		t.Error("the run continued from the old form logs other events")
	}
	if !reflect.DeepEqual(fromOld.state, fromNew.state) {
		t.Error("the controller continued from the old form holds another state")
	}
}
