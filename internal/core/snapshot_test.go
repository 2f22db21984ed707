package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"
	_ "unsafe" // go:linkname

	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/datagen"
	"blaze/internal/engine"
	"blaze/internal/graphx"
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
// observes a captured node's partition and a captured series, and
// rewrites a role offset, an ordinal counter, a parent edge and the
// metrics in place. The late capture's blocks and buckets, encoded into
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
	rm := ctl.lin.roleMetrics[node.Key.Role]
	rm.size[1].Observe(1e6, 1e6)
	rm.cost[1].Observe(1e6, 1e6)
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
