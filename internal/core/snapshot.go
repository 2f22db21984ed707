package core

// This file implements the controller half of window-boundary
// checkpointing: CaptureState captures, and its encoder serializes,
// everything the unified decision layer accumulates over a run (the
// CostLineage with its nodes' observed metrics, reference offsets and
// ordinal counters; the windowed-lineage retirement marks; the
// optimizer's target states) into a self-contained gob payload, and
// RestoreState rehydrates a freshly Bind-ed controller from one. §5.3
// induction fits on the nodes' metrics when asked, so it carries no
// state of its own. The estimators and victim orders are
// deliberately not serialized — what they keep between decision rounds
// is a cache, dropped by the epoch bump below and rebuilt on demand —
// and they hold a pointer to the lineage, which is why RestoreState
// mutates the bound lineage in place instead of swapping the pointer.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"blaze/internal/engine"
	"blaze/internal/storage"
)

// nodeWire is the gob form of a lineage Node (the metric slices are
// unexported on Node itself).
type nodeWire struct {
	Key         NodeKey
	Parents     []Edge
	DatasetID   int
	Parts       int
	CreationJob int
	TouchedJob  int
	Sizes       []int64
	Costs       []time.Duration
	Observed    []bool
}

// controllerWire is the complete serialized controller state. Snapshots
// from builds that also persisted a solution memo, a per-executor last
// assignment or per-role regression series still decode: gob skips the
// fields this type lacks.
type controllerWire struct {
	Name        string
	Profiled    bool
	CurJob      int
	CurWindow   int
	WinFirstJob int

	// Lineage.
	JobsSeen       int
	Extrapolate    bool
	Nodes          []nodeWire
	RoleRefOffsets map[string][]int
	OrdinalSeq     map[string]map[int]int

	// Windowed-lineage and optimizer state.
	Retired     []NodeKey
	TargetState map[storage.BlockID]engine.Placement
}

// CaptureState implements engine.StateSnapshotter: it captures the
// controller's durable state for a window-boundary checkpoint and
// returns the encoder of the capture. Intended to run in driver context
// at a window boundary (after AdvanceWindow), where stageRefs is empty
// and curStageIdx is zero — those two are the only fields not captured,
// and RestoreState resets them to exactly that boundary state.
//
// The capture copies what the controller writes in place later: every
// node's metric slices and parent edges, the role reference offsets
// (slices.Insert shifts them), the ordinal counters and the target
// states. The encoder therefore shares nothing the controller writes,
// and may run on another goroutine while the next window runs.
func (b *Controller) CaptureState() (encode func() ([]byte, error)) {
	lin := b.lin
	w := &controllerWire{
		Name:           b.name,
		Profiled:       b.profiled,
		CurJob:         b.curJob,
		CurWindow:      b.curWindow,
		WinFirstJob:    b.winFirstJob,
		JobsSeen:       lin.jobsSeen,
		Extrapolate:    lin.extrapolate,
		RoleRefOffsets: make(map[string][]int, len(lin.roleRefs)),
		OrdinalSeq:     make(map[string]map[int]int, len(lin.ordinalSeq)),
		TargetState:    maps.Clone(b.targetState),
	}
	for role, r := range lin.roleRefs {
		if len(r.offs) > 0 {
			w.RoleRefOffsets[role] = slices.Clone(r.offs)
		}
	}
	for role, seq := range lin.ordinalSeq {
		w.OrdinalSeq[role] = maps.Clone(seq)
	}

	// The nodes' slices are copied into one array per element type.
	nodes := lin.Nodes()
	var parts, edges int
	for _, n := range nodes {
		parts += len(n.sizes)
		edges += len(n.Parents)
	}
	sizes, costs := make([]int64, 0, parts), make([]time.Duration, 0, parts)
	observed, parents := make([]bool, 0, parts), make([]Edge, 0, edges)
	w.Nodes = make([]nodeWire, len(nodes))
	for i, n := range nodes {
		if n.retired {
			w.Retired = append(w.Retired, n.Key) // Nodes is sorted by key
		}
		w.Nodes[i] = nodeWire{
			Key: n.Key, DatasetID: n.DatasetID,
			Parts: n.Parts, CreationJob: n.CreationJob, TouchedJob: n.TouchedJob,
			Parents:  tail(&parents, n.Parents),
			Sizes:    tail(&sizes, n.sizes),
			Costs:    tail(&costs, n.costs),
			Observed: tail(&observed, n.observed),
		}
	}

	return func() ([]byte, error) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			return nil, fmt.Errorf("core: snapshot controller: %w", err)
		}
		return buf.Bytes(), nil
	}
}

// tail appends src to *arena, which has room for it, and returns the
// appended elements as a slice of their own length and capacity (nil
// for an empty src, as gob would decode it).
func tail[T any](arena *[]T, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	at := len(*arena)
	*arena = append(*arena, src...)
	return (*arena)[at:len(*arena):len(*arena)]
}

// RestoreState implements engine.StateSnapshotter: it rehydrates the
// controller from a payload CaptureState's encoder wrote. Must be called
// after Bind on a cluster with the same executor count as the
// snapshotting run (the session checks that against the engine snapshot
// before replay).
func (b *Controller) RestoreState(data []byte) error {
	var w controllerWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("core: restore controller: %w", err)
	}
	if b.c == nil {
		return fmt.Errorf("core: restore controller: not bound to a cluster")
	}

	// Rebuild the lineage in place: the estimators created at Bind hold
	// a pointer to it.
	lin := b.lin
	lin.nodes = make(map[NodeKey]*Node, len(w.Nodes))
	lin.byID = make(map[int]*Node, len(w.Nodes))
	lin.extrapolate = w.Extrapolate
	lin.roleRefs = make(map[string]*roleRefs, len(w.RoleRefOffsets))
	lin.roleNodes = make(map[string][]*Node)
	for role, offs := range w.RoleRefOffsets {
		r := lin.refsFor(role)
		r.offs = offs
		r.update(lin.extrapolate)
	}
	for _, nw := range w.Nodes {
		n := &Node{
			Key: nw.Key, Parents: nw.Parents, DatasetID: nw.DatasetID,
			Parts: nw.Parts, CreationJob: nw.CreationJob, TouchedJob: nw.TouchedJob,
			sizes: nw.Sizes, costs: nw.Costs, observed: nw.Observed,
		}
		lin.insert(n)
		if n.DatasetID >= 0 {
			lin.byID[n.DatasetID] = n
		}
		lin.observed = grown(lin.observed, n.Parts)
	}
	for _, key := range w.Retired {
		if n := lin.nodes[key]; n != nil {
			n.retired = true
		}
	}
	lin.resolveEdges()
	lin.ordinalSeq = w.OrdinalSeq
	if lin.ordinalSeq == nil {
		lin.ordinalSeq = make(map[string]map[int]int)
	}
	lin.jobsSeen = w.JobsSeen

	b.profiled = w.Profiled
	b.curJob = w.CurJob
	b.curWindow = w.CurWindow
	b.winFirstJob = w.WinFirstJob
	b.curStageIdx = 0
	b.stageRefs = make(map[int][]int)
	b.epoch++
	b.targetState = w.TargetState
	if b.targetState == nil {
		b.targetState = make(map[storage.BlockID]engine.Placement)
	}
	return nil
}

// StateSummary is the human-readable digest of a controller snapshot
// recorded in the checkpoint manifest: the live role@iteration ids, the
// blocks the most recent solve assigned to memory (its targetState's
// memory entries, keyed by home executor).
type StateSummary struct {
	Roles      []string `json:"roles,omitempty"`
	LastChosen []string `json:"last_chosen,omitempty"`
}

// Summary builds the manifest digest for the current state.
func (b *Controller) Summary() StateSummary {
	var s StateSummary
	for _, n := range b.lin.Nodes() {
		if n.retired {
			continue
		}
		id := fmt.Sprintf("%s@%d", n.Key.Role, n.Key.Iter)
		if n.Key.Ordinal > 0 {
			id = fmt.Sprintf("%s.%d", id, n.Key.Ordinal)
		}
		s.Roles = append(s.Roles, id)
	}
	type homed struct {
		ex int
		id storage.BlockID
	}
	var mem []homed
	for id, tgt := range b.targetState {
		if tgt == engine.PlaceMemory {
			mem = append(mem, homed{b.c.ExecutorFor(id.Partition).ID, id})
		}
	}
	sort.Slice(mem, func(x, y int) bool {
		a, c := mem[x], mem[y]
		if a.ex != c.ex {
			return a.ex < c.ex
		}
		if a.id.Dataset != c.id.Dataset {
			return a.id.Dataset < c.id.Dataset
		}
		return a.id.Partition < c.id.Partition
	})
	for _, m := range mem {
		s.LastChosen = append(s.LastChosen, fmt.Sprintf("e%d:%d/%d", m.ex, m.id.Dataset, m.id.Partition))
	}
	return s
}
