package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"blaze/internal/core"
	"blaze/internal/dataflow"
	"blaze/internal/engine"
	"blaze/internal/storage"
)

// Outside-in tracing. Everything here lives in the benchmark: spans are
// recorded around the calls into each layer — an engine.TaskHook for
// job/stage/task boundaries, a timing decorator around the
// engine.Controller, wrappers around the driver closure, the profile
// and the checkpointer — never inside the program. Spans stay in
// memory and are written to bench/out/<workload>.trace.json when the
// run ends.

type spanKind uint8

const (
	spanOp spanKind = iota
	spanProfile
	spanDriver
	spanJob
	spanStage
	spanJobTail // job span's remainder after its last stage barrier
	spanTask
	spanFetch // instant: a shuffle-fetch attempt started
	spanAdvanceWindow
	spanCheckpoint
	spanCtlOnJobStart
	spanCtlOnJobEnd
	spanCtlOnStageEnd
	spanCtlPlaceComputed
	spanCtlSelectVictims
	spanCtlPromoteOnDiskRead
	spanCtlOnBlockAccess
	spanCtlOnBlockAdmitted
	spanCtlOnBlockRemoved
	spanCtlOnComputed
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "core.profile", "dataflow.driver", "engine.job", "engine.stage", "engine.job_tail",
	"engine.task", "shuffle.fetch", "ctl.advance_window", "checkpoint.commit",
	"ctl.on_job_start", "ctl.on_job_end", "ctl.on_stage_end", "ctl.place_computed",
	"ctl.select_victims", "ctl.promote_on_disk_read", "ctl.on_block_access",
	"ctl.on_block_admitted", "ctl.on_block_removed", "ctl.on_computed",
}

func (k spanKind) isCtl() bool { return k == spanAdvanceWindow || k >= spanCtlOnJobStart }

// ref names a span by the slot that recorded it and its index there.
type ref struct {
	slot int16
	idx  int32
}

var noRef = ref{slot: -1}

type span struct {
	start, end int64 // ns since the recorder's origin
	parent     ref
	op         int32
	exec       int16 // executor id, -1 for driver context
	kind       spanKind
	// nested marks a controller callback made from inside another
	// controller callback (OnStageEnd dropping blocks fires
	// OnBlockRemoved); totals count only the outer one.
	nested bool
}

// slot is one goroutine's span log: one per executor (a stage's tasks
// for an executor run on one worker at a time) plus one for driver
// context. Only the owning goroutine appends; the driver reads the
// executor slots between stages, ordered by the engine's stage join.
type slot struct {
	spans []span
	stack []int32 // open spans, innermost last
	_     [64]byte
}

type recorder struct {
	origin time.Time
	slots  []slot // executors 0..n-1, then the driver slot
	op     int32
	// ctlDepth is the driver-context callback depth: while positive,
	// callbacks arriving with an executor are nested in a driver-context
	// callback. Worker goroutines only run while the driver is blocked
	// in a stage, where it is zero.
	ctlDepth int
}

func newRecorder(executors int) *recorder {
	return &recorder{origin: time.Now(), slots: make([]slot, executors+1), op: -1}
}

func (r *recorder) driver() int { return len(r.slots) - 1 }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// begin opens a span in the slot. Its parent is the slot's innermost
// open span, else the driver's (the enclosing stage or job).
func (r *recorder) begin(slotIdx int, kind spanKind) int32 {
	s := &r.slots[slotIdx]
	parent := noRef
	if n := len(s.stack); n > 0 {
		parent = ref{slot: int16(slotIdx), idx: s.stack[n-1]}
	} else if d := &r.slots[r.driver()]; slotIdx != r.driver() && len(d.stack) > 0 {
		parent = ref{slot: int16(r.driver()), idx: d.stack[len(d.stack)-1]}
	}
	exec := int16(slotIdx)
	if slotIdx == r.driver() {
		exec = -1
	}
	idx := int32(len(s.spans))
	s.spans = append(s.spans, span{start: r.now(), parent: parent, op: r.op, exec: exec, kind: kind})
	s.stack = append(s.stack, idx)
	return idx
}

func (r *recorder) end(slotIdx int, idx int32) {
	s := &r.slots[slotIdx]
	s.spans[idx].end = r.now()
	s.stack = s.stack[:len(s.stack)-1]
}

// beginCtl opens a controller-callback span, marking it nested when
// another callback is already open on this goroutine.
func (r *recorder) beginCtl(slotIdx int, kind spanKind) int32 {
	s := &r.slots[slotIdx]
	nested := r.ctlDepth > 0
	if n := len(s.stack); n > 0 && s.spans[s.stack[n-1]].kind.isCtl() {
		nested = true
	}
	idx := r.begin(slotIdx, kind)
	s.spans[idx].nested = nested
	if slotIdx == r.driver() {
		r.ctlDepth++
	}
	return idx
}

func (r *recorder) endCtl(slotIdx int, idx int32) {
	if slotIdx == r.driver() {
		r.ctlDepth--
	}
	r.end(slotIdx, idx)
}

// ---------------------------------------------------------------------
// engine.TaskHook: job, stage, task and fetch boundaries.

type spanHook struct {
	rec *recorder
}

// OnJobStart fires after the controller's OnJobStart (where the
// decorator opened the job span): the first stage starts here.
func (h *spanHook) OnJobStart(c *engine.Cluster, j *engine.Job) {
	h.rec.begin(h.rec.driver(), spanStage)
}

// OnStageEnd closes the running top-level stage and opens the next;
// the engine has no stage-start notification, and stages of one job
// run back to back.
func (h *spanHook) OnStageEnd(c *engine.Cluster, st *engine.Stage) {
	r := h.rec
	d := &r.slots[r.driver()]
	r.end(r.driver(), d.stack[len(d.stack)-1])
	r.begin(r.driver(), spanStage)
}

// OnJobEnd closes the span opened after the last stage barrier — by
// now known to be the job's tail, not a stage — and the job itself.
func (h *spanHook) OnJobEnd(c *engine.Cluster, j *engine.Job) {
	r := h.rec
	d := &r.slots[r.driver()]
	tail := d.stack[len(d.stack)-1]
	d.spans[tail].kind = spanJobTail
	r.end(r.driver(), tail)
	r.end(r.driver(), d.stack[len(d.stack)-1])
}

func (h *spanHook) OnTaskStart(c *engine.Cluster, ex *engine.Executor, st *engine.Stage, part, attempt int) bool {
	r := h.rec
	idx := r.begin(ex.ID, spanTask)
	if st.Regenerated {
		// A regenerated stage runs in the middle of an outer task, on
		// the sequential loop: its parent is the most recently started
		// task still open on any executor.
		s := &r.slots[ex.ID]
		best, bestStart := noRef, int64(-1)
		for i := 0; i < r.driver(); i++ {
			o := &r.slots[i]
			for _, open := range o.stack {
				if (i != ex.ID || open != idx) && o.spans[open].kind == spanTask && o.spans[open].start > bestStart {
					best, bestStart = ref{slot: int16(i), idx: open}, o.spans[open].start
				}
			}
		}
		if best != noRef {
			s.spans[idx].parent = best
		}
	}
	return false
}

func (h *spanHook) OnTaskEnd(c *engine.Cluster, ex *engine.Executor, st *engine.Stage, part int) {
	s := &h.rec.slots[ex.ID]
	h.rec.end(ex.ID, s.stack[len(s.stack)-1])
}

func (h *spanHook) OnFetch(c *engine.Cluster, ex *engine.Executor, shuffleID, part, attempt int) bool {
	h.rec.end(ex.ID, h.rec.begin(ex.ID, spanFetch))
	return false
}

// ---------------------------------------------------------------------
// engine.Controller decorator.

// ctlTimer times every engine.Controller callback and forwards it
// unchanged. Callbacks that carry an executor record into that
// executor's slot; the rest run in driver context.
type ctlTimer struct {
	inner engine.Controller
	rec   *recorder
}

func (t *ctlTimer) Name() string           { return t.inner.Name() }
func (t *ctlTimer) Bind(c *engine.Cluster) { t.inner.Bind(c) }

func (t *ctlTimer) OnJobStart(j *engine.Job) {
	r := t.rec
	r.begin(r.driver(), spanJob) // closed by the hook's OnJobEnd
	s := r.beginCtl(r.driver(), spanCtlOnJobStart)
	t.inner.OnJobStart(j)
	r.endCtl(r.driver(), s)
}

func (t *ctlTimer) OnJobEnd(j *engine.Job) {
	s := t.rec.beginCtl(t.rec.driver(), spanCtlOnJobEnd)
	t.inner.OnJobEnd(j)
	t.rec.endCtl(t.rec.driver(), s)
}

func (t *ctlTimer) OnStageEnd(st *engine.Stage, idle []time.Duration) {
	// A regenerated stage ends in the middle of a task, on that task's
	// goroutine; the driver slot is still the right log — regeneration
	// only happens on the sequential loop, where every task runs on the
	// driver goroutine.
	s := t.rec.beginCtl(t.rec.driver(), spanCtlOnStageEnd)
	t.inner.OnStageEnd(st, idle)
	t.rec.endCtl(t.rec.driver(), s)
}

func (t *ctlTimer) PlaceComputed(ex *engine.Executor, ds *dataflow.Dataset, part int, size int64) (engine.Placement, engine.Placement) {
	s := t.rec.beginCtl(ex.ID, spanCtlPlaceComputed)
	p, f := t.inner.PlaceComputed(ex, ds, part, size)
	t.rec.endCtl(ex.ID, s)
	return p, f
}

func (t *ctlTimer) SelectVictims(ex *engine.Executor, need int64) []engine.Victim {
	s := t.rec.beginCtl(ex.ID, spanCtlSelectVictims)
	v := t.inner.SelectVictims(ex, need)
	t.rec.endCtl(ex.ID, s)
	return v
}

func (t *ctlTimer) PromoteOnDiskRead(ex *engine.Executor, id storage.BlockID) bool {
	s := t.rec.beginCtl(ex.ID, spanCtlPromoteOnDiskRead)
	ok := t.inner.PromoteOnDiskRead(ex, id)
	t.rec.endCtl(ex.ID, s)
	return ok
}

func (t *ctlTimer) OnBlockAccess(ex *engine.Executor, id storage.BlockID) {
	s := t.rec.beginCtl(ex.ID, spanCtlOnBlockAccess)
	t.inner.OnBlockAccess(ex, id)
	t.rec.endCtl(ex.ID, s)
}

func (t *ctlTimer) OnBlockAdmitted(ex *engine.Executor, id storage.BlockID) {
	s := t.rec.beginCtl(ex.ID, spanCtlOnBlockAdmitted)
	t.inner.OnBlockAdmitted(ex, id)
	t.rec.endCtl(ex.ID, s)
}

func (t *ctlTimer) OnBlockRemoved(ex *engine.Executor, id storage.BlockID) {
	s := t.rec.beginCtl(ex.ID, spanCtlOnBlockRemoved)
	t.inner.OnBlockRemoved(ex, id)
	t.rec.endCtl(ex.ID, s)
}

func (t *ctlTimer) OnComputed(ex *engine.Executor, ds *dataflow.Dataset, part int, size int64, cost time.Duration) {
	s := t.rec.beginCtl(ex.ID, spanCtlOnComputed)
	t.inner.OnComputed(ex, ds, part, size, cost)
	t.rec.endCtl(ex.ID, s)
}

// The decorated controllers embed the concrete controller one level
// below the timer: the timer's methods (depth 1) shadow the
// controller's (depth 2), and every optional interface the engine and
// the session probe for — ParallelCapable, StateSnapshotter,
// PlanRepairer, Summary — is promoted from the concrete type, so the
// engine takes exactly the paths it takes undecorated.
type (
	blazeMethods      struct{ *core.Controller }
	annotationMethods struct{ *engine.AnnotationController }

	tracedBlaze struct {
		ctlTimer
		blazeMethods
	}
	tracedAnnotation struct {
		ctlTimer
		annotationMethods
	}
)

// AdvanceWindow implements engine.WindowAdvancer, timed.
func (t *tracedBlaze) AdvanceWindow(window, nextJob int) {
	s := t.rec.beginCtl(t.rec.driver(), spanAdvanceWindow)
	t.Controller.AdvanceWindow(window, nextJob)
	t.rec.endCtl(t.rec.driver(), s)
}

func traceBlaze(c *core.Controller, rec *recorder) (*tracedBlaze, error) {
	t := &tracedBlaze{ctlTimer{inner: c, rec: rec}, blazeMethods{c}}
	return t, sameOptionalInterfaces(c, t)
}

func traceAnnotation(c *engine.AnnotationController, rec *recorder) (*tracedAnnotation, error) {
	t := &tracedAnnotation{ctlTimer{inner: c, rec: rec}, annotationMethods{c}}
	return t, sameOptionalInterfaces(c, t)
}

// sameOptionalInterfaces asserts the decorator answers every optional
// interface probe exactly like the controller it wraps.
func sameOptionalInterfaces(inner, outer engine.Controller) error {
	probes := map[string]func(engine.Controller) bool{
		"ParallelCapable":  func(c engine.Controller) bool { _, ok := c.(engine.ParallelCapable); return ok },
		"WindowAdvancer":   func(c engine.Controller) bool { _, ok := c.(engine.WindowAdvancer); return ok },
		"StateSnapshotter": func(c engine.Controller) bool { _, ok := c.(engine.StateSnapshotter); return ok },
		"PlanRepairer":     func(c engine.Controller) bool { _, ok := c.(engine.PlanRepairer); return ok },
		"Summary": func(c engine.Controller) bool {
			_, ok := c.(interface{ Summary() core.StateSummary })
			return ok
		},
	}
	for name, probe := range probes {
		if probe(inner) != probe(outer) {
			return fmt.Errorf("trace: decorator and %s disagree on optional interface %s", inner.Name(), name)
		}
	}
	if ip, ok := inner.(engine.ParallelCapable); ok {
		if ip.ParallelCaps() != outer.(engine.ParallelCapable).ParallelCaps() {
			return fmt.Errorf("trace: decorator changes %s's ParallelCaps", inner.Name())
		}
	}
	return nil
}

// tracedCheckpointer times each window-boundary commit.
type tracedCheckpointer struct {
	inner engine.WindowCheckpointer
	rec   *recorder
}

func (t *tracedCheckpointer) OnWindowBoundary(c *engine.Cluster, window int) {
	s := t.rec.begin(t.rec.driver(), spanCheckpoint)
	t.inner.OnWindowBoundary(c, window)
	t.rec.end(t.rec.driver(), s)
}

// ---------------------------------------------------------------------
// Flattening and output.

// flatSpan is a span with a global id, as written to the trace file.
type flatSpan struct {
	id, parent int
	span
}

// flatten merges the slots into one list ordered by start time, with
// parent references resolved to ids (-1 = none).
func (r *recorder) flatten() []flatSpan {
	base := make([]int, len(r.slots))
	total := 0
	for i := range r.slots {
		base[i] = total
		total += len(r.slots[i].spans)
	}
	out := make([]flatSpan, 0, total)
	for i := range r.slots {
		for j, s := range r.slots[i].spans {
			p := -1
			if s.parent != noRef {
				p = base[s.parent.slot] + int(s.parent.idx)
			}
			out = append(out, flatSpan{id: base[i] + j, parent: p, span: s})
		}
	}
	return out
}

// writeTrace writes the spans as one JSON document, one span per line.
func writeTrace(dir, workload string, spans []flatSpan) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	sorted := append([]flatSpan(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"unit\":\"ns\",\"spans\":[\n", workload)
	for i, s := range sorted {
		sep := ","
		if i == len(sorted)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%q,\"exec\":%d,\"start\":%d,\"end\":%d}%s\n",
			s.id, s.parent, s.op, spanNames[s.kind], s.exec, s.start, s.end, sep)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
