package engine

// Crash recovery: CaptureResumeState snapshots everything a streaming
// session needs to continue after a process death — clocks, stores,
// shuffle state, scheduler bookkeeping, metrics, controller state — and
// the replay machinery rebuilds a crashed run from that snapshot.
//
// Resume works by re-running the *same* driver program from window 1 in
// replay mode: jobs return empty results without executing, unpersists
// are ignored, and window boundaries only count up. When the driver
// reaches the checkpointed window the cluster rehydrates in place — the
// snapshot already contains that boundary's effects — and execution
// goes live. Replay is safe because stream drivers build their DAGs
// purely from (configuration, window index): dataset and shuffle ids
// are assigned at dataset creation, and collected results never feed
// dataset definitions.
//
// The headline invariant: a session crashed at any window boundary and
// resumed produces bit-identical window results, metrics and event logs
// to a run that never crashed. Everything recovery-specific therefore
// stays out of the main event log: resume bookkeeping events go to a
// separate recovery log. A resume repairs no plan — the rehydrated
// cluster is the checkpointed one, whose plan is already current.

import (
	"errors"
	"fmt"
	"time"

	"blaze/internal/eventlog"
	"blaze/internal/metrics"
	"blaze/internal/shuffle"
	"blaze/internal/storage"
)

// StateSnapshotter is implemented by controllers whose decisions depend
// on accumulated state (Blaze's cost lineage, regression estimators,
// ILP target states). The snapshot is opaque to the engine; the
// controller owns its wire format.
type StateSnapshotter interface {
	// CaptureState captures the controller's durable state in driver
	// context and returns the function that serializes the capture.
	// The capture shares nothing the controller writes later, so encode
	// may run on another goroutine, once, while execution goes on.
	CaptureState() (encode func() ([]byte, error))
	// RestoreState rebuilds the controller from a snapshot taken by the
	// same controller type.
	RestoreState(data []byte) error
}

// PlanRepairer is implemented by controllers that can re-solve their
// placement plan after an executor death changed the cluster out from
// under it. window is the open streaming window (0 on one-shot runs).
type PlanRepairer interface {
	RepairPlan(window int)
}

// WindowCheckpointer observes streaming window boundaries for durable
// checkpointing. OnWindowBoundary runs in driver context under pool
// exclusivity, after the controller's AdvanceWindow, for every boundary
// past the first — so a checkpoint at window k captures windows 1..k-1
// complete plus the boundary-k re-solve. What it captures must be copied
// or held by share before it returns (CaptureResumeState does both);
// encoding and writing it out may continue in the background past the
// boundary, joined through AtTeardown.
type WindowCheckpointer interface {
	OnWindowBoundary(c *Cluster, window int)
}

// SetWindowCheckpointer attaches the boundary observer. Call before the
// first window advances.
func (c *Cluster) SetWindowCheckpointer(w WindowCheckpointer) { c.checkpointer = w }

// AtTeardown registers fn to run when the cluster's session ends, on
// every path: the driver returned, panicked, was cancelled or crashed. A
// window checkpointer registers the join of its background commit here,
// so no commit outlives its session and a failed one is the session's
// error. Call in driver context.
func (c *Cluster) AtTeardown(fn func() error) { c.teardown = append(c.teardown, fn) }

// AtNextJobEnd registers fn to run once, in driver context under pool
// exclusivity, when the next job ends (after its hooks). A window
// checkpointer gives its capture's shares back here: early in the next
// window, yet at the same point of every run. Call in driver context.
func (c *Cluster) AtNextJobEnd(fn func()) { c.atJobEnd = append(c.atJobEnd, fn) }

// Teardown runs what AtTeardown registered, in order, once, and returns
// their errors joined. The session's owner calls it after its driver
// has unwound, before Finish.
func (c *Cluster) Teardown() error {
	fns := c.teardown
	c.teardown = nil
	var errs []error
	for _, fn := range fns {
		errs = append(errs, fn())
	}
	return errors.Join(errs...)
}

// ResumeExecutor is one executor's scheduler-visible state in a
// ResumeState snapshot.
type ResumeExecutor struct {
	Dead        bool
	SlowFactor  float64
	SlowTasks   int
	Flakes      int
	Blacklisted bool
	Cooldown    int
	Cur         int
	Clocks      []time.Duration
}

// ResumeBlock is one checkpointed memory block: its full metadata
// (access stats, insert sequence, stamped cost) and its contents in the
// block format (storage.EncodeRecords / EncodeBatch), set by
// ResumeState.Encode from the payload the capture holds.
type ResumeBlock struct {
	Executor int
	Meta     storage.BlockMeta
	Data     []byte

	captured storage.Payload
}

// ResumeDiskBlock is one checkpointed disk block.
type ResumeDiskBlock struct {
	Executor int
	ID       storage.BlockID
	Size     int64
	Data     []byte

	captured storage.Payload
}

// ResumeCounters pins a memory store's internal counters.
type ResumeCounters struct {
	Seq  int64
	Peak int64
}

// ResumeDiskCounters pins a disk store's internal counters.
type ResumeDiskCounters struct {
	Peak         int64
	TotalWritten int64
}

// ResumeState is the complete engine-side snapshot of a streaming
// session at a window boundary. All fields are exported for gob; the
// checkpoint layer strips every payload (block Data, the shuffle
// snapshot's Buckets, Controller) out of the gob into its segment file,
// persists EventCount, and recovers Events from the WAL.
type ResumeState struct {
	// Window is the boundary the snapshot was taken at: windows
	// 1..Window-1 are complete and the boundary-Window re-solve has run.
	Window         int
	JobSeq         int
	StageSeq       int
	CurJob         int
	StartTime      time.Duration
	ParallelStages int

	Assign            []int
	DiskBase          []int64
	ComputedOnce      map[storage.BlockID]bool
	FaultLost         map[storage.BlockID]string
	FaultLostShuffles map[int]bool
	FaultLostMaps     map[int]map[int]string

	Execs        []ResumeExecutor
	MemBlocks    []ResumeBlock
	MemCounters  []ResumeCounters
	DiskBlocks   []ResumeDiskBlock
	DiskCounters []ResumeDiskCounters

	Metrics *metrics.App
	Shuffle *shuffle.Snapshot
	// Controller is the StateSnapshotter payload (nil for stateless
	// controllers).
	Controller []byte
	// EventCount is the length of the main event log at this boundary.
	EventCount int
	// Events is the main event log up to and including this boundary:
	// nil as captured (the log itself is never copied), rebuilt from the
	// write-ahead log's first EventCount records at load time.
	Events []eventlog.Event

	// captured marks a capture not yet released: its blocks' payloads
	// and its shuffle snapshot hold shares, and encodeController is the
	// controller's encoder.
	captured         bool
	encodeController func() ([]byte, error)
}

// Encode turns a capture into the bytes a checkpoint writes — every
// block's Data, the shuffle snapshot's buckets, Controller. Blocks and
// buckets are appended to buf (storage.Payload.AppendEncode) and alias
// its array, except the bytes a real-bytes store holds, which are used
// as they are; Encode returns buf as extended, so a caller that writes
// one boundary at a time reuses one buffer (EncodedSize says how large
// it needs to be). It runs on any goroutine, once, while execution goes
// on, and keeps the capture's shares: the caller releases them
// (Release) in driver context, whether or not Encode succeeded. A
// share's last release puts its arrays back in the pools, so a release
// wherever the encode happens to finish would make what the pools hold,
// and with it what the next window allocates, depend on how fast the
// encode ran. A state that holds no capture (built by hand, loaded or
// released already) is left as it is.
func (rs *ResumeState) Encode(buf []byte) (_ []byte, err error) {
	if !rs.captured {
		return buf, nil
	}
	for i := range rs.MemBlocks {
		b := &rs.MemBlocks[i]
		if b.Data, buf, err = b.captured.AppendEncode(buf); err != nil {
			return buf, fmt.Errorf("engine: encode memory block %v: %w", b.Meta.ID, err)
		}
	}
	for i := range rs.DiskBlocks {
		b := &rs.DiskBlocks[i]
		if b.Data, buf, err = b.captured.AppendEncode(buf); err != nil {
			return buf, fmt.Errorf("engine: encode disk block %v: %w", b.ID, err)
		}
	}
	if buf, err = rs.Shuffle.Encode(buf); err != nil {
		return buf, fmt.Errorf("engine: encode: %w", err)
	}
	if rs.encodeController != nil {
		if rs.Controller, err = rs.encodeController(); err != nil {
			return buf, fmt.Errorf("engine: encode: controller snapshot: %w", err)
		}
	}
	return buf, nil
}

// EncodedSize is how many bytes Encode appends to its buffer, as far as
// that is known without encoding: every typed block and bucket a capture
// holds (storage.Payload.EncodedSize). Call it in driver context, before
// the capture is released.
func (rs *ResumeState) EncodedSize() int {
	if !rs.captured {
		return 0
	}
	n := rs.Shuffle.EncodedSize()
	for i := range rs.MemBlocks {
		n += rs.MemBlocks[i].captured.EncodedSize()
	}
	for i := range rs.DiskBlocks {
		n += rs.DiskBlocks[i].captured.EncodedSize()
	}
	return n
}

// Release gives up every share a capture holds, after Encode or
// instead of it for a capture that will not be written. Encoded bytes
// stay. Safe to call more than once.
func (rs *ResumeState) Release() {
	if !rs.captured {
		return
	}
	rs.captured = false
	for i := range rs.MemBlocks {
		rs.MemBlocks[i].captured.Release()
		rs.MemBlocks[i].captured = storage.Payload{}
	}
	for i := range rs.DiskBlocks {
		rs.DiskBlocks[i].captured.Release()
		rs.DiskBlocks[i].captured = storage.Payload{}
	}
	rs.Shuffle.Release()
	rs.encodeController = nil
}

// CaptureResumeState snapshots the cluster at a window boundary. Must
// run in driver context under pool exclusivity (the window-boundary
// hook provides both). It copies what execution writes in place later
// (bookkeeping, clocks, block metadata, a deep copy of the metrics) and
// encodes nothing: every block is held as its store holds it (a live
// batch by one more share, a real-bytes block's bytes as they are, a
// spill file's bytes read), the shuffle by shares of its map outputs
// (shuffle.Service.Snapshot), and the controller by its own capture
// (StateSnapshotter.CaptureState). So the state shares nothing that
// execution changes, and the caller encodes it (Encode) on any
// goroutine, and releases it (Release) in driver context exactly once,
// encoded or not.
func (c *Cluster) CaptureResumeState() (_ *ResumeState, err error) {
	rs := &ResumeState{
		captured:       true,
		Window:         c.curWindow,
		JobSeq:         c.jobSeq,
		StageSeq:       c.stageSeq,
		CurJob:         c.curJob,
		StartTime:      c.startTime,
		ParallelStages: c.parallelStages,
		Assign:         append([]int(nil), c.assign...),
		DiskBase:       append([]int64(nil), c.diskBase...),
	}
	rs.ComputedOnce = make(map[storage.BlockID]bool, len(c.computedOnce))
	for id, v := range c.computedOnce {
		rs.ComputedOnce[id] = v
	}
	rs.FaultLost = make(map[storage.BlockID]string, len(c.faultLost))
	for id, cl := range c.faultLost {
		rs.FaultLost[id] = cl
	}
	rs.FaultLostShuffles = make(map[int]bool, len(c.faultLostShuffles))
	for id, v := range c.faultLostShuffles {
		rs.FaultLostShuffles[id] = v
	}
	rs.FaultLostMaps = make(map[int]map[int]string, len(c.faultLostMaps))
	for id, m := range c.faultLostMaps {
		mm := make(map[int]string, len(m))
		for p, cl := range m {
			mm[p] = cl
		}
		rs.FaultLostMaps[id] = mm
	}

	defer func() {
		if err != nil {
			rs.Release()
		}
	}()
	rs.Execs = make([]ResumeExecutor, len(c.execs))
	for i, ex := range c.execs {
		es := &rs.Execs[i]
		es.Dead = ex.dead
		es.SlowFactor = ex.slowFactor
		es.SlowTasks = ex.slowTasks
		es.Flakes = ex.flakes
		es.Blacklisted = ex.blacklisted
		es.Cooldown = ex.cooldown
		es.Cur = ex.cur
		es.Clocks = make([]time.Duration, len(ex.cores))
		for ci := range ex.cores {
			es.Clocks[ci] = ex.cores[ci].Now()
		}
		for _, m := range ex.Mem.BlocksView() {
			p, err := ex.Mem.Capture(m.ID)
			if err != nil {
				return nil, fmt.Errorf("engine: capture: %w", err)
			}
			rs.MemBlocks = append(rs.MemBlocks, ResumeBlock{Executor: i, Meta: *m, captured: p})
		}
		seq, peak := ex.Mem.Counters()
		rs.MemCounters = append(rs.MemCounters, ResumeCounters{Seq: seq, Peak: peak})
		for _, id := range ex.Disk.Blocks() {
			size, _ := ex.Disk.Size(id)
			p, err := ex.Disk.Capture(id)
			if err != nil {
				return nil, fmt.Errorf("engine: capture: %w", err)
			}
			rs.DiskBlocks = append(rs.DiskBlocks, ResumeDiskBlock{Executor: i, ID: id, Size: size, captured: p})
		}
		dpeak, dwritten := ex.Disk.Counters()
		rs.DiskCounters = append(rs.DiskCounters, ResumeDiskCounters{Peak: dpeak, TotalWritten: dwritten})
	}

	rs.Metrics = c.met.Clone()
	rs.Shuffle = c.shuffle.Snapshot()
	if ss, ok := c.ctl.(StateSnapshotter); ok {
		rs.encodeController = ss.CaptureState()
	}
	if c.log != nil {
		rs.EventCount = c.log.Len()
	}
	return rs, nil
}

// BeginReplay puts the cluster into replay mode targeting the snapshot:
// the resumed driver re-runs from window 1 without executing anything,
// and the cluster rehydrates when the driver reaches the checkpointed
// boundary. recoveryLog (optional) receives the resume bookkeeping
// event (session_resumed), which must not enter the main log. rs must
// come from a cluster with this one's executor count. Call right after
// the streaming session opens, before the driver's first job.
func (c *Cluster) BeginReplay(rs *ResumeState, recoveryLog *eventlog.Log) {
	c.replay = true
	c.replayTarget = rs
	c.recoveryLog = recoveryLog
	// The session-open boundary (window 1) already ran live before
	// replay could be engaged; it counts toward the replay target and
	// its effects are clobbered by the rehydrate.
	c.replayWindows = c.curWindow
}

// Replaying reports whether the cluster is fast-forwarding a resumed
// driver.
func (c *Cluster) Replaying() bool { return c.replay }

// recoveryEmit appends an event to the recovery log (never the main
// log); a no-op without one.
func (c *Cluster) recoveryEmit(e eventlog.Event) {
	if c.recoveryLog != nil {
		c.recoveryLog.Append(e)
	}
}

// finishResume rehydrates the cluster from the replay target and leaves
// replay mode. Runs in driver context under pool exclusivity. Failures
// here mean the checkpoint passed validation but cannot be applied
// (e.g. a quota regression refused a re-admission) — that is a
// programming or configuration error, not recoverable input, so it
// panics like the engine's other impossible-state paths.
func (c *Cluster) finishResume() {
	rs := c.replayTarget

	for i, ex := range c.execs {
		es := rs.Execs[i]
		ex.dead = es.Dead
		ex.slowFactor = es.SlowFactor
		ex.slowTasks = es.SlowTasks
		ex.flakes = es.Flakes
		ex.blacklisted = es.Blacklisted
		ex.cooldown = es.Cooldown
		ex.cur = es.Cur
		for ci := range ex.cores {
			// Fresh pool clocks sit at zero, so advancing to the
			// checkpointed reading restores them exactly.
			ex.cores[ci].AdvanceTo(es.Clocks[ci])
		}
	}
	for _, b := range rs.MemBlocks {
		if err := c.execs[b.Executor].Mem.Restore(b.Meta, b.Data); err != nil {
			panic(fmt.Errorf("engine: resume: %w", err))
		}
		c.ctl.OnBlockAdmitted(c.execs[b.Executor], b.Meta.ID)
	}
	for i, ex := range c.execs {
		ex.Mem.SetCounters(rs.MemCounters[i].Seq, rs.MemCounters[i].Peak)
	}
	for _, b := range rs.DiskBlocks {
		if err := c.execs[b.Executor].Disk.Restore(b.ID, b.Data, b.Size); err != nil {
			panic(fmt.Errorf("engine: resume: %w", err))
		}
	}
	for i, ex := range c.execs {
		ex.Disk.SetCounters(rs.DiskCounters[i].Peak, rs.DiskCounters[i].TotalWritten)
	}

	c.met.CopyFrom(rs.Metrics)
	if err := c.shuffle.Restore(rs.Shuffle); err != nil {
		panic(fmt.Errorf("engine: resume: %w", err))
	}
	c.jobSeq = rs.JobSeq
	c.stageSeq = rs.StageSeq
	c.curJob = rs.CurJob
	c.curWindow = rs.Window
	c.startTime = rs.StartTime
	c.parallelStages = rs.ParallelStages
	for slot, exec := range rs.Assign {
		c.setAssign(slot, exec)
	}
	copy(c.diskBase, rs.DiskBase)
	c.computedOnce = rs.ComputedOnce
	if c.computedOnce == nil {
		c.computedOnce = make(map[storage.BlockID]bool)
	}
	c.faultLost = rs.FaultLost
	if c.faultLost == nil {
		c.faultLost = make(map[storage.BlockID]string)
	}
	c.faultLostShuffles = rs.FaultLostShuffles
	if c.faultLostShuffles == nil {
		c.faultLostShuffles = make(map[int]bool)
	}
	c.faultLostMaps = rs.FaultLostMaps
	if c.faultLostMaps == nil {
		c.faultLostMaps = make(map[int]map[int]string)
	}

	if ss, ok := c.ctl.(StateSnapshotter); ok && rs.Controller != nil {
		if err := ss.RestoreState(rs.Controller); err != nil {
			panic(fmt.Errorf("engine: resume: controller restore: %w", err))
		}
	}
	if c.log != nil {
		// Clobber the replay-era events (the resumed session's open
		// boundary) with the crashed run's exact history.
		c.log.Restore(rs.Events)
	}

	c.replay = false
	c.replayTarget = nil
	c.recoveryEmit(eventlog.Event{Kind: eventlog.SessionResumed, Time: c.Now(),
		Window: c.curWindow, Count: len(rs.MemBlocks) + len(rs.DiskBlocks)})
}
