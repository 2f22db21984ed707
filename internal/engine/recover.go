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
// stays out of the main event log and the deterministic metrics: resume
// bookkeeping events go to a separate recovery log, and plan-repair
// effort lands in the Repair* metric fields.

import (
	"fmt"
	"time"

	"blaze/internal/eventlog"
	"blaze/internal/metrics"
	"blaze/internal/shuffle"
	"blaze/internal/storage"
)

// StateSnapshotter is implemented by controllers whose decisions depend
// on accumulated state (Blaze's cost lineage, regression estimators,
// ILP memo). The snapshot is opaque to the engine; the controller owns
// its wire format.
type StateSnapshotter interface {
	// SnapshotState serializes the controller's durable state.
	SnapshotState() ([]byte, error)
	// RestoreState rebuilds the controller from a snapshot taken by the
	// same controller type.
	RestoreState(data []byte) error
}

// PlanRepairer is implemented by controllers that can re-solve their
// placement plan after the cluster state changed out from under it — an
// executor death migrated partitions, or a crash resume restored only
// the checkpointed blocks. Events describing the repair are routed
// through emit, so callers choose between the main log (executor death,
// part of the run) and a recovery-only log (crash resume, where the
// main log must stay bit-identical to an uninterrupted run).
type PlanRepairer interface {
	RepairPlan(window int, emit func(eventlog.Event))
}

// WindowCheckpointer observes streaming window boundaries for durable
// checkpointing. OnWindowBoundary runs in driver context under pool
// exclusivity, after the controller's AdvanceWindow, for every boundary
// past the first — so a checkpoint at window k captures windows 1..k-1
// complete plus the boundary-k re-solve.
type WindowCheckpointer interface {
	OnWindowBoundary(c *Cluster, window int)
}

// SetWindowCheckpointer attaches the boundary observer. Call before the
// first window advances.
func (c *Cluster) SetWindowCheckpointer(w WindowCheckpointer) { c.checkpointer = w }

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
// block format (storage.EncodeRecords / EncodeBatch).
type ResumeBlock struct {
	Executor int
	Meta     storage.BlockMeta
	Data     []byte
}

// ResumeDiskBlock is one checkpointed disk block.
type ResumeDiskBlock struct {
	Executor int
	ID       storage.BlockID
	Size     int64
	Data     []byte
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
// snapshot's Buckets, Controller) out of the gob into its segment file
// and recovers Events from the WAL.
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
	// Events is the main event log up to and including this boundary.
	// The checkpoint layer persists the count and rebuilds the slice
	// from the write-ahead log at load time.
	Events []eventlog.Event
}

// CaptureResumeState snapshots the cluster at a window boundary. Must
// run in driver context under pool exclusivity (the window-boundary
// hook provides both). Every block is captured in the block format: a
// live batch or rows encoded, a real-bytes block's stored bytes as they
// are. Slices referencing live data (a real-bytes memory block's bytes,
// metrics sub-objects) are shared, not deep-copied: the caller
// serializes the snapshot before any further execution.
func (c *Cluster) CaptureResumeState() (*ResumeState, error) {
	rs := &ResumeState{
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
		for _, m := range ex.Mem.Blocks() {
			data, err := ex.Mem.Encoded(m.ID)
			if err != nil {
				return nil, fmt.Errorf("engine: capture: %w", err)
			}
			rs.MemBlocks = append(rs.MemBlocks, ResumeBlock{Executor: i, Meta: *m, Data: data})
		}
		seq, peak := ex.Mem.Counters()
		rs.MemCounters = append(rs.MemCounters, ResumeCounters{Seq: seq, Peak: peak})
		for _, id := range ex.Disk.Blocks() {
			size, _ := ex.Disk.Size(id)
			data, err := ex.Disk.Encoded(id)
			if err != nil {
				return nil, fmt.Errorf("engine: capture: %w", err)
			}
			rs.DiskBlocks = append(rs.DiskBlocks, ResumeDiskBlock{Executor: i, ID: id, Size: size, Data: data})
		}
		dpeak, dwritten := ex.Disk.Counters()
		rs.DiskCounters = append(rs.DiskCounters, ResumeDiskCounters{Peak: dpeak, TotalWritten: dwritten})
	}

	m := metrics.NewApp(len(c.execs))
	m.CopyFrom(c.met)
	rs.Metrics = m
	var err error
	if rs.Shuffle, err = c.shuffle.Snapshot(); err != nil {
		return nil, fmt.Errorf("engine: capture: %w", err)
	}
	if ss, ok := c.ctl.(StateSnapshotter); ok {
		data, err := ss.SnapshotState()
		if err != nil {
			return nil, fmt.Errorf("engine: capture: controller snapshot: %w", err)
		}
		rs.Controller = data
	}
	if c.log != nil {
		rs.Events = append([]eventlog.Event(nil), c.log.Events()...)
	}
	return rs, nil
}

// BeginReplay puts the cluster into replay mode targeting the snapshot:
// the resumed driver re-runs from window 1 without executing anything,
// and the cluster rehydrates when the driver reaches the checkpointed
// boundary. recoveryLog (optional) receives the resume bookkeeping
// events — session_resumed and the plan-repair solves — which must not
// enter the main log. Call right after the streaming session opens,
// before the driver's first job.
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
			panic(fmt.Sprintf("engine: resume: %v", err))
		}
		c.ctl.OnBlockAdmitted(c.execs[b.Executor], b.Meta.ID)
	}
	for i, ex := range c.execs {
		ex.Mem.SetCounters(rs.MemCounters[i].Seq, rs.MemCounters[i].Peak)
	}
	for _, b := range rs.DiskBlocks {
		if err := c.execs[b.Executor].Disk.Restore(b.ID, b.Data, b.Size); err != nil {
			panic(fmt.Sprintf("engine: resume: %v", err))
		}
	}
	for i, ex := range c.execs {
		ex.Disk.SetCounters(rs.DiskCounters[i].Peak, rs.DiskCounters[i].TotalWritten)
	}

	c.met.CopyFrom(rs.Metrics)
	if err := c.shuffle.Restore(rs.Shuffle); err != nil {
		panic(fmt.Sprintf("engine: resume: %v", err))
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
			panic(fmt.Sprintf("engine: resume: controller restore: %v", err))
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

	// Plan repair: the restored targetState describes the crashed run's
	// plan over the crashed run's candidates. Re-solve over what
	// actually survived so post-resume admissions and promotions follow
	// a plan that matches reality. Repair events stay in the recovery
	// log; repair effort lands in the Repair* metrics — both excluded
	// from the bit-identity comparison.
	if pr, ok := c.ctl.(PlanRepairer); ok {
		pr.RepairPlan(c.curWindow, c.recoveryEmit)
	}
}
