package blaze

// This file is the public micro-batch streaming surface: a Session is a
// long-lived run against a private cluster under which the same logical
// DAG is re-submitted once per window (Submit), window boundaries are
// explicit (NextWindow) and the final metrics arrive at Close. Across a
// boundary the controller retires lineage whose lifetime has passed and
// re-solves the cache-placement ILP over the surviving candidates — the
// streaming counterpart of calling one-shot Run in a loop, which would
// rebuild the cluster and lose all cached state every window.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"time"

	"blaze/internal/checkpoint"
	"blaze/internal/core"
	"blaze/internal/dataflow"
	"blaze/internal/engine"
	"blaze/internal/eventlog"
	"blaze/internal/metrics"
	"blaze/internal/server"
)

// SessionConfig describes a streaming session. Unlike RunConfig there is
// no Workload field: the caller submits each window's DAG through
// Session.Submit (prebuilt streaming workloads live in StreamWorkload).
type SessionConfig struct {
	// System selects the caching system (default SysBlaze). Blaze-family
	// systems build their lineage on the run — a stream has no fixed
	// plan to profile ahead of time — so sessions charge no profiling
	// overhead.
	System SystemID
	// Executors defaults to 8; Cores to 1.
	Executors int
	Cores     int
	// Parallelism is the engine's OS-level worker count; it changes only
	// wall-clock time, never metrics or event logs.
	Parallelism int
	// Vectorized is ignored, as RunConfig.Vectorized.
	//
	// Deprecated: nothing reads this field.
	Vectorized bool
	// MemoryPerExecutor fixes the memory-store capacity and must be
	// positive: a session hosts arbitrary window DAGs, so there is no
	// single workload to calibrate against (same rule as ServerConfig).
	MemoryPerExecutor int64
	// CostParams overrides the cost model; the zero value uses
	// EvalParams(1.0). Streaming workload specs carry their own
	// serialization factor — pass EvalParams(spec.SerFactor) to match
	// the batch harness's pricing.
	CostParams CostParams
	// DiskCapacity adds the per-executor disk constraint to the Blaze
	// ILP when positive.
	DiskCapacity int64
	// ILPWindow selects the Blaze ILP's successor-job horizon, as in
	// RunConfig (sentinels ILPWindowDefault, ILPWindowCurrentJobOnly).
	ILPWindow int
	// EventLog, when non-nil, records execution events, including the
	// streaming kinds (window_start, partition_retired, ilp_delta_solve).
	EventLog *EventLog
	// CheckpointDir, when set, makes the session durable: every window
	// boundary past the first commits a recovery snapshot (carried-state
	// blocks, controller state, window stats) under this directory, and
	// the event log is teed into an append-only WAL there. A session
	// killed mid-stream resumes from the newest snapshot with
	// ResumeSession, producing bit-identical window results and event
	// logs to a run that never crashed. A boundary's snapshot is written
	// while the next window runs: boundary k is durable once the next
	// NextWindow or Close returns (see NextWindow).
	CheckpointDir string
	// CrashWindow, when >= 2, injects the server-crash fault: the session
	// dies (methods return ErrSessionCrashed) at that window's boundary,
	// immediately after its checkpoint commits. Requires CheckpointDir.
	// Resuming does not re-crash: the crashed boundary replays instead of
	// running live, so the trigger never re-fires.
	CrashWindow int
	// RecoveryLog, when non-nil, receives the recovery-scoped events —
	// checkpoint_written and session_resumed — which must stay out of
	// EventLog to keep a resumed run's main log bit-identical to an
	// uninterrupted one.
	RecoveryLog *EventLog
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.System == "" {
		c.System = SysBlaze
	}
	if c.Executors == 0 {
		c.Executors = 8
	}
	return c
}

// Validate checks the configuration without building the cluster.
func (c SessionConfig) Validate() error {
	if err := c.runConfig().validateShared(); err != nil {
		return err
	}
	if c.MemoryPerExecutor <= 0 {
		return errors.New("blaze: SessionConfig.MemoryPerExecutor must be positive (a session has no single workload to calibrate against)")
	}
	if c.CrashWindow != 0 {
		if c.CheckpointDir == "" {
			return errors.New("blaze: CrashWindow requires CheckpointDir (a crash without checkpoints has nothing to resume from)")
		}
		if c.CrashWindow < 2 {
			return fmt.Errorf("blaze: CrashWindow must be >= 2 (window 1 has no boundary checkpoint to crash after), got %d", c.CrashWindow)
		}
	}
	return nil
}

// runConfig is the session as a run without a workload: the fields the
// two configs share, which validateShared checks and buildSystem reads.
func (c SessionConfig) runConfig() RunConfig {
	return RunConfig{
		System:            c.System,
		Executors:         c.Executors,
		Cores:             c.Cores,
		Parallelism:       c.Parallelism,
		MemoryPerExecutor: c.MemoryPerExecutor,
		CostParams:        c.CostParams,
		DiskCapacity:      c.DiskCapacity,
		ILPWindow:         c.ILPWindow,
		EventLog:          c.EventLog,
	}
}

// WindowStats is one window's share of the run: the deltas of the
// cumulative metrics between this window's start and end boundaries.
// ILPDeltaSolveTime is a wall-clock measurement and is excluded from
// EqualDeterministic; everything else is virtual-time deterministic and
// bit-identical at every Parallelism.
type WindowStats struct {
	Window int
	// Cache traffic inside the window.
	MemHits, DiskHits, Misses int
	Evictions                 int
	// Windowed-lineage activity at the window's start boundary.
	PartitionsRetired int
	// Optimizer activity at the window's start boundary.
	ILPDeltaSolves, ILPDeltaNodes int
	ILPDeltaSolveTime             time.Duration
	// Deprecated: always 0; boundary solves are no longer re-checked by
	// a from-scratch solve. Not compared by EqualDeterministic.
	ILPColdSolves, ILPColdNodes, ILPColdMismatches int
	// Deprecated: always 0, like ILPColdSolves.
	ILPColdSolveTime time.Duration
}

// EqualDeterministic reports whether two windows agree on every
// deterministic field. The wall-clock solve time is excluded, and so are
// the deprecated ILPCold* fields, which a checkpoint written by an older
// build may still carry.
func (w WindowStats) EqualDeterministic(o WindowStats) bool {
	for _, s := range []*WindowStats{&w, &o} {
		s.ILPDeltaSolveTime, s.ILPColdSolveTime = 0, 0
		s.ILPColdSolves, s.ILPColdNodes, s.ILPColdMismatches = 0, 0, 0
	}
	return w == o
}

// cumulativeStats reads the run's cumulative counters as an
// absolute-valued WindowStats (Window 0); a window's entry is the
// difference of the snapshots at its two boundaries.
func cumulativeStats(m *metrics.App) WindowStats {
	return WindowStats{
		MemHits: m.CacheHits, DiskHits: m.DiskHits, Misses: m.Misses, Evictions: m.Evictions,
		PartitionsRetired: m.PartitionsRetired, ILPDeltaSolves: m.ILPDeltaSolves, ILPDeltaNodes: m.ILPDeltaNodes,
		ILPDeltaSolveTime: m.ILPDeltaSolveTime,
	}
}

// since returns window's share of the run: cur minus the snapshot prev
// taken at the window's start boundary.
func (cur WindowStats) since(prev WindowStats, window int) WindowStats {
	return WindowStats{
		Window:            window,
		MemHits:           cur.MemHits - prev.MemHits,
		DiskHits:          cur.DiskHits - prev.DiskHits,
		Misses:            cur.Misses - prev.Misses,
		Evictions:         cur.Evictions - prev.Evictions,
		PartitionsRetired: cur.PartitionsRetired - prev.PartitionsRetired,
		ILPDeltaSolves:    cur.ILPDeltaSolves - prev.ILPDeltaSolves,
		ILPDeltaNodes:     cur.ILPDeltaNodes - prev.ILPDeltaNodes,
		ILPDeltaSolveTime: cur.ILPDeltaSolveTime - prev.ILPDeltaSolveTime,
	}
}

// CheckpointStat records one committed window-boundary checkpoint:
// which boundary, how many carried-state blocks it persisted, their
// serialized size and Wall, how long the boundary held the driver
// (the wait for the previous boundary's commit, the capture, the client
// payload, the WAL flush and any wait for the encode when the capture is
// released at the next job's end; the checkpoint overhead bench/'s
// stream-durable workload reports). The capture is encoded and the files
// are written in the background while the next window runs, so a stat
// appears once that commit is joined: at the next boundary or at Close.
type CheckpointStat struct {
	Window int
	Blocks int
	Bytes  int64
	Wall   time.Duration
}

// sessionClientState is the driver-side payload persisted inside each
// checkpoint: the per-window stats captured so far and the cumulative
// snapshot (cumulativeStats) the next window is diffed against.
type sessionClientState struct {
	Window  int
	Prev    WindowStats
	Windows []WindowStats
}

// Session is a micro-batch streaming run. Create one with NewSession,
// submit each window's DAG with Submit, advance with NextWindow, and
// collect the final Result with Close. Methods must be called from one
// goroutine.
type Session struct {
	cfg       SessionConfig
	annotated bool
	srv       *server.Server
	st        *server.StreamSession
	window    int
	prev      WindowStats // cumulativeStats at the open window's start
	windows   []WindowStats
	closed    bool

	// Durability state (CheckpointDir sessions only).
	wal         *eventlog.WAL
	checkpoints []CheckpointStat
	// Resume state: while resuming, the driver replays windows
	// 1..resumeWindow-1 without executing; restored carries the crashed
	// run's window stats, applied when replay reaches resumeWindow.
	resuming     bool
	resumeWindow int
	restored     *sessionClientState
}

// NewSession builds the private cluster and opens window 1.
func NewSession(cfg SessionConfig) (*Session, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return openSession(cfg, nil, nil)
}

// openSession builds the system, the private one-session server and the
// stream for a validated config, and attaches durability when the config
// asks for it. rs and restored are the loaded checkpoint when resuming,
// nil for a fresh session.
func openSession(cfg SessionConfig, rs *engine.ResumeState, restored *sessionClientState) (*Session, error) {
	// A session is a run without a workload, priced at serialization
	// factor 1 unless CostParams says otherwise.
	p, err := newPlan(cfg.runConfig(), WorkloadSpec{SerFactor: 1})
	if err != nil {
		return nil, err
	}
	srv, job, err := p.serve()
	if err != nil {
		return nil, err
	}
	st, err := srv.SubmitStream(job)
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &Session{cfg: cfg, annotated: p.sys.annotated, srv: srv, st: st, window: 1}
	if rs != nil {
		s.resuming, s.resumeWindow, s.restored = true, rs.Window, restored
	}
	if cfg.CheckpointDir != "" {
		if err := s.enableDurability(p.sys.ctl, rs); err != nil {
			st.Close()
			srv.Close()
			return nil, err
		}
	}
	return s, nil
}

// ErrNoCheckpoint is returned by ResumeSession and ResumeStream when the
// checkpoint directory holds no usable snapshot (never checkpointed, or
// every snapshot is corrupt). The caller recovers by running from
// scratch instead — lineage recomputation from the sources.
var ErrNoCheckpoint = checkpoint.ErrNoCheckpoint

// ResumeSession rebuilds a crashed durable session from the newest
// usable checkpoint under cfg.CheckpointDir. The caller must re-run the
// same driver program from window 1: submitted windows before the
// checkpointed boundary replay without executing (jobs return empty
// results instantly), and when NextWindow reaches that boundary the
// cluster rehydrates in place — carried-state blocks re-admitted
// through the stores, controller state, metrics and the main event log
// restored exactly — and execution goes live. The resumed run's window
// results, metrics and event log are bit-identical to a run that never
// crashed; resume bookkeeping (session_resumed) goes to
// cfg.RecoveryLog. cfg must match the crashed session's: a different
// executor count is rejected before replay starts.
func ResumeSession(cfg SessionConfig) (*Session, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CheckpointDir == "" {
		return nil, errors.New("blaze: ResumeSession requires CheckpointDir")
	}
	rs, clientBytes, err := checkpoint.Load(cfg.CheckpointDir)
	if err != nil {
		return nil, err
	}
	if len(rs.Execs) != cfg.Executors {
		return nil, fmt.Errorf("blaze: checkpoint under %s was written by %d executors, config has %d", cfg.CheckpointDir, len(rs.Execs), cfg.Executors)
	}
	var restored *sessionClientState
	if clientBytes != nil {
		restored = &sessionClientState{}
		if err := gob.NewDecoder(bytes.NewReader(clientBytes)).Decode(restored); err != nil {
			return nil, fmt.Errorf("blaze: decode checkpoint client state: %w", err)
		}
	}
	return openSession(cfg, rs, restored)
}

// enableDurability attaches the checkpointer and the event WAL to the
// session's cluster, and — when resuming — engages replay mode. It runs
// the attachment in driver context so nothing races the stream loop's
// live window-1 open (whose events, on resume, are clobbered at
// rehydrate and never reach the rewritten WAL).
func (s *Session) enableDurability(ctl engine.Controller, rs *engine.ResumeState) error {
	if err := os.MkdirAll(s.cfg.CheckpointDir, 0o755); err != nil {
		return fmt.Errorf("blaze: checkpoint dir: %w", err)
	}
	cp := &checkpoint.Checkpointer{
		Dir:         s.cfg.CheckpointDir,
		CrashWindow: s.cfg.CrashWindow,
		ClientState: s.clientState,
		Log:         s.cfg.RecoveryLog,
		OnWrite: func(window, blocks int, bytes int64, d time.Duration) {
			s.checkpoints = append(s.checkpoints, CheckpointStat{Window: window, Blocks: blocks, Bytes: bytes, Wall: d})
		},
	}
	if cs, ok := ctl.(interface{ Summary() core.StateSummary }); ok {
		cp.Summary = func() any { return cs.Summary() }
	}
	var setupErr error
	doErr := s.st.Do(func(ctx *dataflow.Context) {
		// Seed the WAL with the history so far: a fresh session's events
		// (the window-1 open boundary), or — on resume — the crashed
		// run's exact event prefix, replacing the old WAL wholesale.
		var seed []eventlog.Event
		if rs != nil {
			seed = rs.Events
		} else if s.cfg.EventLog != nil {
			seed = s.cfg.EventLog.Events()
		}
		wal, err := seedWAL(s.cfg.CheckpointDir, seed)
		if err == nil {
			err = wal.Rename(checkpoint.WALPath(s.cfg.CheckpointDir))
		}
		if err != nil {
			if wal != nil {
				wal.Close()
			}
			setupErr = err
			return
		}
		s.wal, cp.WAL = wal, wal
		if s.cfg.EventLog != nil {
			s.cfg.EventLog.SetSink(func(e eventlog.Event) {
				if err := wal.Append(e); err != nil {
					// A WAL that silently stops persisting would turn the
					// next crash into event-history loss; broken durability
					// is fatal to the session, like a failed checkpoint.
					panic(fmt.Errorf("blaze: event wal append: %w", err))
				}
			})
		}
		cl, ok := ctx.Runner().(*engine.Cluster)
		if !ok {
			setupErr = errors.New("blaze: session runner is not an engine cluster")
			return
		}
		cl.SetWindowCheckpointer(cp)
		if rs != nil {
			cl.BeginReplay(rs, s.cfg.RecoveryLog)
		}
	})
	if doErr != nil {
		return doErr
	}
	return setupErr
}

// seedWAL writes the history into a new WAL beside the checkpoint
// directory's live one (events.wal.tmp) and syncs it; the caller renames
// it into place. The old WAL is the only copy of the events both retained
// checkpoints count on, so it is never truncated in place: a resume
// killed before the rename leaves it whole and can simply be run again.
func seedWAL(dir string, seed []eventlog.Event) (*eventlog.WAL, error) {
	wal, err := eventlog.CreateWAL(checkpoint.WALPath(dir) + ".tmp")
	if err != nil {
		return nil, err
	}
	if err = wal.AppendAll(seed); err == nil {
		err = wal.Sync()
	}
	if err != nil {
		wal.Close()
		return nil, err
	}
	return wal, nil
}

// clientState serializes the facade's window bookkeeping for the
// checkpoint's client payload. The checkpointer calls it on the driver
// goroutine during a boundary, while the client goroutine is blocked
// inside NextWindow — the fields are stable.
func (s *Session) clientState() ([]byte, error) {
	st := sessionClientState{Window: s.window, Prev: s.prev, Windows: s.windows}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ErrSessionClosed is returned by Session operations after Close.
var ErrSessionClosed = errors.New("blaze: session closed")

// Submit runs one window's DAG: driver executes in the session's driver
// context, its actions submitting jobs to the session cluster. Datasets
// cached by earlier windows are ordinary cached blocks here — carried
// state (rank vectors, centroids) flows across windows for free.
func (s *Session) Submit(driver func(ctx *Context)) error {
	if s.closed {
		return ErrSessionClosed
	}
	return s.st.Do(driver)
}

// NextWindow closes the current window and opens the next: the
// controller retires lineage whose lifetime has passed and re-solves the
// placement ILP over the surviving candidates. The
// closing window's WindowStats entry is captured at the boundary.
// Returns the new window index.
//
// On a durable session the boundary's checkpoint is captured before
// NextWindow returns but written to disk while the next window runs, so
// a returning NextWindow does not yet mean the boundary is durable: it is
// once the next NextWindow or Close returns (or the CrashWindow crash
// fires, which waits for it). A process killed before that resumes from
// the previous boundary, which is still whole. A failed write is
// returned by that next NextWindow or Close.
func (s *Session) NextWindow() (int, error) {
	if s.closed {
		return 0, ErrSessionClosed
	}
	if err := s.capture(); err != nil {
		return 0, err
	}
	w, err := s.st.NextWindow()
	if err != nil {
		return 0, err
	}
	s.window = w
	if s.resuming && w >= s.resumeWindow {
		// The engine rehydrated inside that NextWindow. Apply the
		// restored driver-side bookkeeping: the crashed run's window
		// stats and the cumulative snapshot the next capture diffs
		// against.
		s.resuming = false
		if s.restored != nil {
			s.windows = append(s.windows[:0], s.restored.Windows...)
			s.prev = s.restored.Prev
			s.restored = nil
		}
	}
	return w, nil
}

// capture appends the closing window's stats delta. Replayed windows of
// a resuming session are skipped: their stats were captured by the
// crashed run and are restored wholesale at the rehydrate boundary.
func (s *Session) capture() error {
	var cur WindowStats
	replaying := false
	err := s.st.Do(func(ctx *dataflow.Context) {
		if cl, ok := ctx.Runner().(*engine.Cluster); ok {
			if cl.Replaying() {
				replaying = true
				return
			}
			cur = cumulativeStats(cl.Metrics())
		}
	})
	if err != nil {
		return err
	}
	if replaying {
		return nil
	}
	s.windows = append(s.windows, cur.since(s.prev, s.window))
	s.prev = cur
	return nil
}

// CheckpointStats returns the checkpoints this process committed, in
// boundary order (a resumed session reports only its own post-resume
// checkpoints, not the crashed run's).
func (s *Session) CheckpointStats() []CheckpointStat {
	out := make([]CheckpointStat, len(s.checkpoints))
	copy(out, s.checkpoints)
	return out
}

// WindowStats returns the per-window metric deltas captured so far (one
// entry per completed window; Close captures the final window).
func (s *Session) WindowStats() []WindowStats {
	out := make([]WindowStats, len(s.windows))
	copy(out, s.windows)
	return out
}

// Close ends the session: the final window's stats are captured, the
// cluster finishes and the sealed Result is returned. Idempotent in the
// sense that later calls return ErrSessionClosed.
func (s *Session) Close() (*Result, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	s.closed = true
	captureErr := s.capture()
	err := s.st.Close()
	if s.wal != nil {
		// The driver loop has exited and the session's teardown joined
		// the last commit, so nothing appends or syncs concurrently.
		if s.cfg.EventLog != nil {
			s.cfg.EventLog.SetSink(nil)
		}
		s.wal.Close()
		s.wal = nil
	}
	s.srv.Close()
	if err != nil {
		return nil, err
	}
	if captureErr != nil {
		return nil, captureErr
	}
	m := s.st.Session().Metrics()
	if m == nil {
		return nil, errors.New("blaze: session finished without metrics")
	}
	return &Result{
		System:            s.cfg.System,
		Metrics:           m,
		MemoryPerExecutor: s.cfg.MemoryPerExecutor,
	}, nil
}
