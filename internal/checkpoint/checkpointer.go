package checkpoint

import (
	"fmt"
	"time"

	"blaze/internal/engine"
	"blaze/internal/eventlog"
	"blaze/internal/faults"
)

// Checkpointer implements engine.WindowCheckpointer: at every window
// boundary past the first it captures the cluster's ResumeState and
// commits it under Dir. It is also the injection point for the
// server-crash fault class: with CrashWindow set, the boundary that
// opens that window panics faults.ErrServerCrash immediately AFTER its
// checkpoint commits — the crash the recovery machinery is built for,
// placed deterministically so resume tests can crash at every boundary.
type Checkpointer struct {
	// Dir is the run-scoped durable directory (also holding the WAL).
	Dir string
	// CrashWindow, when >= 2, kills the session at that window's
	// boundary, after the checkpoint is written (0 disables; window 1
	// has no boundary checkpoint to crash after).
	CrashWindow int
	// ClientState, when set, supplies the driver-side payload persisted
	// next to the engine state (the session facade's window stats). It
	// runs on the driver goroutine during the boundary, so it may read
	// client-session state without racing the client (which is blocked
	// in NextWindow).
	ClientState func() ([]byte, error)
	// Summary, when set, supplies the manifest's human-readable
	// controller digest.
	Summary func() any
	// Log, when set, receives checkpoint_written events. This must be a
	// recovery-scoped log, never the session's main event log (which
	// has to stay bit-identical to a run without checkpointing).
	Log *eventlog.Log
	// OnWrite, when set, observes each committed checkpoint (wall-clock
	// duration, for overhead reporting).
	OnWrite func(window, blocks int, bytes int64, d time.Duration)

	// w carries the segment buffer from one boundary's commit to the next.
	w writer
}

// OnWindowBoundary implements engine.WindowCheckpointer. Write failures
// panic: a checkpointer that silently stops persisting would turn the
// next crash into data loss, so a broken checkpoint directory is fatal
// to the session (the server recovers the panic into a session error).
func (cp *Checkpointer) OnWindowBoundary(c *engine.Cluster, window int) {
	start := time.Now()
	rs, err := c.CaptureResumeState()
	if err != nil {
		panic(fmt.Sprintf("checkpoint: capture window %d: %v", window, err))
	}
	var client []byte
	if cp.ClientState != nil {
		client, err = cp.ClientState()
		if err != nil {
			panic(fmt.Sprintf("checkpoint: client state window %d: %v", window, err))
		}
	}
	var summary any
	if cp.Summary != nil {
		summary = cp.Summary()
	}
	blocks, bytes, err := cp.w.write(cp.Dir, rs, client, summary)
	if err != nil {
		panic(fmt.Sprintf("checkpoint: window %d: %v", window, err))
	}
	if cp.Log != nil {
		cp.Log.Append(eventlog.Event{Kind: eventlog.CheckpointWritten, Time: c.Now(),
			Window: window, Count: blocks, Bytes: bytes})
	}
	if cp.OnWrite != nil {
		cp.OnWrite(window, blocks, bytes, time.Since(start))
	}
	if window == cp.CrashWindow {
		// Crash after the commit: the checkpoint for this boundary
		// exists, so resume rehydrates at exactly this window. During
		// replay the checkpointer is never consulted (the boundary runs
		// in replay mode), so a resumed run does not re-crash.
		panic(faults.ErrServerCrash)
	}
}
