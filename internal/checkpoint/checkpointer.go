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
// commits it under Dir — the capture and encoding on the driver, the
// writing on a committer goroutine that overlaps the next window (see
// the package comment for when it is joined). It is also the injection
// point for the server-crash fault class: with CrashWindow set, the
// boundary that opens that window panics faults.ErrServerCrash
// immediately AFTER its checkpoint commits — the crash the recovery
// machinery is built for, placed deterministically so resume tests can
// crash at every boundary.
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
	// WAL, when set, is the event WAL under Dir. Its appends only
	// buffer, and a commit syncs the WAL by path, which cannot see a
	// buffer, so every boundary flushes it on the driver before handing
	// the commit off. Without it, a commit makes durable what the owner
	// of the WAL has written to the file by then.
	WAL *eventlog.WAL
	// Log, when set, receives checkpoint_written events. This must be a
	// recovery-scoped log, never the session's main event log (which
	// has to stay bit-identical to a run without checkpointing).
	Log *eventlog.Log
	// OnWrite, when set, observes each committed checkpoint, for
	// overhead reporting. d is how long the boundary held the driver:
	// the wait for the previous commit, capture, encoding and the WAL
	// flush, not the background write. Like the checkpoint_written
	// event, it is delivered when the commit is joined, in driver
	// context.
	OnWrite func(window, blocks int, bytes int64, d time.Duration)

	// w carries the segment buffer from one boundary's commit to the next.
	w writer
	// pending is the commit in flight, if any.
	pending *commit
	// joinedBy is the cluster the join is registered with.
	joinedBy *engine.Cluster
}

// commit is one boundary being written by the committer goroutine. The
// goroutine sets blocks, written and err, then closes done.
type commit struct {
	window int
	at     time.Duration // virtual time at capture: checkpoint_written's
	held   time.Duration // wall time the boundary held the driver
	done   chan struct{}

	blocks  int
	written int64
	err     error
}

// OnWindowBoundary implements engine.WindowCheckpointer. Failures —
// the previous commit's, or this boundary's capture or encoding — panic
// with an error wrapping the cause: a checkpointer that silently stops
// persisting would turn the next crash into data loss, so a broken
// checkpoint directory is fatal to the session (the server recovers the
// panic into a session error).
func (cp *Checkpointer) OnWindowBoundary(c *engine.Cluster, window int) {
	start := time.Now()
	if cp.joinedBy != c {
		c.AtTeardown(cp.join)
		cp.joinedBy = c
	}
	if err := cp.join(); err != nil {
		panic(err)
	}
	rs, err := c.CaptureResumeState()
	if err != nil {
		panic(fmt.Errorf("checkpoint: capture window %d: %w", window, err))
	}
	if err := cp.begin(rs, c.Now(), start); err != nil {
		panic(fmt.Errorf("checkpoint: window %d: %w", window, err))
	}
	if window == cp.CrashWindow {
		// Crash after the commit: the checkpoint for this boundary
		// exists, so resume rehydrates at exactly this window. During
		// replay the checkpointer is never consulted (the boundary runs
		// in replay mode), so a resumed run does not re-crash.
		if err := cp.join(); err != nil {
			panic(err)
		}
		panic(faults.ErrServerCrash)
	}
}

// begin finishes the driver's half of a boundary captured at virtual
// time at: the client payload and summary, the encoded snapshot, the
// WAL flushed to its file. It then hands the snapshot to a committer
// goroutine and returns; the caller has joined the previous commit.
func (cp *Checkpointer) begin(rs *engine.ResumeState, at time.Duration, start time.Time) error {
	var client []byte
	if cp.ClientState != nil {
		var err error
		if client, err = cp.ClientState(); err != nil {
			return fmt.Errorf("client state: %w", err)
		}
	}
	var summary any
	if cp.Summary != nil {
		summary = cp.Summary()
	}
	snap, err := prepare(rs, client, summary)
	if err != nil {
		return err
	}
	if cp.WAL != nil {
		if err := cp.WAL.Flush(); err != nil {
			return err
		}
	}
	p := &commit{window: rs.Window, at: at, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		p.blocks, p.written, p.err = cp.w.commit(cp.Dir, snap)
	}()
	cp.pending = p
	p.held = time.Since(start)
	return nil
}

// join waits for the commit in flight, if any, and reports it: the
// checkpoint_written event and OnWrite when it succeeded, its error
// otherwise.
func (cp *Checkpointer) join() error {
	p := cp.pending
	if p == nil {
		return nil
	}
	cp.pending = nil
	<-p.done
	if p.err != nil {
		return fmt.Errorf("checkpoint: window %d: %w", p.window, p.err)
	}
	if cp.Log != nil {
		cp.Log.Append(eventlog.Event{Kind: eventlog.CheckpointWritten, Time: p.at,
			Window: p.window, Count: p.blocks, Bytes: p.written})
	}
	if cp.OnWrite != nil {
		cp.OnWrite(p.window, p.blocks, p.written, p.held)
	}
	return nil
}
