package main

// Stream mode (-stream): instead of serving HTTP, blazed runs one
// durable micro-batch stream in the foreground, checkpointing every
// window boundary into -checkpoint. With -crash-window k the run is
// killed at boundary k by the server-crash fault and the process exits
// with code 3 — the CI recovery smoke uses this as a deterministic
// stand-in for kill -9 mid-stream. A restart with -resume continues
// from the newest checkpoint, then re-runs the stream uninterrupted
// in-process as the reference and exits non-zero on any window
// mismatch, metric divergence, or event-log difference.
//
//	blazed -stream stream-pr -windows 6 -checkpoint /tmp/ck -crash-window 3   # exits 3 at the crash
//	blazed -stream stream-pr -windows 6 -checkpoint /tmp/ck -resume           # recovers, verifies, exits 0

import (
	"errors"
	"fmt"
	"os"
	"time"

	"blaze"
)

// streamModeConfig carries the -stream flag set into runStreamMode.
type streamModeConfig struct {
	workload    string
	windows     int
	executors   int
	memory      int64
	parallelism int
	scale       float64
	checkpoint  string
	crashWindow int
	resume      bool
}

func (c streamModeConfig) streamConfig(dir string, crashWindow int, log, recLog *blaze.EventLog) blaze.StreamConfig {
	return blaze.StreamConfig{
		Workload:          blaze.StreamWorkloadID(c.workload),
		Windows:           c.windows,
		Scale:             c.scale,
		Executors:         c.executors,
		Parallelism:       c.parallelism,
		MemoryPerExecutor: c.memory,
		EventLog:          log,
		CheckpointDir:     dir,
		CrashWindow:       crashWindow,
		RecoveryLog:       recLog,
	}
}

// runStreamMode executes the stream (or its resume) and exits the
// process: 0 on success, 1 on error or verification failure, 3 when the
// injected crash killed the run (the expected outcome of -crash-window).
func runStreamMode(c streamModeConfig) {
	if c.checkpoint == "" {
		fmt.Fprintln(os.Stderr, "blazed: -stream requires -checkpoint")
		os.Exit(1)
	}
	log := blaze.NewEventLog()
	if !c.resume {
		start := time.Now()
		res, err := blaze.RunStream(c.streamConfig(c.checkpoint, c.crashWindow, log, nil))
		if errors.Is(err, blaze.ErrSessionCrashed) {
			fmt.Fprintf(os.Stderr, "blazed: stream crashed at window boundary %d (injected); resume with -resume\n", c.crashWindow)
			os.Exit(3)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "blazed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("stream %s: %d windows complete in %v (wall), act %v, %d checkpoint(s) written\n",
			c.workload, len(res.Windows), time.Since(start).Round(time.Millisecond),
			res.ACT().Round(time.Millisecond), len(res.Checkpoints))
		return
	}

	recLog := blaze.NewEventLog()
	start := time.Now()
	res, err := blaze.ResumeStream(c.streamConfig(c.checkpoint, 0, log, recLog))
	if err != nil {
		fmt.Fprintf(os.Stderr, "blazed: resume: %v\n", err)
		os.Exit(1)
	}
	resumeWall := time.Since(start)
	var resumedAt int
	for _, e := range recLog.Events() {
		if e.Kind == "session_resumed" {
			resumedAt = e.Window
		}
	}

	// Reference: the identical stream run uninterrupted, no durability.
	refLog := blaze.NewEventLog()
	ref, err := blaze.RunStream(c.streamConfig("", 0, refLog, nil))
	if err != nil {
		fmt.Fprintf(os.Stderr, "blazed: reference run: %v\n", err)
		os.Exit(1)
	}

	mismatches := 0
	if len(res.Windows) != len(ref.Windows) {
		fmt.Fprintf(os.Stderr, "blazed: resumed run has %d windows, reference %d\n", len(res.Windows), len(ref.Windows))
		mismatches++
	} else {
		for i := range ref.Windows {
			if !ref.Windows[i].EqualDeterministic(res.Windows[i]) {
				fmt.Fprintf(os.Stderr, "blazed: window %d stats diverge from reference\n", i+1)
				mismatches++
			}
		}
	}
	if !blaze.MetricsEqualDeterministic(ref.Metrics, res.Metrics) {
		fmt.Fprintln(os.Stderr, "blazed: final metrics diverge from reference")
		mismatches++
	}
	le, lr := log.Events(), refLog.Events()
	if len(le) != len(lr) {
		fmt.Fprintf(os.Stderr, "blazed: event log length %d, reference %d\n", len(le), len(lr))
		mismatches++
	} else {
		for i := range lr {
			if le[i] != lr[i] {
				fmt.Fprintf(os.Stderr, "blazed: event %d diverges from reference\n", i)
				mismatches++
				break
			}
		}
	}

	fmt.Printf("stream %s: resumed from boundary %d, %d windows complete in %v (wall), %d window mismatch(es)\n",
		c.workload, resumedAt, len(res.Windows), resumeWall.Round(time.Millisecond), mismatches)
	if mismatches != 0 {
		os.Exit(1)
	}
}
