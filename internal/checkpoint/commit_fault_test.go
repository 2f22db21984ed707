package checkpoint_test

// Failure tests for the background commit: a boundary's snapshot is
// written by a committer goroutine while the next window runs, so a disk
// failure surfaces at the join — the next NextWindow or Close — instead
// of inside the boundary that captured it.

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"blaze"
	"blaze/internal/checkpoint"
)

var errDiskFault = errors.New("injected disk fault")

// faultWindows is the length of the durable stream the fault tests run:
// boundaries 2, 3 and 4 commit, the last one joined by Close.
const faultWindows = 4

// faultConfig is the durable session the fault tests run.
func faultConfig(dir string, log, recLog *blaze.EventLog) blaze.SessionConfig {
	spec, _ := blaze.StreamWorkload(blaze.StreamPR)
	return blaze.SessionConfig{
		Executors:         2,
		Parallelism:       2,
		MemoryPerExecutor: 1 << 20,
		CostParams:        blaze.EvalParams(spec.SerFactor),
		EventLog:          log,
		CheckpointDir:     dir,
		RecoveryLog:       recLog,
	}
}

// faultRun is one durable stream: its result, the per-window stats, the
// checkpoints, and — when it failed — the call that returned the error.
type faultRun struct {
	res         *blaze.Result
	windows     []blaze.WindowStats
	checkpoints []blaze.CheckpointStat
	failedAt    string // "" or "NextWindow k" or "Close"
	err         error
}

// runFaultStream drives a small StreamPR session window by window until
// a call fails, then closes it.
func runFaultStream(t *testing.T, open func(blaze.SessionConfig) (*blaze.Session, error), cfg blaze.SessionConfig) faultRun {
	t.Helper()
	spec, err := blaze.StreamWorkload(blaze.StreamPR)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	step := spec.Open(0.1, false)
	var run faultRun
	for w := 1; w <= faultWindows; w++ {
		if err := sess.Submit(func(ctx *blaze.Context) { step(ctx, w) }); err != nil {
			t.Fatalf("Submit window %d: %v", w, err)
		}
		if w == faultWindows {
			break
		}
		if _, err := sess.NextWindow(); err != nil {
			run.failedAt, run.err = fmt.Sprintf("NextWindow %d", w), err
			sess.Close()
			return run
		}
	}
	run.res, run.err = sess.Close()
	if run.err != nil {
		run.failedAt = "Close"
	}
	run.windows, run.checkpoints = sess.WindowStats(), sess.CheckpointStats()
	return run
}

// commitOps returns the index range [from, to) of the operations in ops
// that belong to the commit of boundary window: a commit starts by
// clearing its window directory, and the next commit starts the next.
func commitOps(t *testing.T, ops []string, window int) (from, to int) {
	t.Helper()
	from, to = -1, len(ops)
	for i, op := range ops {
		if strings.HasPrefix(op, "removeall ") && strings.HasSuffix(op, fmt.Sprintf("win_%04d", window)) {
			from = i
		} else if from >= 0 && strings.HasPrefix(op, "removeall ") && strings.HasSuffix(op, fmt.Sprintf("win_%04d", window+1)) {
			return from, i
		}
	}
	if from < 0 {
		t.Fatalf("no commit of window %d among %d operations", window, len(ops))
	}
	return from, to
}

// pruning reports whether op is part of the prune that ends the commit
// of boundary window: listing the checkpoint directory, removing an
// older window's.
func pruning(op string, window int) bool {
	return strings.HasPrefix(op, "readdir ") ||
		strings.HasPrefix(op, "removeall ") && !strings.HasSuffix(op, fmt.Sprintf("win_%04d", window))
}

// settledGoroutines waits for the goroutine count to drop to at most
// base, returning the count it saw last.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestBackgroundCommitFailureIsSessionError fails, one run at a time,
// every file operation of the background commits of boundaries 3 and 4.
// Each failure must come back from the call that joins the commit — the
// next NextWindow for boundary 3, Close for boundary 4 — wrapping the
// cause; no goroutine may outlive the session; and an immediate
// ResumeSession on the directory must finish the stream bit-identical to
// a run that never failed, from the newest boundary left whole. Only a
// failure while pruning older windows, which is best-effort, may leave
// the session clean.
func TestBackgroundCommitFailureIsSessionError(t *testing.T) {
	cleanLog := blaze.NewEventLog()
	ops, restore := checkpoint.InjectDiskFault(0, nil)
	clean := runFaultStream(t, blaze.NewSession, faultConfig(t.TempDir(), cleanLog, nil))
	restore()
	if clean.err != nil {
		t.Fatalf("clean run: %v", clean.err)
	}
	all := ops()

	for _, c := range []struct {
		window   int
		failedAt string
	}{{3, fmt.Sprintf("NextWindow %d", 3)}, {4, "Close"}} {
		from, to := commitOps(t, all, c.window)
		for k := from; k < to; k++ {
			op := all[k]
			t.Run(fmt.Sprintf("boundary%d/op%d", c.window, k-from+1), func(t *testing.T) {
				dir := t.TempDir()
				base := runtime.NumGoroutine()
				_, restore := checkpoint.InjectDiskFault(k+1, errDiskFault)
				run := runFaultStream(t, blaze.NewSession, faultConfig(dir, blaze.NewEventLog(), nil))
				restore()
				if n := settledGoroutines(base); n > base {
					t.Errorf("%d goroutines after the session ended, %d before it", n, base)
				}
				switch {
				case pruning(op, c.window):
					// A window pruning fails to remove is an extra, older one.
					if run.err != nil {
						t.Fatalf("failing %q (prune) failed the session: %v", op, run.err)
					}
					return
				case run.err == nil:
					t.Fatalf("failing %q left the session clean", op)
				case !errors.Is(run.err, errDiskFault):
					t.Fatalf("failing %q: %s returned %v, which does not wrap the cause", op, run.failedAt, run.err)
				case run.failedAt != c.failedAt:
					t.Fatalf("failing %q: the error came from %s, want %s", op, run.failedAt, c.failedAt)
				}

				resLog, recLog := blaze.NewEventLog(), blaze.NewEventLog()
				res := runFaultStream(t, blaze.ResumeSession, faultConfig(dir, resLog, recLog))
				if res.err != nil {
					t.Fatalf("resume after failing %q: %v", op, res.err)
				}
				if !blaze.MetricsEqualDeterministic(clean.res.Metrics, res.res.Metrics) {
					t.Errorf("resumed metrics differ from the clean run")
				}
				if be, re := cleanLog.Events(), resLog.Events(); !reflect.DeepEqual(be, re) {
					t.Errorf("resumed event log differs from the clean run (%d vs %d events)", len(re), len(be))
				}
				for i := range clean.windows {
					if !clean.windows[i].EqualDeterministic(res.windows[i]) {
						t.Errorf("window %d stats differ from the clean run", i+1)
					}
				}
				for _, e := range recLog.Events() {
					if e.Kind == "session_resumed" && (e.Window < c.window-1 || e.Window > c.window) {
						t.Errorf("resumed at boundary %d after boundary %d's commit failed", e.Window, c.window)
					}
				}
			})
		}
	}
}
