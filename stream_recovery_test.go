package blaze_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"blaze"
)

// durableStreamConfig builds the crash-recovery test configuration: a
// durable streaming run over 4 windows at quarter scale with cold-solve
// verification on, checkpointing into dir and (optionally) crashing at
// window boundary k. A positive disk caps each executor's disk tier, so
// every solve — plan repair included — runs the exact three-state ILP.
func durableStreamConfig(wl blaze.StreamWorkloadID, par int, disk int64, dir string, crashWindow int,
	log, recLog *blaze.EventLog) blaze.StreamConfig {
	return blaze.StreamConfig{
		Workload:          wl,
		Windows:           4,
		Scale:             0.25,
		Executors:         4,
		Parallelism:       par,
		MemoryPerExecutor: 1 << 20,
		DiskCapacity:      disk,
		EventLog:          log,
		ColdSolveVerify:   true,
		CheckpointDir:     dir,
		CrashWindow:       crashWindow,
		RecoveryLog:       recLog,
	}
}

// TestStreamCrashResumeBitIdentity is the recovery layer's headline
// invariant: a streaming session killed at ANY window boundary and
// resumed from its checkpoint produces bit-identical metrics, event
// logs and per-window stats to a run that never crashed — at every
// Parallelism, on the knapsack path and (diskcap: 1 MiB per executor)
// through the exact ILP. The baseline runs without checkpointing at all,
// so the comparison also proves that durability itself perturbs nothing.
func TestStreamCrashResumeBitIdentity(t *testing.T) {
	for _, wl := range blaze.AllStreamWorkloads() {
		wl := wl
		for _, c := range []struct {
			par  int
			disk int64
		}{{1, 0}, {8, 0}, {1, 1 << 20}, {8, 1 << 20}} {
			par, disk := c.par, c.disk
			baseRes, baseLog := runStream(t, wl, par, disk)
			// Every boundary k (window 1 has no boundary checkpoint).
			for k := 2; k <= 4; k++ {
				k := k
				name := fmt.Sprintf("%s/p%d/k%d", wl, par, k)
				if disk > 0 {
					name += "/diskcap"
				}
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()

					// Crash the run at boundary k.
					crashLog := blaze.NewEventLog()
					_, err := blaze.RunStream(durableStreamConfig(wl, par, disk, dir, k, crashLog, nil))
					if !errors.Is(err, blaze.ErrSessionCrashed) {
						t.Fatalf("crash run: got err %v, want ErrSessionCrashed", err)
					}

					// Resume with the identical config (CrashWindow included:
					// the crashed boundary replays, so the trigger must not
					// re-fire).
					resLog := blaze.NewEventLog()
					recLog := blaze.NewEventLog()
					res, err := blaze.ResumeStream(durableStreamConfig(wl, par, disk, dir, k, resLog, recLog))
					if err != nil {
						t.Fatalf("resume: %v", err)
					}

					if !blaze.MetricsEqualDeterministic(baseRes.Metrics, res.Metrics) {
						t.Errorf("resumed metrics differ from uninterrupted run\nbase: %+v\nres:  %+v",
							baseRes.Metrics, res.Metrics)
					}
					be, re := baseLog.Events(), resLog.Events()
					if len(be) != len(re) {
						t.Fatalf("event counts differ: base=%d resumed=%d", len(be), len(re))
					}
					for i := range be {
						if be[i] != re[i] {
							t.Fatalf("event %d differs:\nbase: %+v\nres:  %+v", i, be[i], re[i])
						}
					}
					if len(res.Windows) != len(baseRes.Windows) {
						t.Fatalf("window counts differ: base=%d resumed=%d", len(baseRes.Windows), len(res.Windows))
					}
					for i := range baseRes.Windows {
						if !baseRes.Windows[i].EqualDeterministic(res.Windows[i]) {
							t.Errorf("window %d stats differ:\nbase: %+v\nres:  %+v",
								i+1, baseRes.Windows[i], res.Windows[i])
						}
					}
					// The resumed process commits the remaining boundaries
					// itself, each with real carried state.
					if got, want := len(res.Checkpoints), 4-k; got != want {
						t.Errorf("resumed run committed %d checkpoints, want %d", got, want)
					}
					for _, ck := range res.Checkpoints {
						if ck.Window <= k || ck.Blocks == 0 || ck.Bytes == 0 {
							t.Errorf("implausible checkpoint after resume at %d: %+v", k, ck)
						}
					}
					if res.Metrics.ILPColdMismatches != 0 {
						t.Errorf("post-resume delta solves disagreed with cold solves %d times",
							res.Metrics.ILPColdMismatches)
					}

					// The plan repair ran, verified clean, and stayed out of
					// the main log.
					if res.Metrics.RepairSolves == 0 {
						t.Error("resume triggered no plan-repair solves")
					}
					if res.Metrics.RepairMismatches != 0 {
						t.Errorf("plan repair disagreed with from-scratch solve %d times",
							res.Metrics.RepairMismatches)
					}
					var resumed, repairs int
					for _, e := range recLog.Events() {
						switch e.Kind {
						case "session_resumed":
							resumed++
							if e.Window != k {
								t.Errorf("session_resumed at window %d, want %d", e.Window, k)
							}
						case "ilp_repair_solve":
							repairs++
						}
					}
					if resumed != 1 {
						t.Errorf("recovery log holds %d session_resumed events, want 1", resumed)
					}
					if repairs == 0 {
						t.Error("recovery log holds no ilp_repair_solve events")
					}
				})
			}
		}
	}
}

// TestResumeFallbackToPreviousBoundary corrupts the newest checkpoint
// after a crash: resume must fall back to the previous boundary's
// snapshot — re-running one more window live — and still reproduce the
// uninterrupted run bit for bit.
func TestResumeFallbackToPreviousBoundary(t *testing.T) {
	baseRes, baseLog := runStream(t, blaze.StreamPR, 1, 0)
	dir := t.TempDir()

	crashLog := blaze.NewEventLog()
	_, err := blaze.RunStream(durableStreamConfig(blaze.StreamPR, 1, 0, dir, 4, crashLog, nil))
	if !errors.Is(err, blaze.ErrSessionCrashed) {
		t.Fatalf("crash run: got err %v, want ErrSessionCrashed", err)
	}

	// Damage the boundary-4 snapshot's commit record.
	manifest := filepath.Join(dir, "win_0004", "manifest.json")
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(manifest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	resLog := blaze.NewEventLog()
	recLog := blaze.NewEventLog()
	res, err := blaze.ResumeStream(durableStreamConfig(blaze.StreamPR, 1, 0, dir, 0, resLog, recLog))
	if err != nil {
		t.Fatalf("fallback resume: %v", err)
	}
	if !blaze.MetricsEqualDeterministic(baseRes.Metrics, res.Metrics) {
		t.Errorf("fallback-resumed metrics differ from uninterrupted run\nbase: %+v\nres:  %+v",
			baseRes.Metrics, res.Metrics)
	}
	be, re := baseLog.Events(), resLog.Events()
	if len(be) != len(re) {
		t.Fatalf("event counts differ: base=%d resumed=%d", len(be), len(re))
	}
	for i := range be {
		if be[i] != re[i] {
			t.Fatalf("event %d differs:\nbase: %+v\nres:  %+v", i, be[i], re[i])
		}
	}
	// The resume point must actually have been the older boundary.
	for _, e := range recLog.Events() {
		if e.Kind == "session_resumed" && e.Window != 3 {
			t.Errorf("resumed at window %d, want fallback boundary 3", e.Window)
		}
	}
}

// TestResumeWithoutCheckpoint pins the recompute-from-scratch fallback:
// resuming a directory with no usable snapshot reports ErrNoCheckpoint,
// and the caller's fallback — a plain run — still works.
func TestResumeWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := durableStreamConfig(blaze.StreamKMeans, 1, 0, dir, 0, blaze.NewEventLog(), nil)
	if _, err := blaze.ResumeStream(cfg); !errors.Is(err, blaze.ErrNoCheckpoint) {
		t.Fatalf("resume on empty dir: err = %v, want ErrNoCheckpoint", err)
	}
	cfg.EventLog = blaze.NewEventLog()
	if _, err := blaze.RunStream(cfg); err != nil {
		t.Fatalf("from-scratch fallback run: %v", err)
	}
}

// TestSessionDoubleCloseAfterCrash pins Close idempotency on the crash
// path: closing a crashed durable session twice must not panic and must
// keep returning a closed/crashed error.
func TestSessionDoubleCloseAfterCrash(t *testing.T) {
	dir := t.TempDir()
	sess, err := blaze.NewSession(blaze.SessionConfig{
		Executors:         2,
		MemoryPerExecutor: 1 << 20,
		CheckpointDir:     dir,
		CrashWindow:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	step := func(ctx *blaze.Context) {}
	if err := sess.Submit(step); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.NextWindow(); !errors.Is(err, blaze.ErrSessionCrashed) {
		t.Fatalf("NextWindow at crash boundary: err = %v, want ErrSessionCrashed", err)
	}
	if _, err := sess.Close(); !errors.Is(err, blaze.ErrSessionCrashed) {
		t.Fatalf("first Close after crash: err = %v, want ErrSessionCrashed", err)
	}
	if _, err := sess.Close(); !errors.Is(err, blaze.ErrSessionClosed) {
		t.Fatalf("second Close: err = %v, want ErrSessionClosed", err)
	}
}
