package blaze_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blaze"
	"blaze/internal/checkpoint"
	"blaze/internal/dataflow"
	"blaze/internal/storage"
)

// TestResumeFallbackToPreviousBoundary corrupts the newest checkpoint
// after a crash: resume must fall back to the previous boundary's
// snapshot — re-running one more window live — and still reproduce the
// uninterrupted run bit for bit.
func TestResumeFallbackToPreviousBoundary(t *testing.T) {
	c := streamCell(quarterStream(blaze.StreamPR, 0))
	cfg := crashAt(t, blaze.StreamConfig(c), 4)

	// Damage the boundary-4 snapshot's commit record.
	manifest := filepath.Join(cfg.CheckpointDir, "win_0004", "manifest.json")
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(manifest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.CrashWindow = 0
	res, err := blaze.ResumeStream(cfg)
	if err != nil {
		t.Fatalf("fallback resume: %v", err)
	}
	assertSame(t, c.run(t, refArm), streamOutcome(arm{par: 1, kernels: true, crash: 4, crashKernels: true}, res, cfg.EventLog))
	// The resume point must actually have been the older boundary.
	for _, e := range cfg.RecoveryLog.Events() {
		if e.Kind == "session_resumed" && e.Window != 3 {
			t.Errorf("resumed at window %d, want fallback boundary 3", e.Window)
		}
	}
}

// TestResumeWithoutCheckpoint pins the recompute-from-scratch fallback:
// resuming a directory with no usable snapshot reports ErrNoCheckpoint,
// and the caller's fallback — a plain run — still works.
func TestResumeWithoutCheckpoint(t *testing.T) {
	cfg := quarterStream(blaze.StreamKMeans, 0)
	cfg.CheckpointDir, cfg.EventLog = t.TempDir(), blaze.NewEventLog()
	if _, err := blaze.ResumeStream(cfg); !errors.Is(err, blaze.ErrNoCheckpoint) {
		t.Fatalf("resume on empty dir: err = %v, want ErrNoCheckpoint", err)
	}
	cfg.EventLog = blaze.NewEventLog()
	if _, err := blaze.RunStream(cfg); err != nil {
		t.Fatalf("from-scratch fallback run: %v", err)
	}
}

// resumeWithin runs a resume of the given checkpoint under cfg and fails
// the test unless it returns an error within a minute: a resume that
// cannot be applied must fail the session, never hang the process.
func resumeWithin(t *testing.T, cfg blaze.StreamConfig) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := blaze.ResumeStream(cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("resume succeeded, want an error")
		}
		return err
	case <-time.After(time.Minute):
		t.Fatal("resume hung")
	}
	return nil
}

// TestResumeRejectsExecutorMismatch resumes a checkpoint on fewer
// executors than wrote it: the count is checked against the engine
// snapshot before replay starts, and the error names both counts.
func TestResumeRejectsExecutorMismatch(t *testing.T) {
	cfg := crashAt(t, quarterStream(blaze.StreamPR, 0), 3)
	cfg.Executors = 3
	if err := resumeWithin(t, cfg); !strings.Contains(err.Error(), "4 executors, config has 3") {
		t.Fatalf("resume on 3 executors: err = %v, want the executor-count mismatch", err)
	}
}

// TestResumeRehydrateFailureIsSessionError resumes a checkpoint into
// executors too small to re-admit its carried blocks. The rehydrate
// fails at the checkpointed boundary, and that failure must come back as
// the session's error: the boundary releases the pool on the way out,
// so the session's teardown does not wait on it forever.
func TestResumeRehydrateFailureIsSessionError(t *testing.T) {
	cfg := crashAt(t, quarterStream(blaze.StreamPR, 0), 3)
	cfg.MemoryPerExecutor = 16 << 10
	if err := resumeWithin(t, cfg); !strings.Contains(err.Error(), "engine: resume:") {
		t.Fatalf("resume into 16 KiB executors: err = %v, want the failed rehydrate", err)
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

// streamMixed is a streaming workload whose carried state reaches every
// corner of the at-rest block format. Per window it caches a partition
// set of string labels (no flat column: the gob fallback) in which every
// fourth partition is empty but non-nil (Map over an empty source
// partition), reduces a float64 shuffle it leaves uncached, and then
// reads the previous window's labels and re-reads the previous window's
// reduce — whose map outputs exist only in the shuffle service, so after
// a resume they are fetched from the restored snapshot.
const streamMixed blaze.StreamWorkloadID = "test-stream-mixed"

func init() {
	err := blaze.RegisterStreamWorkload(blaze.StreamWorkloadSpec{
		ID: streamMixed, Title: "MixedCarriedState", SerFactor: 1,
		Open: func(float64, bool) func(ctx *blaze.Context, window int) {
			const parts = 8
			var prevLabels, prevSums *blaze.Dataset
			return func(ctx *blaze.Context, w int) {
				src := ctx.Source(fmt.Sprintf("mix-src@%d", w), parts, func(p int) []blaze.Record {
					if p%4 == 3 {
						return nil
					}
					out := make([]blaze.Record, 40)
					for i := range out {
						out[i] = blaze.Record{Key: int64(w*1000 + p*40 + i), Value: float64(i) + 0.25*float64(w)}
					}
					return out
				})
				labels := src.Map(fmt.Sprintf("mix-labels@%d", w), func(r blaze.Record) blaze.Record {
					return blaze.Record{Key: r.Key, Value: fmt.Sprintf("w%d/%d", w, r.Key)}
				}).Cache()
				sums := src.Map(fmt.Sprintf("mix-mod@%d", w), func(r blaze.Record) blaze.Record {
					return blaze.Record{Key: r.Key % 17, Value: r.Value}
				}).ReduceByKeyF64(fmt.Sprintf("mix-sums@%d", w), parts, func(a, b float64) float64 { return a + b })
				labels.Count()
				sums.Count()
				if prevLabels != nil {
					blaze.ZipDatasets(fmt.Sprintf("mix-zip@%d", w), blaze.OpLight, labels, prevLabels,
						func(_ int, l, r []blaze.Record) []blaze.Record { return append(append([]blaze.Record{}, l...), r...) }).Count()
					prevSums.Map(fmt.Sprintf("mix-again@%d", w), func(r blaze.Record) blaze.Record { return r }).Count()
				}
				prevLabels, prevSums = labels, sums
			}
		},
	})
	if err != nil {
		panic(err)
	}
}

// TestStreamCrashResumeFallbackAndEmptyBlocks crashes streamMixed at
// every boundary. Its checkpoints must actually hold what the test is
// about — a gob-fallback block and an empty non-nil typed block — and the
// resumed run must equal the uninterrupted one.
func TestStreamCrashResumeFallbackAndEmptyBlocks(t *testing.T) {
	c := mixedCell()
	ref := c.run(t, refArm)
	for k := 2; k <= 4; k++ {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			cfg := crashAt(t, blaze.StreamConfig(c), k)
			wd := filepath.Join(cfg.CheckpointDir, fmt.Sprintf("win_%04d", k))
			mdata, err := os.ReadFile(filepath.Join(wd, "manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			var m checkpoint.Manifest
			if err := json.Unmarshal(mdata, &m); err != nil {
				t.Fatal(err)
			}
			segment, err := os.ReadFile(filepath.Join(wd, "segment"))
			if err != nil {
				t.Fatal(err)
			}
			var fallback, emptyNonNil int
			for i, e := range m.Blocks {
				data := segment[e.Offset : e.Offset+e.Bytes]
				recs, err := storage.DecodeRecords(data)
				if err != nil {
					t.Fatalf("block %d: %v", i, err)
				}
				switch {
				case data[0] == dataflow.BlockGob:
					fallback++
				case recs != nil && len(recs) == 0:
					emptyNonNil++
				}
			}
			if fallback == 0 || emptyNonNil == 0 {
				t.Fatalf("boundary %d checkpoint holds %d blocks: %d gob-fallback, %d empty non-nil; want both kinds", k, len(m.Blocks), fallback, emptyNonNil)
			}

			res, err := blaze.ResumeStream(cfg)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			assertSame(t, ref, streamOutcome(arm{par: 1, kernels: true, crash: k, crashKernels: true}, res, cfg.EventLog))
		})
	}
}

// TestStreamResumeRestoresDiskBlocks crashes StreamPR under
// spark-memdisk, with memory small enough that carried blocks spill, at
// boundary 3. The boundary's checkpoint must hold disk-resident blocks
// (what DiskStore.Restore puts back on resume), and the resumed run must
// equal the uninterrupted one: metrics, event log and every window's
// stats.
func TestStreamResumeRestoresDiskBlocks(t *testing.T) {
	cfg := quarterStream(blaze.StreamPR, 0)
	cfg.System, cfg.MemoryPerExecutor = blaze.SysSparkMemDisk, 64<<10
	c := streamCell(cfg)
	ref := c.run(t, refArm)
	cfg = crashAt(t, cfg, 3)
	rs, _, err := checkpoint.Load(cfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Window != 3 || len(rs.DiskBlocks) == 0 {
		t.Fatalf("checkpoint at boundary %d holds %d disk blocks; want boundary 3 with at least one", rs.Window, len(rs.DiskBlocks))
	}
	res, err := blaze.ResumeStream(cfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	assertSame(t, ref, streamOutcome(arm{par: 1, kernels: true, crash: 3, crashKernels: true}, res, cfg.EventLog))
}

// mixedCell is streamMixed's stream cell, on a system that caches what
// the workload annotates.
func mixedCell() streamCell {
	cfg := quarterStream(streamMixed, 0)
	cfg.System = blaze.SysSparkMemDisk
	return streamCell(cfg)
}

// TestResumedShuffleServesBothPlanes: the map outputs a resume restores
// from the snapshot (typed blocks written from row-form or columnar
// buckets) must serve whichever form the resumed tasks compute in. The
// crashed and the resumed leg each run by default ("vec=true") or with
// every kernel declined, all four combinations; a restored bucket served
// wrongly — or a map stage re-run because its output went missing —
// would break the identity.
func TestResumedShuffleServesBothPlanes(t *testing.T) {
	for _, c := range []streamCell{streamCell(quarterStream(blaze.StreamPR, 0)), mixedCell()} {
		for _, crashVec := range []bool{false, true} {
			for _, resumeVec := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/crash-vec=%v/resume-vec=%v", c.Workload, crashVec, resumeVec), func(t *testing.T) {
					match(t, c, arm{par: 1, kernels: resumeVec, crash: 3, crashKernels: crashVec})
				})
			}
		}
	}
}

// sessionRun is one stream driven through the Session API, window by
// window, until a call fails; the stats are read after Close.
type sessionRun struct {
	res         *blaze.Result
	windows     []blaze.WindowStats
	checkpoints []blaze.CheckpointStat
	err         error
}

// driveSession runs four windows of wl at quarter scale on a session
// open builds from cfg, then closes it.
func driveSession(t *testing.T, wl blaze.StreamWorkloadID, open func(blaze.SessionConfig) (*blaze.Session, error), cfg blaze.SessionConfig) sessionRun {
	t.Helper()
	spec, err := blaze.StreamWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CostParams = blaze.EvalParams(spec.SerFactor)
	sess, err := open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	step := spec.Open(0.25, false)
	var run sessionRun
	for w := 1; w <= 4 && run.err == nil; w++ {
		if run.err = sess.Submit(func(ctx *blaze.Context) { step(ctx, w) }); run.err == nil && w < 4 {
			_, run.err = sess.NextWindow()
		}
	}
	res, err := sess.Close()
	if run.err == nil {
		run.res, run.err = res, err
	}
	run.windows, run.checkpoints = sess.WindowStats(), sess.CheckpointStats()
	return run
}

// checkpointWindows lists the boundaries of a run's checkpoints, failing
// on one that persisted nothing.
func checkpointWindows(t *testing.T, cps []blaze.CheckpointStat) []int {
	t.Helper()
	var out []int
	for _, ck := range cps {
		if ck.Bytes == 0 {
			t.Errorf("checkpoint at boundary %d wrote no bytes", ck.Window)
		}
		out = append(out, ck.Window)
	}
	return out
}

// TestDurableStreamBackgroundCommitRace crashes durable StreamPR and
// StreamKMeans sessions at P=8 at every boundary and resumes them: each
// boundary's commit runs on the committer goroutine while the next
// window's jobs run on eight workers, and CheckpointStats is read after
// Close. It is a race-detector test: CI runs it under -race, and it holds
// at -count=10.
func TestDurableStreamBackgroundCommitRace(t *testing.T) {
	for _, wl := range []blaze.StreamWorkloadID{blaze.StreamPR, blaze.StreamKMeans} {
		config := func(dir string, crash int, log, recLog *blaze.EventLog) blaze.SessionConfig {
			return blaze.SessionConfig{Executors: 4, Parallelism: 8, MemoryPerExecutor: 1 << 20,
				EventLog: log, CheckpointDir: dir, CrashWindow: crash, RecoveryLog: recLog}
		}
		ref := streamCell(quarterStream(wl, 0)).run(t, refArm)
		for k := 2; k <= 4; k++ {
			t.Run(fmt.Sprintf("%s/k%d", wl, k), func(t *testing.T) {
				dir := t.TempDir()
				crashed := driveSession(t, wl, blaze.NewSession, config(dir, k, blaze.NewEventLog(), nil))
				if !errors.Is(crashed.err, blaze.ErrSessionCrashed) {
					t.Fatalf("crash run: err = %v, want ErrSessionCrashed", crashed.err)
				}
				// The crash waits for its boundary's commit, so its stat is
				// there too.
				if got, want := fmt.Sprint(checkpointWindows(t, crashed.checkpoints)), fmt.Sprint(seq(2, k)); got != want {
					t.Errorf("crashed run reports checkpoints at %s, want %s", got, want)
				}

				resLog := blaze.NewEventLog()
				resumed := driveSession(t, wl, blaze.ResumeSession, config(dir, k, resLog, blaze.NewEventLog()))
				if resumed.err != nil {
					t.Fatalf("resume: %v", resumed.err)
				}
				if got, want := fmt.Sprint(checkpointWindows(t, resumed.checkpoints)), fmt.Sprint(seq(k+1, 4)); got != want {
					t.Errorf("resumed run reports checkpoints at %s, want %s", got, want)
				}
				assertSame(t, ref, &outcome{arm: arm{par: 8, kernels: true, crash: k, crashKernels: true},
					res: resumed.res, log: resLog, windows: resumed.windows})
			})
		}
	}
}

// seq is the integers from..to.
func seq(from, to int) []int {
	var out []int
	for i := from; i <= to; i++ {
		out = append(out, i)
	}
	return out
}
