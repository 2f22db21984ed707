package blaze_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"blaze"
	"blaze/internal/checkpoint"
	"blaze/internal/dataflow"
	"blaze/internal/storage"
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
	poisonPools(t)
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

// assertResumedEqualsBase compares a resumed stream with the
// uninterrupted one: deterministic metrics, the main event log and every
// window's stats.
func assertResumedEqualsBase(t *testing.T, base, res *blaze.StreamResult, baseLog, resLog *blaze.EventLog) {
	t.Helper()
	if !blaze.MetricsEqualDeterministic(base.Metrics, res.Metrics) {
		t.Errorf("resumed metrics differ from uninterrupted run\nbase: %+v\nres:  %+v", base.Metrics, res.Metrics)
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
	if len(res.Windows) != len(base.Windows) {
		t.Fatalf("window counts differ: base=%d resumed=%d", len(base.Windows), len(res.Windows))
	}
	for i := range base.Windows {
		if !base.Windows[i].EqualDeterministic(res.Windows[i]) {
			t.Errorf("window %d stats differ:\nbase: %+v\nres:  %+v", i+1, base.Windows[i], res.Windows[i])
		}
	}
}

// TestStreamCrashResumeFallbackAndEmptyBlocks crashes streamMixed at
// every boundary. Its checkpoints must actually hold what the test is
// about — a gob-fallback block and an empty non-nil typed block — and the
// resumed run must equal the uninterrupted one.
func TestStreamCrashResumeFallbackAndEmptyBlocks(t *testing.T) {
	tune := func(c *blaze.StreamConfig) { c.System = blaze.SysSparkMemDisk }
	base, baseLog := runStream(t, streamMixed, 1, 0, tune)
	for k := 2; k <= 4; k++ {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableStreamConfig(streamMixed, 1, 0, dir, k, blaze.NewEventLog(), nil)
			tune(&cfg)
			if _, err := blaze.RunStream(cfg); !errors.Is(err, blaze.ErrSessionCrashed) {
				t.Fatalf("crash run: got err %v, want ErrSessionCrashed", err)
			}
			wd := filepath.Join(dir, fmt.Sprintf("win_%04d", k))
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

			cfg.EventLog = blaze.NewEventLog()
			res, err := blaze.ResumeStream(cfg)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			assertResumedEqualsBase(t, base, res, baseLog, cfg.EventLog)
		})
	}
}

// TestResumedShuffleServesBothPlanes: the map outputs a resume restores
// from the snapshot (typed blocks written from row-form or columnar
// buckets) must serve whichever form the resumed tasks compute in. The
// crashed and the resumed process each run by default ("vec=true") or
// with every kernel declined, all four combinations; every resumed stream
// equals the uninterrupted one, which a restored bucket served wrongly —
// or a map stage re-run because its output went missing — would break.
func TestResumedShuffleServesBothPlanes(t *testing.T) {
	poisonPools(t)
	for _, wl := range []blaze.StreamWorkloadID{blaze.StreamPR, streamMixed} {
		tune := func(c *blaze.StreamConfig) {
			if wl == streamMixed {
				c.System = blaze.SysSparkMemDisk
			}
		}
		base, baseLog := runStream(t, wl, 1, 0, tune)
		for _, crashVec := range []bool{false, true} {
			for _, resumeVec := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/crash-vec=%v/resume-vec=%v", wl, crashVec, resumeVec), func(t *testing.T) {
					dir := t.TempDir()
					cfg := durableStreamConfig(wl, 1, 0, dir, 3, blaze.NewEventLog(), nil)
					tune(&cfg)
					var err error
					arm := func(vec bool, run func()) {
						if vec {
							run()
						} else {
							withKernelsDeclined(run)
						}
					}
					arm(crashVec, func() { _, err = blaze.RunStream(cfg) })
					if !errors.Is(err, blaze.ErrSessionCrashed) {
						t.Fatalf("crash run: got err %v, want ErrSessionCrashed", err)
					}
					cfg.EventLog = blaze.NewEventLog()
					var res *blaze.StreamResult
					arm(resumeVec, func() { res, err = blaze.ResumeStream(cfg) })
					if err != nil {
						t.Fatalf("resume: %v", err)
					}
					assertResumedEqualsBase(t, base, res, baseLog, cfg.EventLog)
				})
			}
		}
	}
}
