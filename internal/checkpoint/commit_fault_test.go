package checkpoint_test

// Failure tests for the background commit: a boundary's snapshot is
// written by a committer goroutine while the next window runs, so a disk
// failure surfaces at the join — the next NextWindow or Close — instead
// of inside the boundary that captured it.

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	_ "unsafe" // go:linkname

	"blaze"
	"blaze/internal/checkpoint"
	"blaze/internal/core"
	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/datagen"
	"blaze/internal/engine"
	"blaze/internal/eventlog"
	"blaze/internal/graphx"
	"blaze/internal/storage"
)

var errDiskFault = errors.New("injected disk fault")

// poisonReleased is internal/dataflow's test-only switch: while it is
// set, released arrays are poisoned and the share guard checks every
// shared batch (a share released twice or a shared batch written panics).
//
//go:linkname poisonReleased blaze/internal/dataflow.poisonReleased
var poisonReleased bool

// heldShares is the share guard's count of shares taken and not given
// back.
//
//go:linkname heldShares blaze/internal/dataflow.heldShares
var heldShares atomic.Int64

// poisonPools turns poisoning, and with it the share guard, on for the
// rest of the test.
func poisonPools(t *testing.T) {
	poisonReleased = true
	t.Cleanup(func() { poisonReleased = false })
}

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
// the session clean. Released arrays are poisoned throughout, so the
// share guard checks the capture's shares on every failure path too;
// TestFailedBoundaryReleasesCapture counts them.
func TestBackgroundCommitFailureIsSessionError(t *testing.T) {
	// The share guard watches every run: a failure path that released
	// a capture's share twice, or let a shared batch change under it,
	// panics.
	poisonPools(t)
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

// shareProbe wraps a Checkpointer. Around each boundary it reads the
// share guard's count, joins the boundary's commit right away and
// records the boundary's failure, if any. Nothing else runs in between,
// so the count must come back to where it was: the capture gave back
// every share it took, whichever way the boundary ended.
type shareProbe struct {
	t      *testing.T
	cp     *checkpoint.Checkpointer
	window int
	errs   map[int]error
}

func (p *shareProbe) OnWindowBoundary(c *engine.Cluster, window int) {
	p.window = window
	before := heldShares.Load()
	defer func() {
		err := p.cp.Join()
		if r := recover(); r != nil {
			var ok bool
			if err, ok = r.(error); !ok {
				panic(r)
			}
		}
		if err != nil {
			p.errs[window] = err
		}
		if after := heldShares.Load(); after != before {
			p.t.Errorf("boundary %d (err %v): %d shares held after it, %d before", window, err, after, before)
		}
	}()
	p.cp.OnWindowBoundary(c, window)
}

// probedStream runs a durable PageRank stream of faultWindows windows on
// an engine cluster whose checkpointer is wrapped in a shareProbe, with
// poisoning on. before, when set, runs ahead of each boundary. Returns
// each boundary's failure.
func probedStream(t *testing.T, dir string, clientErr error, before func(window int, c *engine.Cluster, wal *eventlog.WAL)) map[int]error {
	t.Helper()
	ctx := dataflow.NewContext()
	c, err := engine.NewCluster(engine.Config{
		Executors:         2,
		Parallelism:       2,
		MemoryPerExecutor: 48 << 10,
		Params:            costmodel.Default(),
		Controller:        core.NewBlaze(),
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wal, err := eventlog.CreateWAL(checkpoint.WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	probe := &shareProbe{t: t, errs: map[int]error{}}
	probe.cp = &checkpoint.Checkpointer{Dir: dir, WAL: wal, ClientState: func() ([]byte, error) {
		if clientErr != nil && probe.window == 3 {
			return nil, clientErr
		}
		return []byte("client"), nil
	}}
	c.SetWindowCheckpointer(probe)
	step := graphx.PageRankStream(graphx.PageRankStreamConfig{
		Graph: datagen.GraphSpec{Seed: 5, Vertices: 600, AvgDegree: 6}, Parts: 8,
	})
	for w := 1; w <= faultWindows; w++ {
		if before != nil {
			before(w, c, wal)
		}
		c.StartWindow()
		step(ctx, w)
	}
	if err := c.Teardown(); err != nil {
		t.Fatal(err)
	}
	return probe.errs
}

// TestFailedBoundaryReleasesCapture fails boundary 3 of a durable stream
// in every way a boundary can fail after its capture: each file
// operation of its commit, the client payload, the WAL flush, and the
// encoding of a block. Each failure must be the boundary's error, and
// at every boundary the share guard must count as many shares held
// after it as before (see shareProbe).
func TestFailedBoundaryReleasesCapture(t *testing.T) {
	poisonPools(t)
	ops, restore := checkpoint.InjectDiskFault(0, nil)
	clean := probedStream(t, t.TempDir(), nil, nil)
	restore()
	if len(clean) != 0 {
		t.Fatalf("clean run failed: %v", clean)
	}
	all := ops()
	from, to := -1, len(all)
	for i, op := range all {
		switch {
		case strings.HasPrefix(op, "removeall ") && strings.HasSuffix(op, "win_0003"):
			from = i
		case from >= 0 && strings.HasPrefix(op, "removeall ") && strings.HasSuffix(op, "win_0004"):
			to = min(to, i)
		}
	}
	if from < 0 {
		t.Fatalf("no commit of boundary 3 among %d operations", len(all))
	}
	for k := from; k < to; k++ {
		t.Run(fmt.Sprintf("op%d", k-from+1), func(t *testing.T) {
			_, restore := checkpoint.InjectDiskFault(k+1, errDiskFault)
			errs := probedStream(t, t.TempDir(), nil, nil)
			restore()
			if pruning(all[k], 3) {
				return // best-effort: may or may not fail the boundary
			}
			if !errors.Is(errs[3], errDiskFault) {
				t.Fatalf("failing %q: boundary 3 returned %v", all[k], errs[3])
			}
		})
	}

	errClient := errors.New("injected client state fault")
	t.Run("client", func(t *testing.T) {
		if errs := probedStream(t, t.TempDir(), errClient, nil); !errors.Is(errs[3], errClient) {
			t.Fatalf("boundary 3 returned %v", errs[3])
		}
	})
	t.Run("wal", func(t *testing.T) {
		// A closed WAL's file takes no more writes: the flush of the
		// record buffered after it fails.
		errs := probedStream(t, t.TempDir(), nil, func(window int, _ *engine.Cluster, wal *eventlog.WAL) {
			if window == 3 {
				if err := wal.Close(); err != nil {
					t.Fatal(err)
				}
				if err := wal.Append(eventlog.Event{Kind: eventlog.JobStart}); err != nil {
					t.Fatal(err)
				}
			}
		})
		if !errors.Is(errs[3], os.ErrClosed) {
			t.Fatalf("boundary 3 returned %v", errs[3])
		}
	})
	t.Run("encode", func(t *testing.T) {
		// A cached value that has no flat column and no gob encoding.
		errs := probedStream(t, t.TempDir(), nil, func(window int, c *engine.Cluster, _ *eventlog.WAL) {
			if window == 3 {
				ex := c.Executors()[0]
				id := storage.BlockID{Dataset: 1 << 20}
				if _, err := ex.Mem.Put(id, []dataflow.Record{{Key: 1, Value: make(chan int)}}, 64, ex.ID, 0); err != nil {
					t.Fatal(err)
				}
			}
		})
		if errs[3] == nil || !strings.Contains(errs[3].Error(), "encode memory block") {
			t.Fatalf("boundary 3 returned %v", errs[3])
		}
	})
}

// releaseProbe is an engine hook and window checkpointer that follows
// each boundary's capture through the next window's first two jobs: the
// capture must still be held when the first job starts and when it ends
// (the release runs after the hooks), and given back by the time the
// second starts.
type releaseProbe struct {
	t       *testing.T
	cp      *checkpoint.Checkpointer
	window  int // the boundary being followed; 0 = none
	jobs    int // jobs started since that boundary
	checked int // boundaries followed through two jobs
}

func (p *releaseProbe) OnWindowBoundary(c *engine.Cluster, window int) {
	p.cp.OnWindowBoundary(c, window)
	p.window, p.jobs = window, 0
}

func (p *releaseProbe) OnJobStart(*engine.Cluster, *engine.Job) {
	if p.window == 0 {
		return
	}
	p.jobs++
	switch held := p.cp.CaptureHeld(); {
	case p.jobs == 1 && !held:
		p.t.Errorf("boundary %d: capture released before the next window's first job", p.window)
	case p.jobs == 2 && held:
		p.t.Errorf("boundary %d: capture still held when the second job starts", p.window)
	}
	if p.jobs == 2 {
		p.checked++
		p.window = 0
	}
}

func (p *releaseProbe) OnStageEnd(*engine.Cluster, *engine.Stage) {}

func (p *releaseProbe) OnJobEnd(*engine.Cluster, *engine.Job) {
	if p.window != 0 && p.jobs == 1 && !p.cp.CaptureHeld() {
		p.t.Errorf("boundary %d: capture released before its first job ended", p.window)
	}
}

// slowEncoder is Blaze with a controller payload that takes 30 ms to
// encode, far longer than a job of the streams these tests run.
type slowEncoder struct{ *core.Controller }

func (s slowEncoder) CaptureState() func() ([]byte, error) {
	encode := s.Controller.CaptureState()
	return func() ([]byte, error) {
		time.Sleep(30 * time.Millisecond)
		return encode()
	}
}

// TestCaptureReleasedAtFirstJobEnd: a boundary's capture is given back
// on the driver at the end of the next window's first job, whether the
// committer finished encoding long before or is still at it (slow: the
// release waits for the encode). Released arrays return to the pools at
// the same point of every run, so what the next window allocates does
// not depend on how fast the committer ran.
func TestCaptureReleasedAtFirstJobEnd(t *testing.T) {
	poisonPools(t)
	for _, slow := range []bool{false, true} {
		t.Run(fmt.Sprintf("slow=%v", slow), func(t *testing.T) {
			var ctl engine.Controller = core.NewBlaze()
			if slow {
				ctl = slowEncoder{core.NewBlaze()}
			}
			dir := t.TempDir()
			wal, err := eventlog.CreateWAL(checkpoint.WALPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer wal.Close()
			probe := &releaseProbe{t: t, cp: &checkpoint.Checkpointer{Dir: dir, WAL: wal}}
			ctx := dataflow.NewContext()
			c, err := engine.NewCluster(engine.Config{
				Executors:         2,
				Parallelism:       2,
				MemoryPerExecutor: 48 << 10,
				Params:            costmodel.Default(),
				Controller:        ctl,
				Hook:              probe,
			}, ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetWindowCheckpointer(probe)
			step := graphx.PageRankStream(graphx.PageRankStreamConfig{
				Graph: datagen.GraphSpec{Seed: 5, Vertices: 600, AvgDegree: 6}, Parts: 8,
			})
			for w := 1; w <= faultWindows; w++ {
				c.StartWindow()
				step(ctx, w)
			}
			if err := c.Teardown(); err != nil {
				t.Fatal(err)
			}
			if probe.checked != faultWindows-1 {
				t.Fatalf("followed %d boundaries through two jobs, want %d", probe.checked, faultWindows-1)
			}
		})
	}
}
