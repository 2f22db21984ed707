package blaze_test

import (
	"fmt"
	"testing"

	"blaze"
)

// runStream runs a stream workload at the tests' quarter-scale point
// (4 windows, 4 executors, 1 MiB each); tune overrides it.
func runStream(t *testing.T, wl blaze.StreamWorkloadID, par int, disk int64, tune ...func(*blaze.StreamConfig)) (*blaze.StreamResult, *blaze.EventLog) {
	t.Helper()
	log := blaze.NewEventLog()
	cfg := blaze.StreamConfig{
		Workload:          wl,
		Windows:           4,
		Scale:             0.25,
		Executors:         4,
		Parallelism:       par,
		MemoryPerExecutor: 1 << 20,
		DiskCapacity:      disk,
		EventLog:          log,
	}
	for _, f := range tune {
		f(&cfg)
	}
	res, err := blaze.RunStream(cfg)
	if err != nil {
		t.Fatalf("%s parallelism=%d: %v", wl, par, err)
	}
	return res, log
}

// TestStreamWindowDeterminism extends the engine's parallel-identity
// guarantee to micro-batch streaming: N windows through a Session at
// Parallelism 1 and Parallelism 8 must produce bit-identical metrics,
// identical event logs, and identical per-window stats.
func TestStreamWindowDeterminism(t *testing.T) {
	for _, wl := range blaze.AllStreamWorkloads() {
		wl := wl
		t.Run(string(wl), func(t *testing.T) {
			seqRes, seqLog := runStream(t, wl, 1, 0)
			parRes, parLog := runStream(t, wl, 8, 0)

			if !blaze.MetricsEqualDeterministic(seqRes.Metrics, parRes.Metrics) {
				t.Errorf("metrics differ between sequential and parallel streams\nseq: %+v\npar: %+v",
					seqRes.Metrics, parRes.Metrics)
			}
			se, pe := seqLog.Events(), parLog.Events()
			if len(se) != len(pe) {
				t.Fatalf("event counts differ: seq=%d par=%d", len(se), len(pe))
			}
			for i := range se {
				if se[i] != pe[i] {
					t.Fatalf("event %d differs:\nseq: %+v\npar: %+v", i, se[i], pe[i])
				}
			}
			if len(seqRes.Windows) != len(parRes.Windows) {
				t.Fatalf("window counts differ: seq=%d par=%d", len(seqRes.Windows), len(parRes.Windows))
			}
			for i := range seqRes.Windows {
				if !seqRes.Windows[i].EqualDeterministic(parRes.Windows[i]) {
					t.Errorf("window %d stats differ:\nseq: %+v\npar: %+v",
						i+1, seqRes.Windows[i], parRes.Windows[i])
				}
			}

			windows, retired, deltas := seqRes.StreamActivity()
			if windows != 4 {
				t.Errorf("WindowsRun = %d, want 4", windows)
			}
			if retired == 0 {
				t.Error("no partitions retired: windowed lifetime management inactive")
			}
			if deltas == 0 {
				t.Error("no re-solves ran at window boundaries")
			}
		})
	}
}

// TestStreamBoundaryExactILP runs the streams on the branch-and-bound
// path: a disk tier makes every boundary instance a full three-state ILP
// rather than a memory knapsack. Boundary solves must run and windowed
// lifetime management must still retire partitions, both at quarter
// scale and with memory tight enough that the optimizer must choose
// (6 windows, 8 executors × 256 KiB).
func TestStreamBoundaryExactILP(t *testing.T) {
	tight := func(c *blaze.StreamConfig) {
		c.Windows, c.Scale, c.Executors, c.MemoryPerExecutor = 6, 1, 8, 256<<10
	}
	check := func(name string, wl blaze.StreamWorkloadID, tune ...func(*blaze.StreamConfig)) {
		t.Run(name, func(t *testing.T) {
			res, _ := runStream(t, wl, 8, 1<<20, tune...)
			m := res.Metrics
			if m.ILPDeltaSolves == 0 {
				t.Error("no boundary solves ran")
			}
			if m.PartitionsRetired == 0 {
				t.Error("no partitions retired: windowed lifetime management inactive")
			}
		})
	}
	check("quarter-scale/"+string(blaze.StreamPR), blaze.StreamPR)
	for _, wl := range blaze.AllStreamWorkloads() {
		check("tight/"+string(wl), wl, tight)
	}
}

// TestStreamCarriedState checks that cross-window state actually flows:
// a PageRank stream whose windows start from the carried rank graph
// must do strictly less recomputation than the same windows run cold
// (each in its own fresh session).
func TestStreamCarriedState(t *testing.T) {
	warm, _ := runStream(t, blaze.StreamPR, 1, 0)

	var coldMisses int
	for w := 1; w <= 4; w++ {
		res, err := blaze.RunStream(blaze.StreamConfig{
			Workload:          blaze.StreamPR,
			Windows:           1,
			Scale:             0.25,
			Executors:         4,
			Parallelism:       1,
			MemoryPerExecutor: 1 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		coldMisses += res.Metrics.Misses
	}
	// A fresh session per window recomputes every window's initial graph
	// from scratch; the carried session materializes it once.
	if warm.Metrics.Misses >= coldMisses {
		t.Errorf("carried session misses (%d) not below cold-restart misses (%d)",
			warm.Metrics.Misses, coldMisses)
	}
}

// TestSessionClosed pins the Session lifecycle contract: all operations
// on a closed session fail with ErrSessionClosed, and closing twice is
// an error rather than a hang.
func TestSessionClosed(t *testing.T) {
	sess, err := blaze.NewSession(blaze.SessionConfig{
		Executors:         4,
		MemoryPerExecutor: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := sess.Submit(func(ctx *blaze.Context) {}); err != blaze.ErrSessionClosed {
		t.Errorf("Submit after Close: got %v, want ErrSessionClosed", err)
	}
	if _, err := sess.NextWindow(); err != blaze.ErrSessionClosed {
		t.Errorf("NextWindow after Close: got %v, want ErrSessionClosed", err)
	}
	if _, err := sess.Close(); err != blaze.ErrSessionClosed {
		t.Errorf("second Close: got %v, want ErrSessionClosed", err)
	}
}

// TestStreamOneShotUnchanged guards the boundary between the streaming
// machinery and the one-shot path: a plain blaze.Run must report zero
// streaming activity — no windows, no retirement, no delta solves —
// proving the windowed code is inert outside sessions.
func TestStreamOneShotUnchanged(t *testing.T) {
	res, err := blaze.Run(blaze.RunConfig{
		System:    blaze.SysBlaze,
		Workload:  blaze.PR,
		Executors: 4,
		Scale:     0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	windows, retired, deltas := res.StreamActivity()
	if windows != 0 || retired != 0 || deltas != 0 {
		t.Errorf("one-shot run reports streaming activity: windows=%d retired=%d deltas=%d",
			windows, retired, deltas)
	}
}

// TestStreamWindowStatsShape sanity-checks the per-window accounting:
// one WindowStats per window, numbered 1..N, and their sums consistent
// with the app-level totals.
func TestStreamWindowStatsShape(t *testing.T) {
	res, _ := runStream(t, blaze.StreamKMeans, 1, 0)
	if len(res.Windows) != 4 {
		t.Fatalf("got %d window stats, want 4", len(res.Windows))
	}
	var retired, deltas int
	for i, w := range res.Windows {
		if w.Window != i+1 {
			t.Errorf("window %d numbered %d", i+1, w.Window)
		}
		retired += w.PartitionsRetired
		deltas += w.ILPDeltaSolves
	}
	if retired != res.Metrics.PartitionsRetired {
		t.Errorf("per-window retired sum %d != app total %d", retired, res.Metrics.PartitionsRetired)
	}
	if deltas != res.Metrics.ILPDeltaSolves {
		t.Errorf("per-window delta-solve sum %d != app total %d", deltas, res.Metrics.ILPDeltaSolves)
	}
}

// TestResultActivityAccessors covers the non-streaming accessor
// satellites on Result: RecoveryActivity returns a copy of the
// per-class recovery durations, ResilienceActivity the retry and
// speculation counters.
func TestResultActivityAccessors(t *testing.T) {
	res, err := blaze.Run(blaze.RunConfig{
		System:    blaze.SysBlaze,
		Workload:  blaze.PR,
		Executors: 4,
		Scale:     0.25,
		Faults:    &blaze.FaultConfig{Seed: 7, Every: 3, Classes: []blaze.FaultClass{blaze.FaultExecutorDeath}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.FaultsInjected == 0 {
		t.Fatal("fault schedule injected nothing")
	}
	rec := res.RecoveryActivity()
	if len(rec) == 0 {
		t.Error("RecoveryActivity empty despite injected executor deaths")
	}
	for class, d := range rec {
		if d <= 0 {
			t.Errorf("class %q: non-positive recovery duration %v", class, d)
		}
	}
	rec[fmt.Sprintf("probe-%d", 1)] = 1 // must not alias the metrics map
	if len(res.RecoveryActivity()) == len(rec) {
		t.Error("RecoveryActivity returned the internal map, not a copy")
	}
	taskRetries, _, _, _ := res.ResilienceActivity()
	if taskRetries != res.Metrics.TaskRetries {
		t.Errorf("ResilienceActivity taskRetries=%d, metrics say %d", taskRetries, res.Metrics.TaskRetries)
	}
}
