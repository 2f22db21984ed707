package blaze_test

import (
	"testing"

	"blaze"
)

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
			cfg := quarterStream(wl, 1<<20)
			for _, f := range tune {
				f(&cfg)
			}
			m := streamCell(cfg).run(t, p8).res.Metrics
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
	warm := streamCell(quarterStream(blaze.StreamPR, 0)).run(t, p1).res

	// Four fresh one-window sessions, one per window, each recompute the
	// initial graph from scratch; the carried session materializes it once.
	cold := quarterStream(blaze.StreamPR, 0)
	cold.Windows = 1
	coldMisses := 4 * streamCell(cold).run(t, p1).res.Metrics.Misses
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
	res := batchCell(quarter(blaze.SysBlaze, blaze.PR)).run(t, p1).res
	m := res.Metrics
	windows, retired, deltas := m.WindowsRun, m.PartitionsRetired, m.ILPDeltaSolves
	if windows != 0 || retired != 0 || deltas != 0 {
		t.Errorf("one-shot run reports streaming activity: windows=%d retired=%d deltas=%d",
			windows, retired, deltas)
	}
}

// TestStreamWindowStatsShape sanity-checks the per-window accounting:
// one WindowStats per window, numbered 1..N, and their sums consistent
// with the app-level totals.
func TestStreamWindowStatsShape(t *testing.T) {
	res := streamCell(quarterStream(blaze.StreamKMeans, 0)).run(t, p1)
	if len(res.windows) != 4 {
		t.Fatalf("got %d window stats, want 4", len(res.windows))
	}
	var retired, deltas int
	for i, w := range res.windows {
		if w.Window != i+1 {
			t.Errorf("window %d numbered %d", i+1, w.Window)
		}
		retired += w.PartitionsRetired
		deltas += w.ILPDeltaSolves
	}
	m := res.res.Metrics
	if retired != m.PartitionsRetired {
		t.Errorf("per-window retired sum %d != app total %d", retired, m.PartitionsRetired)
	}
	if deltas != m.ILPDeltaSolves {
		t.Errorf("per-window delta-solve sum %d != app total %d", deltas, m.ILPDeltaSolves)
	}
}
