package blaze

import (
	"sync/atomic"
	"testing"
	_ "unsafe" // go:linkname

	"blaze/internal/dataflow"
	"blaze/internal/engine"
)

// poisonReleased and heldShares are internal/dataflow's test-only share
// guard: while poisoning is on, heldShares counts the shares taken and
// not given back, so a holder that keeps a share past its session shows
// as a count that does not return.
//
//go:linkname poisonReleased blaze/internal/dataflow.poisonReleased
var poisonReleased bool

//go:linkname heldShares blaze/internal/dataflow.heldShares
var heldShares atomic.Int64

// guardShares turns the share guard on for the rest of the test and
// returns the count before whatever the test runs.
func guardShares(t *testing.T) int64 {
	t.Helper()
	poisonReleased = true
	t.Cleanup(func() { poisonReleased = false })
	return heldShares.Load()
}

// TestSessionExitReleasesShuffles: a finished session gives back every
// pooled array its jobs took. After a PageRank run (Run's plan on its
// one-session server) and after a closed durable stream session, the
// session's cluster holds no shuffle output, and every share taken —
// the rank graphs' shares of the adjacency they borrow, the checkpoint
// captures' shares, the calibration run's — was given back.
func TestSessionExitReleasesShuffles(t *testing.T) {
	t.Run("run", func(t *testing.T) {
		before := guardShares(t)
		p, err := planRun(RunConfig{System: SysBlaze, Workload: PR, Scale: 0.1, Executors: 4})
		if err != nil {
			t.Fatal(err)
		}
		srv, job, err := p.serve()
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var cl *engine.Cluster
		drive := job.Driver
		job.Driver = func(ctx *dataflow.Context) {
			cl = ctx.Runner().(*engine.Cluster)
			drive(ctx)
		}
		sess, err := srv.Submit(job)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Wait(); err != nil {
			t.Fatal(err)
		}
		if n := cl.HeldShuffles(); n != 0 {
			t.Errorf("the finished session's cluster still holds %d shuffles", n)
		}
		if after := heldShares.Load(); after != before {
			t.Errorf("held shares %d before the run, %d after it", before, after)
		}
	})
	t.Run("stream", func(t *testing.T) {
		before := guardShares(t)
		spec := sprSpec()
		sess, err := NewSession(SessionConfig{
			System: SysBlaze, Executors: 4, MemoryPerExecutor: 256 << 10,
			CostParams: EvalParams(spec.SerFactor), CheckpointDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		var cl *engine.Cluster
		step := spec.Open(0.25, sess.annotated)
		for w := 1; w <= 3; w++ {
			if err := sess.Submit(func(ctx *Context) {
				cl = ctx.Runner().(*engine.Cluster)
				step(ctx, w)
			}); err != nil {
				t.Fatal(err)
			}
			if w < 3 {
				if _, err := sess.NextWindow(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if n := cl.HeldShuffles(); n != 0 {
			t.Errorf("the closed stream session's cluster still holds %d shuffles", n)
		}
		if after := heldShares.Load(); after != before {
			t.Errorf("held shares %d before the stream, %d after it", before, after)
		}
	})
}
