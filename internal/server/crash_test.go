package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/engine"
	"blaze/internal/enginetest"
	"blaze/internal/eventlog"
	"blaze/internal/faults"
)

// TestServerCrashReleasesQuota pins the crash teardown invariant: a
// session killed by the server-crash fault mid-run still releases every
// byte its cached blocks charged against the tenant quota, and its
// namespace blocks leave the shared cache — the recovered panic falls
// through the normal teardown path.
func TestServerCrashReleasesQuota(t *testing.T) {
	s, err := New(Config{
		Executors:         4,
		MemoryPerExecutor: 1 << 16,
		Tenants:           []TenantConfig{{Name: "crashy", MemoryQuota: 1 << 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sess, err := s.Submit(JobSpec{
		Tenant:     "crashy",
		Controller: engine.NewSparkMemDisk(),
		Params:     costmodel.Default(),
		Driver: func(ctx *dataflow.Context) {
			enginetest.BuildRandomProgram(9, ctx)
			panic(faults.ErrServerCrash)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Wait(); !errors.Is(err, faults.ErrServerCrash) {
		t.Fatalf("crashed session: err = %v, want ErrServerCrash", err)
	}
	if peak := s.Quota().Peak("crashy"); peak == 0 {
		t.Fatal("program cached nothing; the quota-release check is vacuous")
	}
	if used := s.Quota().Usage("crashy"); used != 0 {
		t.Fatalf("quota ledger holds %d bytes after crash death, want 0", used)
	}
	if st := s.Stats(); st.ActiveSessions != 0 {
		t.Fatalf("crashed session still counted active: %+v", st)
	}
}

// TestShutdownDrains covers the graceful path: Shutdown with a generous
// deadline waits for running sessions to finish, cancels queued ones,
// and later submissions are refused.
func TestShutdownDrains(t *testing.T) {
	s, err := New(Config{Executors: 2, MemoryPerExecutor: 1 << 16, MaxActiveSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	running, err := s.Submit(JobSpec{
		Controller: engine.NewSparkMemDisk(),
		Params:     costmodel.Default(),
		Driver: func(ctx *dataflow.Context) {
			close(started)
			<-release
			enginetest.BuildRandomProgram(12, ctx)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(programSpec("", 13, engine.NewSparkMemDisk(), nil))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if err := running.Wait(); err != nil {
		t.Fatalf("running session should have drained cleanly: %v", err)
	}
	if err := queued.Wait(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("queued session: err = %v, want ErrCancelled", err)
	}
	if _, err := s.Submit(programSpec("", 14, engine.NewSparkMemDisk(), nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Shutdown: err = %v, want ErrClosed", err)
	}
}

// TestShutdownDeadlineCancels covers the forced path: when the deadline
// expires before running sessions drain, Shutdown cancels them (taking
// effect at their next job boundary) and returns the context error.
func TestShutdownDeadlineCancels(t *testing.T) {
	s, err := New(Config{Executors: 2, MemoryPerExecutor: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 1)
	looper, err := s.Submit(JobSpec{
		Controller: engine.NewSparkMemDisk(),
		Params:     costmodel.Default(),
		Driver: func(ctx *dataflow.Context) {
			// Run jobs forever; only cancellation at a job boundary stops
			// this driver.
			for i := int64(0); ; i++ {
				enginetest.BuildRandomProgram(20+i%5, ctx)
				select {
				case started <- struct{}{}:
				default:
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown: err = %v, want DeadlineExceeded", err)
	}
	if err := looper.Wait(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("looping session: err = %v, want ErrCancelled", err)
	}
}

// TestStreamSessionDoubleClose pins Close idempotency on streaming
// sessions: closing twice must not panic (no double close of the
// command channel) and returns the session's final error both times.
func TestStreamSessionDoubleClose(t *testing.T) {
	s, err := New(Config{Executors: 2, MemoryPerExecutor: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.SubmitStream(JobSpec{
		Controller: engine.NewSparkMemDisk(),
		Params:     costmodel.Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Do(func(ctx *dataflow.Context) { enginetest.BuildRandomProgram(31, ctx) }); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := st.Do(func(*dataflow.Context) {}); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("Do after Close: err = %v, want ErrStreamClosed", err)
	}
}

// TestDriverPanicFailsOnlyItsSession: a panic that is neither a
// cancellation nor an injected crash — here a task's own function blowing
// up mid-job, with the gate held, the way a real-bytes block file going
// unreadable would — is the session's error, not the process's death.
// The failed session goes through the whole teardown (gate returned,
// blocks dropped, quota released, session_end emitted) and the other
// session on the server runs to completion.
func TestDriverPanicFailsOnlyItsSession(t *testing.T) {
	boom := errors.New("block file unreadable")
	srvLog := eventlog.New()
	s, err := New(Config{
		Executors:         2,
		MemoryPerExecutor: 1 << 16,
		Tenants:           []TenantConfig{{Name: "doomed", MemoryQuota: 1 << 20}, {Name: "bystander"}},
		EventLog:          srvLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	doomed, err := s.Submit(JobSpec{
		Tenant:     "doomed",
		Controller: engine.NewSparkMemDisk(),
		Params:     costmodel.Default(),
		Driver: func(ctx *dataflow.Context) {
			src := ctx.Source("src", 4, func(part int) []dataflow.Record {
				return []dataflow.Record{{Key: int64(part), Value: int64(part)}}
			})
			src.Cache()
			src.Count() // one clean job: the session holds cached blocks
			src.Map("explode", func(r dataflow.Record) dataflow.Record { panic(boom) }).Count()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sums []int64
	bystander, err := s.Submit(programSpec("bystander", 11, engine.NewSparkMemDisk(), &sums))
	if err != nil {
		t.Fatal(err)
	}

	err = doomed.Wait()
	if !errors.Is(err, boom) {
		t.Fatalf("panicked session: err = %v, want it to wrap the panic value", err)
	}
	if !strings.Contains(err.Error(), "TestDriverPanicFailsOnlyItsSession") {
		t.Fatalf("panicked session's error carries no stack of the panic site:\n%v", err)
	}
	if doomed.Metrics() != nil {
		t.Fatal("a failed session must not report sealed metrics")
	}
	if err := bystander.Wait(); err != nil {
		t.Fatalf("the other session must keep running: %v", err)
	}
	ref := dataflow.NewContext()
	dataflow.NewLocalRunner(ref)
	if want := enginetest.BuildRandomProgram(11, ref); fmt.Sprint(sums) != fmt.Sprint(want) {
		t.Fatalf("bystander checksums %v, want %v", sums, want)
	}

	if peak := s.Quota().Peak("doomed"); peak == 0 {
		t.Fatal("the doomed session cached nothing; the release check is vacuous")
	}
	if used := s.Quota().Usage("doomed"); used != 0 {
		t.Fatalf("quota ledger holds %d bytes after the failed session, want 0", used)
	}
	for _, ex := range s.Pool().Executors() {
		if n := len(ex.Mem.Blocks()) + len(ex.Disk.Blocks()); n != 0 {
			t.Fatalf("executor %d still holds %d blocks after both sessions ended", ex.ID, n)
		}
	}
	ends := 0
	for _, e := range srvLog.Events() {
		if e.Kind == eventlog.SessionEnd {
			ends++
		}
	}
	if ends != 2 {
		t.Fatalf("server log has %d session_end events, want 2", ends)
	}
	if st := s.Stats(); st.ActiveSessions != 0 {
		t.Fatalf("sessions still counted active: %+v", st)
	}
}
