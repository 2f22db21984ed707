package server

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"blaze/internal/core"
	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/engine"
	"blaze/internal/enginetest"
	"blaze/internal/eventlog"
	"blaze/internal/metrics"
	"blaze/internal/storage"
)

// programSpec builds a JobSpec running the seeded random program and
// recording its checksums.
func programSpec(tenant string, seed int64, ctl engine.Controller, sums *[]int64) JobSpec {
	return JobSpec{
		Tenant:     tenant,
		Controller: ctl,
		Params:     costmodel.Default(),
		Driver: func(ctx *dataflow.Context) {
			got := enginetest.BuildRandomProgram(seed, ctx)
			if sums != nil {
				*sums = got
			}
		},
	}
}

func TestSingleSessionMatchesStandalone(t *testing.T) {
	const seed = 7
	// Standalone reference: a private cluster, the pre-server path.
	refLog := eventlog.New()
	ctx := dataflow.NewContext()
	cl, err := engine.NewCluster(engine.Config{
		Executors:         4,
		MemoryPerExecutor: 1 << 16,
		Params:            costmodel.Default(),
		Controller:        engine.NewSparkMemDisk(),
		EventLog:          refLog,
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	refSums := enginetest.BuildRandomProgram(seed, ctx)
	refMet := cl.Finish()

	// The same program as the only session of a server.
	srvLog := eventlog.New()
	s, err := New(Config{Executors: 4, MemoryPerExecutor: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var sums []int64
	spec := programSpec("", seed, engine.NewSparkMemDisk(), &sums)
	spec.EventLog = srvLog
	sess, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Wait(); err != nil {
		t.Fatal(err)
	}

	if fmt.Sprint(sums) != fmt.Sprint(refSums) {
		t.Fatalf("checksums differ: standalone %v, server %v", refSums, sums)
	}
	if !metrics.EqualDeterministic(refMet, sess.Metrics()) {
		t.Fatalf("metrics differ:\nstandalone %+v\nserver     %+v", refMet, sess.Metrics())
	}
	var refBuf, srvBuf bytes.Buffer
	if err := refLog.WriteJSON(&refBuf); err != nil {
		t.Fatal(err)
	}
	if err := srvLog.WriteJSON(&srvBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBuf.Bytes(), srvBuf.Bytes()) {
		t.Fatal("event logs differ between standalone and single-session server")
	}
}

func TestConcurrentSessionsCompleteWithQuotas(t *testing.T) {
	const perTenant = 3
	tenants := []TenantConfig{
		{Name: "a", Weight: 2, MemoryQuota: 24 << 10},
		{Name: "b", Weight: 1, MemoryQuota: 16 << 10},
		{Name: "c", Weight: 1, MemoryQuota: 8 << 10},
	}
	s, err := New(Config{
		Executors:         4,
		MemoryPerExecutor: 1 << 16,
		Tenants:           tenants,
		Arbitrate:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	type sub struct {
		sess *Session
		sums *[]int64
		seed int64
	}
	var subs []sub
	for i := 0; i < perTenant; i++ {
		for _, tc := range tenants {
			seed := int64(100 + i*10 + int(tc.Name[0]))
			sums := new([]int64)
			sess, err := s.Submit(programSpec(tc.Name, seed, engine.NewSparkMemDisk(), sums))
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, sub{sess: sess, sums: sums, seed: seed})
		}
	}
	for _, sb := range subs {
		if err := sb.sess.Wait(); err != nil {
			t.Fatalf("session %d: %v", sb.sess.ID(), err)
		}
		want := enginetest.RefChecksums(sb.seed)
		if fmt.Sprint(*sb.sums) != fmt.Sprint(want) {
			t.Fatalf("session %d (seed %d): checksums %v, want %v", sb.sess.ID(), sb.seed, *sb.sums, want)
		}
	}

	st := s.Stats()
	if st.ActiveSessions != 0 || st.PendingSessions != 0 {
		t.Fatalf("sessions left over: %+v", st)
	}
	for _, ts := range st.Tenants {
		if ts.Completed != perTenant {
			t.Fatalf("tenant %s completed %d, want %d", ts.Name, ts.Completed, perTenant)
		}
		if ts.QuotaPeak > ts.QuotaLimit {
			t.Fatalf("tenant %s peak %d exceeds quota %d", ts.Name, ts.QuotaPeak, ts.QuotaLimit)
		}
		if ts.TotalACT <= 0 {
			t.Fatalf("tenant %s has no aggregate ACT", ts.Name)
		}
	}
}

func TestQuotaNeverExceededUnderPressure(t *testing.T) {
	// A quota far below what the program caches: admissions must be
	// refused (or reclaim the tenant's own blocks), never exceed it.
	s, err := New(Config{
		Executors:         2,
		MemoryPerExecutor: 1 << 16,
		Tenants:           []TenantConfig{{Name: "tight", MemoryQuota: 2 << 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess, err := s.Submit(programSpec("tight", 11, engine.NewSparkMemDisk(), nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	if peak := s.Quota().Peak("tight"); peak > 2<<10 {
		t.Fatalf("peak %d exceeds quota %d", peak, 2<<10)
	}
	met := sess.Metrics()
	if s.Quota().Rejections("tight") == 0 && met.QuotaEvictions == 0 {
		t.Fatal("a tight quota should have refused or reclaimed at least one admission")
	}
}

func TestArbitrationRunsAcrossSessions(t *testing.T) {
	s, err := New(Config{
		Executors:         2,
		MemoryPerExecutor: 8 << 10,
		Arbitrate:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Barrier: no session runs a job until all three are registered
	// with the arbiter (registration precedes the driver), so the very
	// first job-start sees multiple live sessions and must arbitrate.
	var ready sync.WaitGroup
	ready.Add(3)
	var sessions []*Session
	for i := 0; i < 3; i++ {
		seed := int64(40 + i)
		// Blaze controllers without a profiled skeleton still run the
		// job-start ILP over observed lineage.
		sess, err := s.Submit(JobSpec{
			Controller: core.NewBlaze(),
			Params:     costmodel.Default(),
			Driver: func(ctx *dataflow.Context) {
				ready.Done()
				ready.Wait()
				enginetest.BuildRandomProgram(seed, ctx)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
	}
	for _, sess := range sessions {
		if err := sess.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Arbitrations == 0 {
		t.Fatal("concurrent Blaze sessions should have triggered cluster-wide arbitration")
	}
}

func TestFairShareGrantsFollowWeights(t *testing.T) {
	tenants := []TenantConfig{
		{Name: "heavy", Weight: 3},
		{Name: "light", Weight: 1},
	}
	s, err := New(Config{Executors: 2, MemoryPerExecutor: 1 << 16, Tenants: tenants})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var all []*Session
	for i := 0; i < 4; i++ {
		for _, tc := range tenants {
			sess, err := s.Submit(programSpec(tc.Name, int64(60+i), engine.NewSparkMemDisk(), nil))
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, sess)
		}
	}
	for _, sess := range all {
		if err := sess.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	byName := make(map[string]TenantStats)
	for _, ts := range st.Tenants {
		byName[ts.Name] = ts
	}
	// Both tenants ran the same jobs, so grant counts are equal in
	// total; the WRR discipline shows in who went first, which is not
	// observable after the fact. Assert the accounting is complete.
	if byName["heavy"].JobsGranted == 0 || byName["light"].JobsGranted == 0 {
		t.Fatalf("both tenants should have been granted jobs: %+v", st.Tenants)
	}
	if byName["heavy"].Completed != 4 || byName["light"].Completed != 4 {
		t.Fatalf("all sessions should have completed: %+v", st.Tenants)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	s, err := New(Config{
		Executors:         2,
		MemoryPerExecutor: 1 << 16,
		MaxActiveSessions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	blocker, err := s.Submit(JobSpec{
		Controller: engine.NewSparkMemDisk(),
		Params:     costmodel.Default(),
		Driver: func(ctx *dataflow.Context) {
			close(started)
			<-release
			enginetest.BuildRandomProgram(3, ctx)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Queued behind MaxActiveSessions=1: cancelled before it starts.
	queued, err := s.Submit(programSpec("", 4, engine.NewSparkMemDisk(), nil))
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()

	// Cancel the running session, then let its driver reach the next
	// job boundary, where cancellation takes effect.
	blocker.Cancel()
	close(release)
	if err := blocker.Wait(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("running session: err = %v, want ErrCancelled", err)
	}
	if err := queued.Wait(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("queued session: err = %v, want ErrCancelled", err)
	}
	st := s.Stats()
	if st.ActiveSessions != 0 || st.PendingSessions != 0 {
		t.Fatalf("sessions left over after cancellation: %+v", st)
	}
}

func TestSubmitValidation(t *testing.T) {
	s, err := New(Config{
		Executors:         1,
		MemoryPerExecutor: 1 << 12,
		Tenants:           []TenantConfig{{Name: "only"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Submit(JobSpec{Tenant: "only", Controller: engine.NewSparkMemDisk()}); err == nil {
		t.Fatal("missing driver should be rejected")
	}
	if _, err := s.Submit(JobSpec{Tenant: "only", Driver: func(*dataflow.Context) {}}); err == nil {
		t.Fatal("missing controller should be rejected")
	}
	if _, err := s.Submit(programSpec("ghost", 1, engine.NewSparkMemDisk(), nil)); err == nil {
		t.Fatal("unknown tenant should be rejected when tenants are declared")
	}
}

func TestCloseCancelsQueuedAndRejectsSubmit(t *testing.T) {
	s, err := New(Config{Executors: 1, MemoryPerExecutor: 1 << 12, MaxActiveSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	blocker, err := s.Submit(JobSpec{
		Controller: engine.NewSparkMemDisk(),
		Params:     costmodel.Default(),
		Driver: func(ctx *dataflow.Context) {
			close(started)
			<-release
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(programSpec("", 5, engine.NewSparkMemDisk(), nil))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	s.Close()
	if err := queued.Wait(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("queued session after Close: err = %v, want ErrCancelled", err)
	}
	if err := blocker.Wait(); err != nil {
		t.Fatalf("running session should drain on Close: %v", err)
	}
	if _, err := s.Submit(programSpec("", 6, engine.NewSparkMemDisk(), nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
}

// blockFileProbe lists the pool's block files at a session's first job
// start and counts them at every job end.
type blockFileProbe struct {
	dir      string
	started  bool
	atStart  []string
	maxAtEnd int
}

func (p *blockFileProbe) files() []string {
	names, _ := filepath.Glob(filepath.Join(p.dir, "exec-*", "rdd_*"))
	return names
}

func (p *blockFileProbe) OnJobStart(*engine.Cluster, *engine.Job) {
	if !p.started {
		p.started, p.atStart = true, p.files()
	}
}
func (p *blockFileProbe) OnStageEnd(*engine.Cluster, *engine.Stage) {}
func (p *blockFileProbe) OnJobEnd(*engine.Cluster, *engine.Job) {
	p.maxAtEnd = max(p.maxAtEnd, len(p.files()))
}

// TestTwoSessionsRealPoolMatchVirtual runs the same two sessions, one
// after the other, on a real-bytes server and on a virtual one: how the
// shared pool holds blocks must not show in any session's deterministic
// metrics or event log, a session's block files must be gone before the
// next session's first job, and the directory gone after Close.
func TestTwoSessionsRealPoolMatchVirtual(t *testing.T) {
	storage.RegisterValueType(float64(0))
	// A cached dataset larger than the memory stores, read twice and never
	// unpersisted: its spilled blocks are on disk when the session ends.
	driver := func(ctx *dataflow.Context) {
		ds := ctx.Source("big", 8, func(part int) []dataflow.Record {
			out := make([]dataflow.Record, 100)
			for i := range out {
				out[i] = dataflow.Record{Key: int64(part*100 + i), Value: float64(i)}
			}
			return out
		}).Map("wide", func(r dataflow.Record) dataflow.Record { return r })
		ds.Cache()
		ds.Count()
		ds.Count()
	}
	type outcome struct {
		met *metrics.App
		log []byte
	}
	run := func(real bool) [2]outcome {
		s, err := New(Config{Executors: 2, MemoryPerExecutor: 4 << 10, MaxActiveSessions: 1, RealBytes: real})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		dir := s.Pool().Dir()
		if (dir != "") != real {
			t.Fatalf("real=%v pool has storage dir %q", real, dir)
		}
		var sessions [2]*Session
		var probes [2]*blockFileProbe
		var logs [2]*eventlog.Log
		for k := range sessions {
			probes[k], logs[k] = &blockFileProbe{dir: dir}, eventlog.New()
			sessions[k], err = s.Submit(JobSpec{Controller: engine.NewSparkMemDisk(), Params: costmodel.Default(),
				Driver: driver, EventLog: logs[k], Hook: probes[k]})
			if err != nil {
				t.Fatal(err)
			}
		}
		var out [2]outcome
		for k, sess := range sessions {
			if err := sess.Wait(); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := logs[k].WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			out[k] = outcome{sess.Metrics(), buf.Bytes()}
			if !real {
				continue
			}
			if probes[k].maxAtEnd == 0 {
				t.Fatalf("session %d left no block file at any job end; the purge check is vacuous", k)
			}
			if len(probes[k].atStart) != 0 {
				t.Fatalf("session %d's first job started with block files present: %v", k, probes[k].atStart)
			}
		}
		if real {
			if snap := s.Pool().Meter().Snapshot(); snap.DiskWrite.Ops == 0 || snap.DiskRead.Ops == 0 || snap.MemEncode.Ops == 0 {
				t.Fatalf("the shared real pool measured no work: %+v", snap)
			}
			s.Close()
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Fatalf("Close left the storage dir behind: %v", err)
			}
		}
		return out
	}
	virt, real := run(false), run(true)
	for k := range virt {
		if !metrics.EqualDeterministic(virt[k].met, real[k].met) {
			t.Errorf("session %d metrics differ:\nvirtual %+v\nreal    %+v", k, virt[k].met, real[k].met)
		}
		if !bytes.Equal(virt[k].log, real[k].log) {
			t.Errorf("session %d event logs differ between the virtual and the real-bytes pool", k)
		}
		if virt[k].met.DiskBytesWritten == 0 {
			t.Errorf("session %d did not spill; shrink the memory store", k)
		}
	}
}

// TestRemovedSpillFileFailsSessionWithCause: on a real-bytes pool, a
// session whose spilled block file disappears between two jobs fails with
// an error that wraps the file system's, and the next session on the
// same pool still completes.
func TestRemovedSpillFileFailsSessionWithCause(t *testing.T) {
	storage.RegisterValueType(float64(0))
	s, err := New(Config{Executors: 2, MemoryPerExecutor: 4 << 10, MaxActiveSessions: 1, RealBytes: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	probe := &blockFileProbe{dir: s.Pool().Dir()}
	// A cached dataset larger than the memory stores, read twice: the
	// second read finds its spilled blocks on disk.
	driver := func(removeSpills bool) func(ctx *dataflow.Context) {
		return func(ctx *dataflow.Context) {
			ds := ctx.Source("big", 8, func(part int) []dataflow.Record {
				out := make([]dataflow.Record, 100)
				for i := range out {
					out[i] = dataflow.Record{Key: int64(part*100 + i), Value: float64(i)}
				}
				return out
			}).Map("wide", func(r dataflow.Record) dataflow.Record { return r })
			ds.Cache()
			ds.Count()
			if removeSpills {
				files := probe.files()
				if len(files) == 0 {
					t.Error("the first job spilled nothing; the test removes no file")
				}
				for _, f := range files {
					if err := os.Remove(f); err != nil {
						t.Error(err)
					}
				}
			}
			ds.Count()
		}
	}
	var sessions [2]*Session
	for k := range sessions {
		sessions[k], err = s.Submit(JobSpec{Controller: engine.NewSparkMemDisk(), Params: costmodel.Default(), Driver: driver(k == 0)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sessions[0].Wait(); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("session reading a removed spill file: err = %v, want it to wrap os.ErrNotExist", err)
	}
	if err := sessions[1].Wait(); err != nil {
		t.Fatalf("the next session on the pool: %v", err)
	}
}
