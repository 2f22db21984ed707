package blaze_test

// End-to-end multi-tenant scenario over the public Server API: three
// tenants share one executor pool and one cache, each submitting three
// applications concurrently (nine sessions — the acceptance floor is
// eight). Every session must complete, no tenant may ever exceed its
// memory quota, and the cluster-wide ILP arbitration must have run.

import (
	"context"
	"errors"
	"testing"
	"time"

	"blaze"
)

func serverMemory(t *testing.T) int64 {
	t.Helper()
	res, err := blaze.Run(blaze.RunConfig{
		System: blaze.SysSparkMemDisk, Workload: blaze.PR,
		Executors: 4, Scale: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.MemoryPerExecutor
}

func TestServerMultiTenantScenario(t *testing.T) {
	mem := serverMemory(t)
	quota := int64(4) * mem / 2 // half the pool each: three tenants contend
	srv, err := blaze.NewServer(blaze.ServerConfig{
		Executors:         4,
		MemoryPerExecutor: mem,
		Arbitrate:         true,
		Tenants: []blaze.TenantConfig{
			{Name: "analytics", Weight: 2, MemoryQuota: quota},
			{Name: "ml", Weight: 1, MemoryQuota: quota},
			{Name: "recsys", Weight: 1, MemoryQuota: quota},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	workloads := map[string]blaze.WorkloadID{
		"analytics": blaze.PR,
		"ml":        blaze.KMeans,
		"recsys":    blaze.SVDPP,
	}
	var handles []*blaze.JobHandle
	for round := 0; round < 3; round++ {
		for tenant, w := range workloads {
			h, err := srv.Submit(context.Background(), blaze.JobSpec{
				Tenant:   tenant,
				System:   blaze.SysBlaze,
				Workload: w,
				Scale:    0.25,
			})
			if err != nil {
				t.Fatal(err)
			}
			if h.Tenant() != tenant {
				t.Fatalf("handle tenant = %q, want %q", h.Tenant(), tenant)
			}
			handles = append(handles, h)
		}
	}
	if len(handles) < 8 {
		t.Fatalf("scenario submits %d jobs, acceptance floor is 8", len(handles))
	}

	for _, h := range handles {
		res, err := h.Result()
		if err != nil {
			t.Fatalf("job %d (%s): %v", h.ID(), h.Tenant(), err)
		}
		if res.Metrics == nil || res.ACT() <= 0 {
			t.Fatalf("job %d: no metrics", h.ID())
		}
		if res.MemoryPerExecutor != mem {
			t.Fatalf("job %d: MemoryPerExecutor = %d, want the pool's %d", h.ID(), res.MemoryPerExecutor, mem)
		}
	}

	st := srv.Stats()
	if st.ActiveSessions != 0 || st.PendingSessions != 0 {
		t.Fatalf("sessions left over: %+v", st)
	}
	if st.Arbitrations == 0 {
		t.Fatal("nine concurrent Blaze sessions should have triggered cluster-wide arbitration")
	}
	for _, ts := range st.Tenants {
		if ts.Completed != 3 {
			t.Fatalf("tenant %s completed %d sessions, want 3", ts.Name, ts.Completed)
		}
		if ts.QuotaLimit != quota {
			t.Fatalf("tenant %s quota limit = %d, want %d", ts.Name, ts.QuotaLimit, quota)
		}
		if ts.QuotaPeak > ts.QuotaLimit {
			t.Fatalf("QUOTA VIOLATION: tenant %s peaked at %d bytes against a %d-byte quota", ts.Name, ts.QuotaPeak, ts.QuotaLimit)
		}
		if ts.TotalACT <= 0 {
			t.Fatalf("tenant %s has no aggregate ACT", ts.Name)
		}
	}
}

// TestServerSharedBeatsStaticPartitioning is the job server's reason to
// exist: three tenants × two concurrent Blaze sessions on one pool
// finish sooner in aggregate when the pool is one shared, arbitrated
// cache than when it is hard-partitioned into equal per-tenant quotas
// with every session optimizing alone. Scale 0.5 is moderate contention,
// where a shared cache's flexibility pays; the margin depends on how
// sessions interleave (see EXPERIMENTS.md for the observed range), so
// only its sign is asserted.
func TestServerSharedBeatsStaticPartitioning(t *testing.T) {
	const executors, scale, perTenant = 8, 0.5, 2
	tenants := []struct {
		name     string
		workload blaze.WorkloadID
	}{{"pr", blaze.PR}, {"kmeans", blaze.KMeans}, {"svdpp", blaze.SVDPP}}

	// Size the pool for the heaviest tenant's calibrated appetite: a
	// shared cache can give it all to whichever blocks matter most, a
	// static partition cannot.
	var mem int64
	for _, tn := range tenants {
		res, err := blaze.Run(blaze.RunConfig{
			System: blaze.SysSparkMemDisk, Workload: tn.workload,
			Executors: executors, Scale: scale,
		})
		if err != nil {
			t.Fatal(err)
		}
		mem = max(mem, res.MemoryPerExecutor)
	}

	arm := func(static bool) (aggregate time.Duration, arbitrations int) {
		cfg := blaze.ServerConfig{Executors: executors, MemoryPerExecutor: mem, Arbitrate: !static}
		for _, tn := range tenants {
			tc := blaze.TenantConfig{Name: tn.name}
			if static {
				tc.MemoryQuota = executors * mem / int64(len(tenants))
			}
			cfg.Tenants = append(cfg.Tenants, tc)
		}
		srv, err := blaze.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var handles []*blaze.JobHandle
		for round := 0; round < perTenant; round++ {
			for _, tn := range tenants {
				h, err := srv.Submit(context.Background(), blaze.JobSpec{
					Tenant: tn.name, System: blaze.SysBlaze, Workload: tn.workload, Scale: scale,
				})
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, h)
			}
		}
		for _, h := range handles {
			if err := h.Wait(); err != nil {
				t.Fatalf("job %d (%s): %v", h.ID(), h.Tenant(), err)
			}
		}
		st := srv.Stats()
		for _, ts := range st.Tenants {
			aggregate += ts.TotalACT
			if ts.QuotaLimit > 0 && ts.QuotaPeak > ts.QuotaLimit {
				t.Errorf("QUOTA VIOLATION: tenant %s peaked at %d bytes against a %d-byte quota", ts.Name, ts.QuotaPeak, ts.QuotaLimit)
			}
		}
		return aggregate, st.Arbitrations
	}

	static, _ := arm(true)
	shared, arbitrations := arm(false)
	t.Logf("aggregate ACT: static %v, shared %v (%.2fx, %d arbitrations)",
		static, shared, float64(static)/float64(shared), arbitrations)
	if arbitrations == 0 {
		t.Error("no cluster-wide arbitrations ran in the shared arm")
	}
	if shared >= static {
		t.Errorf("shared arbitrated cache (%v aggregate ACT) did not beat static partitioning (%v)", shared, static)
	}
}

func TestServerContextCancellation(t *testing.T) {
	mem := serverMemory(t)
	srv, err := blaze.NewServer(blaze.ServerConfig{Executors: 2, MemoryPerExecutor: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first job boundary
	h, err := srv.Submit(ctx, blaze.JobSpec{
		System: blaze.SysSparkMemDisk, Workload: blaze.PR, Scale: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); !errors.Is(err, blaze.ErrCancelled) {
		t.Fatalf("Wait = %v, want ErrCancelled", err)
	}
	if _, err := h.Result(); !errors.Is(err, blaze.ErrCancelled) {
		t.Fatalf("Result err = %v, want ErrCancelled", err)
	}
}

func TestServerRejectsInvalidSubmissions(t *testing.T) {
	srv, err := blaze.NewServer(blaze.ServerConfig{Executors: 1, MemoryPerExecutor: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Submit(context.Background(), blaze.JobSpec{System: "nope", Workload: blaze.PR}); err == nil {
		t.Fatal("unknown system should be rejected at submission")
	}
	if _, err := srv.Submit(context.Background(), blaze.JobSpec{System: blaze.SysBlaze, Workload: "nope"}); err == nil {
		t.Fatal("unknown workload should be rejected at submission")
	}
	if _, err := srv.Submit(context.Background(), blaze.JobSpec{System: blaze.SysBlaze, Workload: blaze.PR, Scale: 16}); err == nil {
		t.Fatal("a scale above 1 should be rejected at submission, not run at the default size")
	}
	if _, err := blaze.NewServer(blaze.ServerConfig{Executors: 1}); err == nil {
		t.Fatal("a server without explicit memory should be rejected")
	}
}
