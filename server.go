package blaze

// This file is the public surface of the multi-tenant job server: a
// long-lived Server admitting many concurrent applications against one
// shared executor pool and one shared cache, with fair-share admission,
// per-tenant memory quotas and cluster-wide cache arbitration. See
// internal/server for the scheduling machinery and DESIGN.md ("Job
// server") for the design. cmd/blazed wraps this API in an HTTP daemon.

import (
	"context"
	"errors"
	"fmt"

	"blaze/internal/server"
)

// TenantConfig declares one tenant sharing a Server: its name, its
// fair-share weight (default 1) and its cluster-wide memory quota in
// bytes (0 = unlimited).
type TenantConfig = server.TenantConfig

// TenantStats is one tenant's share of ServerStats: session counts,
// jobs granted by the fair-share scheduler, aggregate ACT and quota
// accounting.
type TenantStats = server.TenantStats

// ServerStats is a point-in-time snapshot of a Server.
type ServerStats = server.Stats

// ErrCancelled is returned by JobHandle.Wait and JobHandle.Result when
// the job was cancelled before completing.
var ErrCancelled = server.ErrCancelled

// ErrServerClosed is returned by Server.Submit after Close.
var ErrServerClosed = server.ErrClosed

// ServerConfig describes a job server: the shared pool's shape and the
// multi-tenancy policies.
type ServerConfig struct {
	// Executors, Cores and MemoryPerExecutor shape the shared pool.
	// Executors defaults to 8 and Cores to 1, like RunConfig; the memory
	// capacity must be explicit — a long-lived server hosting arbitrary
	// workloads has no single workload to calibrate against.
	Executors         int
	Cores             int
	MemoryPerExecutor int64
	// Parallelism is the default engine parallelism for submissions that
	// do not set their own (0 = all CPUs). It never changes metrics or
	// event logs, only wall-clock time.
	Parallelism int
	// Tenants declares the tenant set. When non-empty, every submission
	// must name one of them; when empty, any tenant name is admitted
	// with weight 1 and no quota.
	Tenants []TenantConfig
	// MaxActiveSessions bounds how many submissions run concurrently;
	// excess submissions queue per tenant (0 = unbounded).
	MaxActiveSessions int
	// Arbitrate enables cluster-wide cache arbitration: each Blaze
	// session's job-start ILP is re-run over the union of all admitted
	// sessions' candidate sets, weighted by tenant fair share, so the
	// shared cache is optimized for the cluster rather than per job.
	Arbitrate bool
	// EventLog, when non-nil, receives the server's own events
	// (session_start, session_end, arbitration); per-job execution
	// events go to each JobSpec's EventLog.
	EventLog *EventLog
}

// JobSpec describes one application submitted to a Server. It is the
// multi-tenant analogue of RunConfig: the same system/workload/knob
// surface, minus the cluster shape (the server owns the pool) and plus
// the owning tenant.
type JobSpec struct {
	// Tenant names the owning tenant (must be declared when the server
	// has an explicit tenant set).
	Tenant string
	// System and Workload select what to run, as in RunConfig.
	System   SystemID
	Workload WorkloadID
	// Scale shrinks the input, as in RunConfig: (0, 1], default 1.0.
	Scale float64
	// ProfileScale is the dependency-extraction sample fraction for the
	// Blaze systems (default 0.02).
	ProfileScale float64
	// CostParams overrides the cost model by value; the zero value uses
	// EvalParams with the workload's serialization factor.
	CostParams CostParams
	// DiskCapacity adds the per-executor disk constraint to the Blaze
	// ILP when positive.
	DiskCapacity int64
	// ILPWindow selects the Blaze ILP's successor-job window, as in
	// RunConfig: ILPWindowDefault keeps the default of 1,
	// ILPWindowCurrentJobOnly disables lookahead, positive values widen
	// the horizon.
	ILPWindow int
	// EventLog, when non-nil, records this job's execution events.
	EventLog *EventLog
	// Faults attaches a deterministic fault-injection schedule.
	Faults *FaultConfig
	// Resilience tunes the transient-failure machinery.
	Resilience Resilience
	// Parallelism overrides the server's default engine parallelism for
	// this job when positive.
	Parallelism int
}

// Server is a multi-tenant job server: many concurrent applications,
// one shared executor pool, one shared cache. Create one with
// NewServer, submit applications with Submit, observe with Stats and
// shut down with Close.
type Server struct {
	srv *server.Server
}

// NewServer creates a job server and its shared executor pool.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Executors == 0 {
		cfg.Executors = 8
	}
	if cfg.MemoryPerExecutor <= 0 {
		return nil, errors.New("blaze: ServerConfig.MemoryPerExecutor must be positive (a shared pool has no single workload to calibrate against)")
	}
	srv, err := server.New(server.Config{
		Executors:         cfg.Executors,
		CoresPerExecutor:  cfg.Cores,
		MemoryPerExecutor: cfg.MemoryPerExecutor,
		Parallelism:       cfg.Parallelism,
		Tenants:           cfg.Tenants,
		MaxActiveSessions: cfg.MaxActiveSessions,
		Arbitrate:         cfg.Arbitrate,
		EventLog:          cfg.EventLog,
	})
	if err != nil {
		return nil, err
	}
	return &Server{srv: srv}, nil
}

// Submit admits an application and returns a handle to it. The
// application runs asynchronously against the shared pool under the
// server's fair-share scheduler; JobHandle.Wait or JobHandle.Result
// blocks for it. Cancelling ctx cancels the job (effective at its next
// job boundary, like JobHandle.Cancel).
func (s *Server) Submit(ctx context.Context, spec JobSpec) (*JobHandle, error) {
	p, err := planRun(RunConfig{
		System:       spec.System,
		Workload:     spec.Workload,
		Scale:        spec.Scale,
		ProfileScale: spec.ProfileScale,
		CostParams:   spec.CostParams,
		DiskCapacity: spec.DiskCapacity,
		ILPWindow:    spec.ILPWindow,
		EventLog:     spec.EventLog,
		Faults:       spec.Faults,
		Resilience:   spec.Resilience,
		Parallelism:  spec.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	sess, err := s.srv.Submit(p.jobSpec(spec.Tenant))
	if err != nil {
		return nil, err
	}
	h := &JobHandle{sess: sess, system: spec.System, workload: spec.Workload}
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				sess.Cancel()
			case <-sess.Done():
			}
		}()
	}
	return h, nil
}

// Stats snapshots the server's accounting: active and queued sessions,
// cluster-wide arbitration count, and per-tenant session counts, jobs
// granted, aggregate ACT and quota usage/peak/rejections.
func (s *Server) Stats() ServerStats { return s.srv.Stats() }

// Close stops admission, cancels queued (not yet started) jobs and
// waits for running jobs to drain.
func (s *Server) Close() { s.srv.Close() }

// Shutdown is graceful Close with a deadline: admission stops and
// queued jobs are cancelled immediately, then running jobs get until
// ctx expires to drain. Past the deadline they are cancelled too —
// effective at their next job boundary — and Shutdown returns ctx.Err()
// after the forced drain completes (nil when everything drained in
// time). Streaming sessions idle between windows are not reachable by
// cancellation; their clients must close them for the drain to finish.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// JobHandle is one submitted application.
type JobHandle struct {
	sess     *server.Session
	system   SystemID
	workload WorkloadID
}

// ID returns the job's server-wide session index.
func (h *JobHandle) ID() int { return h.sess.ID() }

// Tenant returns the owning tenant.
func (h *JobHandle) Tenant() string { return h.sess.Tenant() }

// Done returns a channel closed when the job completes.
func (h *JobHandle) Done() <-chan struct{} { return h.sess.Done() }

// Wait blocks until the job completes and returns its error
// (ErrCancelled for cancelled jobs, nil on success).
func (h *JobHandle) Wait() error { return h.sess.Wait() }

// Cancel requests cancellation. Queued jobs never start; running jobs
// unwind at their next job boundary (the job step in flight completes —
// jobs are the atomic scheduling unit).
func (h *JobHandle) Cancel() { h.sess.Cancel() }

// Result waits for the job and returns its Result, exactly as Run
// would have returned it (MemoryPerExecutor reports the shared pool's
// per-executor capacity).
func (h *JobHandle) Result() (*Result, error) {
	if err := h.sess.Wait(); err != nil {
		return nil, err
	}
	m := h.sess.Metrics()
	if m == nil {
		return nil, fmt.Errorf("blaze: job %d finished without metrics", h.sess.ID())
	}
	return &Result{System: h.system, Workload: h.workload, Metrics: m, MemoryPerExecutor: h.sess.MemoryPerExecutor()}, nil
}
