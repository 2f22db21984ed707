// Package server is the multi-tenant job server: a long-lived process
// admitting many concurrent applications against one shared executor
// pool and one shared cache. Each submitted application becomes a
// session with its own dataflow context (dataset ids namespaced by
// session so blocks never collide), its own controller, metrics and
// event log, all bound to the pool's executors. Three policies govern
// the sharing:
//
//   - Fair-share admission: sessions execute jobs one at a time under
//     the pool's exclusivity lock, and the next job to run is picked by
//     smooth weighted round-robin over the tenants with a job waiting,
//     so a heavy tenant cannot starve a light one. Session activation
//     (bounded by MaxActiveSessions) uses the same discipline.
//   - Per-tenant memory quotas: every block admitted to any executor's
//     memory store is charged to its owning tenant (resolved by dataset
//     id range); admissions past the tenant's cluster-wide limit first
//     reclaim the tenant's own coldest blocks and are refused if that
//     does not fit, never exceeding the limit.
//   - Cluster-wide arbitration: when enabled, every Blaze session's
//     job-start ILP is re-run across the union of all admitted
//     sessions' candidate sets (core.GlobalArbiter), so the shared
//     cache is optimized for the cluster, not each job in isolation.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"blaze/internal/core"
	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/engine"
	"blaze/internal/eventlog"
	"blaze/internal/faults"
	"blaze/internal/metrics"
	"blaze/internal/storage"
)

// IDStride is the dataset-id namespace width per session: session k
// creates datasets in [k*IDStride, (k+1)*IDStride). Session 0 starts at
// 0, so a single-session server produces the exact dataset ids (hence
// blocks, events and metrics) of a standalone run. No workload comes
// close to a million datasets.
const IDStride = 1 << 20

// ErrCancelled is returned by Session.Wait when the session was
// cancelled before completing.
var ErrCancelled = errors.New("server: session cancelled")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("server: server closed")

// TenantConfig declares one tenant sharing the server.
type TenantConfig struct {
	// Name identifies the tenant on submissions.
	Name string
	// Weight is the tenant's fair share (default 1): with weights 2 and
	// 1, the heavy tenant's sessions run two jobs for every one of the
	// light tenant's when both have jobs waiting.
	Weight float64
	// MemoryQuota caps the tenant's cluster-wide cached bytes in
	// executor memory (0 = unlimited). Enforced at block admission.
	MemoryQuota int64
}

// Config describes a job server.
type Config struct {
	// Executors, CoresPerExecutor and MemoryPerExecutor shape the shared
	// pool.
	Executors         int
	CoresPerExecutor  int
	MemoryPerExecutor int64
	// RealBytes makes the shared pool a real-bytes one (forwarded to
	// engine.PoolConfig.RealBytes); Close removes its block files.
	RealBytes bool
	// Parallelism is the default engine parallelism for sessions that do
	// not override it.
	Parallelism int
	// Tenants declares the tenant set. When non-empty, submissions must
	// name one of them; when empty, any tenant name (including "") is
	// admitted with weight 1 and no quota.
	Tenants []TenantConfig
	// MaxActiveSessions bounds how many sessions run concurrently
	// (others queue per tenant; 0 = unbounded).
	MaxActiveSessions int
	// Arbitrate re-runs each Blaze session's job-start ILP across the
	// union of all admitted sessions' candidates.
	Arbitrate bool
	// EventLog, when non-nil, receives the server's own events
	// (session_start, session_end, arbitration). Appends are
	// synchronized by the server.
	EventLog *eventlog.Log
}

// JobSpec describes one application submission.
type JobSpec struct {
	// Tenant names the owning tenant.
	Tenant string
	// Driver builds and runs the application's dataflow against the
	// session's context; actions inside it execute as jobs on the shared
	// pool. Required.
	Driver func(ctx *dataflow.Context)
	// Controller makes the session's caching decisions. Must be a fresh,
	// unbound controller per submission. Required.
	Controller engine.Controller
	// Params is the session's virtual-time cost model.
	Params costmodel.Params
	// AlluxioMode charges (de)serialization on every cache access.
	AlluxioMode bool
	// ProfilingOverhead is charged into the session's ACT (the
	// dependency-extraction cost when the controller was profiled).
	ProfilingOverhead time.Duration
	// EventLog, when non-nil, records the session's execution events.
	EventLog *eventlog.Log
	// Hook observes the session's scheduling boundaries (fault
	// injection).
	Hook engine.Hook
	// Resilience configures the session's transient-failure machinery.
	Resilience engine.Resilience
	// Parallelism overrides Config.Parallelism for this session when
	// positive.
	Parallelism int
	// Vectorized is ignored, as engine.Config.Vectorized.
	//
	// Deprecated: nothing reads this field.
	Vectorized bool
}

// tenantState is the server's per-tenant bookkeeping.
type tenantState struct {
	cfg TenantConfig
	// queue holds submitted, not-yet-activated sessions in submission
	// order.
	queue []*Session
	// actCredit and jobCredit are the smooth-WRR accumulators for
	// session activation and job granting respectively.
	actCredit float64
	jobCredit float64

	submitted   int
	completed   int
	cancelled   int
	jobsGranted int
	totalACT    time.Duration
}

// Server is the multi-tenant job server.
type Server struct {
	mu   sync.Mutex
	cond *sync.Cond

	cfg     Config
	pool    *engine.Pool
	quota   *storage.TenantQuota
	arbiter *core.GlobalArbiter
	owners  *ownerTable

	tenants   map[string]*tenantState
	order     []string // tenant names in first-seen order (WRR scan order)
	byCluster map[*engine.Cluster]*Session

	seq     int // next session index
	active  int
	pending int
	grant   *Session // session currently authorized to run a job
	closed  bool

	logMu sync.Mutex // serializes Config.EventLog appends
	wg    sync.WaitGroup
}

// ownerTable resolves block owners for quota enforcement: the dataset
// id's session range names the tenant. Leaf mutex — looked up on the
// admission hot path, written once per session.
type ownerTable struct {
	mu    sync.Mutex
	byIdx map[int]string
}

func (t *ownerTable) set(idx int, tenant string) {
	t.mu.Lock()
	t.byIdx[idx] = tenant
	t.mu.Unlock()
}

func (t *ownerTable) owner(id storage.BlockID) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byIdx[id.Dataset/IDStride]
}

// New creates the server and its shared pool.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:       cfg,
		owners:    &ownerTable{byIdx: make(map[int]string)},
		tenants:   make(map[string]*tenantState),
		byCluster: make(map[*engine.Cluster]*Session),
	}
	s.cond = sync.NewCond(&s.mu)
	needQuota := false
	for _, tc := range cfg.Tenants {
		if _, dup := s.tenants[tc.Name]; dup {
			return nil, fmt.Errorf("server: duplicate tenant %q", tc.Name)
		}
		if tc.Weight < 0 {
			return nil, fmt.Errorf("server: tenant %q has negative weight", tc.Name)
		}
		s.tenants[tc.Name] = &tenantState{cfg: tc}
		s.order = append(s.order, tc.Name)
		if tc.MemoryQuota > 0 {
			needQuota = true
		}
	}
	if needQuota {
		s.quota = storage.NewTenantQuota(s.owners.owner)
		for _, tc := range cfg.Tenants {
			if tc.MemoryQuota > 0 {
				s.quota.SetLimit(tc.Name, tc.MemoryQuota)
			}
		}
	}
	var q storage.QuotaController
	if s.quota != nil {
		q = s.quota
	}
	pool, err := engine.NewPool(engine.PoolConfig{
		Executors:         cfg.Executors,
		CoresPerExecutor:  cfg.CoresPerExecutor,
		MemoryPerExecutor: cfg.MemoryPerExecutor,
		Quota:             q,
		RealBytes:         cfg.RealBytes,
	})
	if err != nil {
		return nil, err
	}
	s.pool = pool
	if cfg.Arbitrate {
		s.arbiter = core.NewGlobalArbiter(s.emit)
	}
	return s, nil
}

// Pool exposes the shared executor pool (stats and tests).
func (s *Server) Pool() *engine.Pool { return s.pool }

// Quota exposes the tenant quota ledger (nil when no tenant has one).
func (s *Server) Quota() *storage.TenantQuota { return s.quota }

// emit appends an event to the server's log, synchronized (the
// arbiter calls this from job context, the server from session
// goroutines).
func (s *Server) emit(e eventlog.Event) {
	if s.cfg.EventLog == nil {
		return
	}
	s.logMu.Lock()
	s.cfg.EventLog.Append(e)
	s.logMu.Unlock()
}

// tenantLocked returns (creating if allowed) the tenant's state.
func (s *Server) tenantLocked(name string) (*tenantState, error) {
	if t, ok := s.tenants[name]; ok {
		return t, nil
	}
	if len(s.cfg.Tenants) > 0 {
		return nil, fmt.Errorf("server: unknown tenant %q", name)
	}
	t := &tenantState{cfg: TenantConfig{Name: name}}
	s.tenants[name] = t
	s.order = append(s.order, name)
	return t, nil
}

// weight resolves a tenant's effective WRR weight.
func (t *tenantState) weight() float64 {
	if t.cfg.Weight > 0 {
		return t.cfg.Weight
	}
	return 1
}

// Submit admits an application. The returned session is queued (or
// immediately activated) and runs asynchronously; Wait blocks for it.
func (s *Server) Submit(spec JobSpec) (*Session, error) {
	if spec.Driver == nil {
		return nil, errors.New("server: a driver function is required")
	}
	if spec.Controller == nil {
		return nil, errors.New("server: a cache controller is required")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	t, err := s.tenantLocked(spec.Tenant)
	if err != nil {
		return nil, err
	}
	sess := &Session{
		srv:    s,
		idx:    s.seq,
		tenant: spec.Tenant,
		spec:   spec,
		done:   make(chan struct{}),
	}
	s.seq++
	s.owners.set(sess.idx, spec.Tenant)
	t.submitted++
	t.queue = append(t.queue, sess)
	s.pending++
	s.activateLocked()
	return sess, nil
}

// wrrPick runs one smooth weighted-round-robin step over the eligible
// tenants (those for which eligible returns true), using the given
// credit accessor: every eligible tenant's credit grows by its weight,
// the max-credit tenant wins and pays the total weight. Deterministic:
// ties break by first-seen tenant order.
func (s *Server) wrrPick(eligible func(*tenantState) bool, credit func(*tenantState) *float64) *tenantState {
	var names []string
	var total float64
	for _, name := range s.order {
		t := s.tenants[name]
		if eligible(t) {
			names = append(names, name)
			total += t.weight()
		}
	}
	if len(names) == 0 {
		return nil
	}
	var best *tenantState
	for _, name := range names {
		t := s.tenants[name]
		*credit(t) += t.weight()
		if best == nil || *credit(t) > *credit(best) {
			best = t
		}
	}
	*credit(best) -= total
	return best
}

// activateLocked starts queued sessions while the active-session bound
// allows, picking tenants by weighted round-robin.
func (s *Server) activateLocked() {
	for s.pending > 0 && (s.cfg.MaxActiveSessions <= 0 || s.active < s.cfg.MaxActiveSessions) {
		t := s.wrrPick(
			func(t *tenantState) bool { return len(t.queue) > 0 },
			func(t *tenantState) *float64 { return &t.actCredit },
		)
		if t == nil {
			return
		}
		sess := t.queue[0]
		t.queue = t.queue[1:]
		s.pending--
		if sess.cancelled {
			sess.err = ErrCancelled
			t.cancelled++
			close(sess.done)
			continue
		}
		s.active++
		s.wg.Add(1)
		go sess.run()
	}
}

// scheduleLocked grants the pool to the next waiting session when it is
// free, picking the tenant by weighted round-robin and the tenant's
// earliest-admitted waiting session.
func (s *Server) scheduleLocked() {
	if s.grant != nil {
		return
	}
	t := s.wrrPick(
		func(t *tenantState) bool {
			for _, w := range s.waitersOf(t) {
				if !w.cancelled {
					return true
				}
			}
			return false
		},
		func(t *tenantState) *float64 { return &t.jobCredit },
	)
	if t == nil {
		return
	}
	var pick *Session
	for _, w := range s.waitersOf(t) {
		if w.cancelled {
			continue
		}
		if pick == nil || w.idx < pick.idx {
			pick = w
		}
	}
	if pick == nil {
		return
	}
	s.grant = pick
	t.jobsGranted++
	s.cond.Broadcast()
}

// waitersOf lists the tenant's sessions parked at the job gate.
func (s *Server) waitersOf(t *tenantState) []*Session {
	var out []*Session
	for _, sess := range s.byCluster {
		if sess.tenant == t.cfg.Name && sess.waiting {
			out = append(out, sess)
		}
	}
	return out
}

// AcquireJob implements engine.JobGate: park the session until the
// fair-share scheduler grants it the pool, then take pool exclusivity.
// Panics with ErrCancelled when the session was cancelled — the
// session's driver recovery unwinds the rest of the application.
func (s *Server) AcquireJob(c *engine.Cluster) {
	s.mu.Lock()
	sess := s.byCluster[c]
	if sess == nil {
		// Not a managed session (defensive): plain pool exclusivity.
		s.mu.Unlock()
		s.pool.Acquire()
		return
	}
	if sess.cancelled {
		s.mu.Unlock()
		panic(ErrCancelled)
	}
	sess.waiting = true
	s.scheduleLocked()
	for s.grant != sess {
		if sess.cancelled {
			sess.waiting = false
			s.mu.Unlock()
			panic(ErrCancelled)
		}
		s.cond.Wait()
	}
	sess.waiting = false
	// Never hold the server lock while acquiring the pool: the holder
	// may be a session finishing a job that needs the server lock to
	// release its grant.
	s.mu.Unlock()
	s.pool.Acquire()
}

// ReleaseJob implements engine.JobGate: drop pool exclusivity and let
// the scheduler grant the next waiting session.
func (s *Server) ReleaseJob(c *engine.Cluster) {
	s.pool.Release()
	s.mu.Lock()
	if s.grant == s.byCluster[c] {
		s.grant = nil
	}
	s.scheduleLocked()
	s.mu.Unlock()
}

// poolNow reads the shared pool's current virtual time safely (the
// clocks belong to whichever session is running a job).
func (s *Server) poolNow(sess *Session) time.Duration {
	s.pool.Acquire()
	defer s.pool.Release()
	return sess.cl.Now()
}

// sessionDone finalizes a session's accounting and wakes the scheduler.
func (s *Server) sessionDone(sess *Session) {
	s.mu.Lock()
	s.active--
	t := s.tenants[sess.tenant]
	switch {
	case sess.err == nil && sess.met != nil:
		t.completed++
		t.totalACT += sess.met.ACT
	default:
		t.cancelled++
	}
	if sess.cl != nil {
		delete(s.byCluster, sess.cl)
	}
	if s.grant == sess {
		// A cancelled session may die holding an unconsumed grant.
		s.grant = nil
	}
	s.scheduleLocked()
	s.activateLocked()
	s.mu.Unlock()
	close(sess.done)
}

// TenantStats is one tenant's share of Stats.
type TenantStats struct {
	Name        string
	Weight      float64
	Submitted   int
	Completed   int
	Cancelled   int
	JobsGranted int
	// TotalACT sums the completed sessions' application completion
	// times (the aggregate-ACT measure blazebench compares).
	TotalACT time.Duration
	// Quota accounting (zero values when the tenant has no quota).
	QuotaLimit      int64
	QuotaUsage      int64
	QuotaPeak       int64
	QuotaRejections int
}

// Stats is a point-in-time snapshot of the server.
type Stats struct {
	ActiveSessions  int
	PendingSessions int
	// Arbitrations counts cluster-wide ILP solves (0 unless Arbitrate).
	Arbitrations int
	Tenants      []TenantStats
}

// Stats snapshots the server's accounting.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		ActiveSessions:  s.active,
		PendingSessions: s.pending,
	}
	for _, name := range s.order {
		t := s.tenants[name]
		ts := TenantStats{
			Name:        name,
			Weight:      t.weight(),
			Submitted:   t.submitted,
			Completed:   t.completed,
			Cancelled:   t.cancelled,
			JobsGranted: t.jobsGranted,
			TotalACT:    t.totalACT,
		}
		st.Tenants = append(st.Tenants, ts)
	}
	s.mu.Unlock()
	if s.arbiter != nil {
		st.Arbitrations = s.arbiter.Runs()
	}
	if s.quota != nil {
		for i := range st.Tenants {
			name := st.Tenants[i].Name
			st.Tenants[i].QuotaLimit = s.quota.Limit(name)
			st.Tenants[i].QuotaUsage = s.quota.Usage(name)
			st.Tenants[i].QuotaPeak = s.quota.Peak(name)
			st.Tenants[i].QuotaRejections = s.quota.Rejections(name)
		}
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Name < st.Tenants[j].Name })
	return st
}

// stopAdmissionLocked closes the server to new sessions and cancels
// every queued (not yet active) one. Idempotent; s.mu must be held.
func (s *Server) stopAdmissionLocked() {
	if s.closed {
		return
	}
	s.closed = true
	for _, t := range s.tenants {
		for _, sess := range t.queue {
			sess.cancelled = true
			sess.err = ErrCancelled
			t.cancelled++
			close(sess.done)
		}
		t.queue = nil
	}
	s.pending = 0
}

// Close stops admission, cancels queued (not yet active) sessions, waits
// for active sessions to drain and closes the pool (removing a
// real-bytes pool's block files).
func (s *Server) Close() {
	s.mu.Lock()
	s.stopAdmissionLocked()
	s.mu.Unlock()
	s.wg.Wait()
	s.pool.Close()
}

// Shutdown stops admission like Close, then drains gracefully: it waits
// for the active sessions to finish until ctx expires, and past the
// deadline cancels every remaining session and waits for those to
// unwind at their next job boundary. Returns nil when the drain
// completed in time, ctx.Err() when sessions had to be cancelled.
// Streaming sessions idle between windows are not reachable by
// cancellation (jobs are the atomic unit); their clients must Close
// them for the drain to complete.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.stopAdmissionLocked()
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.pool.Close()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	for _, sess := range s.byCluster {
		sess.cancelled = true
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	<-drained
	return ctx.Err()
}

// Session is one admitted application.
type Session struct {
	srv    *Server
	idx    int
	tenant string
	spec   JobSpec

	ctx *dataflow.Context
	cl  *engine.Cluster
	met *metrics.App
	err error

	// waiting marks the session parked at the job gate; cancelled marks
	// a cancellation request (effective at the next job boundary). Both
	// are guarded by srv.mu.
	waiting   bool
	cancelled bool

	done chan struct{}
}

// ID returns the session's index (also its dataset-id namespace slot).
func (sess *Session) ID() int { return sess.idx }

// Tenant returns the owning tenant.
func (sess *Session) Tenant() string { return sess.tenant }

// Wait blocks until the session completes and returns its error
// (ErrCancelled for cancelled sessions, nil on success).
func (sess *Session) Wait() error {
	<-sess.done
	return sess.err
}

// Done returns a channel closed when the session completes, for
// select-based waiting (context cancellation watchers).
func (sess *Session) Done() <-chan struct{} { return sess.done }

// MemoryPerExecutor returns the shared pool's per-executor memory
// capacity (every session shares it).
func (sess *Session) MemoryPerExecutor() int64 {
	return sess.srv.pool.Config().MemoryPerExecutor
}

// Metrics returns the session's sealed metrics (nil until Wait returns
// nil).
func (sess *Session) Metrics() *metrics.App {
	select {
	case <-sess.done:
		return sess.met
	default:
		return nil
	}
}

// Cancel requests cancellation: queued sessions never start; running
// sessions unwind at their next job boundary (the job in flight, if
// any, completes — jobs are the atomic scheduling unit).
func (sess *Session) Cancel() {
	sess.srv.mu.Lock()
	sess.cancelled = true
	sess.srv.cond.Broadcast()
	sess.srv.mu.Unlock()
}

// run executes the session: build its namespaced context and pooled
// cluster, register with the arbiter, run the driver (unwinding on
// cancellation), seal metrics.
func (sess *Session) run() {
	s := sess.srv
	defer s.wg.Done()
	defer s.sessionDone(sess)

	ctx := dataflow.NewContext()
	ctx.SetIDBase(sess.idx * IDStride)
	sess.ctx = ctx

	par := sess.spec.Parallelism
	if par <= 0 {
		par = s.cfg.Parallelism
	}
	cl, err := engine.NewCluster(engine.Config{
		Params:      sess.spec.Params,
		Controller:  sess.spec.Controller,
		AlluxioMode: sess.spec.AlluxioMode,
		EventLog:    sess.spec.EventLog,
		Hook:        sess.spec.Hook,
		Parallelism: par,
		Resilience:  sess.spec.Resilience,
		Pool:        s.pool,
		Gate:        s,
	}, ctx)
	if err != nil {
		sess.err = err
		return
	}
	sess.cl = cl
	met := cl.Metrics()
	met.Tenant = sess.tenant
	if sess.spec.ProfilingOverhead > 0 {
		cl.AddProfilingTime(sess.spec.ProfilingOverhead)
	}

	s.mu.Lock()
	s.byCluster[cl] = sess
	weight := s.tenants[sess.tenant].weight()
	s.mu.Unlock()

	if s.arbiter != nil {
		if bc, ok := sess.spec.Controller.(*core.Controller); ok && bc.ILPEnabled() {
			s.arbiter.Register(bc, weight)
			defer s.arbiter.Unregister(bc)
		}
	}

	s.emit(eventlog.Event{Kind: eventlog.SessionStart, Time: s.poolNow(sess),
		Session: sess.idx, Tenant: sess.tenant})

	func() {
		defer func() {
			// Whatever unwound the driver becomes the session's error, and
			// the session falls through the normal teardown below (the job
			// bracket's deferred release already returned the gate): its
			// blocks leave the shared cache and its quota bytes are
			// released, exactly like a completed session, and the other
			// sessions keep running. After an injected server crash the
			// client's move is to resume from the checkpoint directory; any
			// other panic (an engine invariant, a real-bytes I/O failure)
			// is reported with the stack that raised it.
			r := recover()
			if r == nil {
				return
			}
			err, isErr := r.(error)
			switch {
			case errors.Is(err, ErrCancelled):
				sess.err = ErrCancelled
			case errors.Is(err, faults.ErrServerCrash):
				sess.err = err
			default:
				if !isErr {
					err = fmt.Errorf("%v", r)
				}
				sess.err = fmt.Errorf("server: session %d: driver panicked: %w\n%s", sess.idx, err, debug.Stack())
			}
		}()
		sess.spec.Driver(ctx)
	}()

	// Whatever the driver left running in the background (a window
	// checkpointer's commit) is joined on every path before the session
	// ends; a failure there is the session's error too.
	if err := cl.Teardown(); err != nil {
		err = fmt.Errorf("server: session %d: %w", sess.idx, err)
		if sess.err != nil {
			err = errors.Join(sess.err, err)
		}
		sess.err = err
	}

	if sess.err == nil {
		sess.met = cl.Finish()
	}

	// The application is gone, and its cache with it: silently release
	// the session's blocks (its dataset-id namespace) from the shared
	// pool so they stop occupying — and, with their stamped costs,
	// defending — memory other sessions could use.
	s.pool.Acquire()
	cl.DropNamespaceBlocks(sess.idx*IDStride, (sess.idx+1)*IDStride)
	s.pool.Release()

	s.emit(eventlog.Event{Kind: eventlog.SessionEnd, Time: s.poolNow(sess),
		Session: sess.idx, Tenant: sess.tenant})
}
