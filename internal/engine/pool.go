package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"blaze/internal/costmodel"
	"blaze/internal/storage"
)

// Pool is a set of executors and their block stores. Every cluster runs
// on one: a standalone cluster on a private pool it builds and closes
// itself, the sessions of a job server on the pool the server hands them
// — many concurrently admitted applications sharing one set of executors.
// Each such application binds its own Cluster (with its own controller,
// metrics and event log) to the pool, so every session's blocks live in
// the same memory/disk stores and every session's tasks advance the same
// virtual clocks: the pool's timeline is one global schedule, and one
// session's caching pressure is directly visible to every other
// session's controller.
//
// The pool itself does no scheduling. Exclusivity is a single mutex:
// exactly one session executes a job (or a driver-path mutation like
// Finish/Unpersist) at a time, acquired through Acquire/Release —
// usually indirectly, via the JobGate a server installs on each
// cluster. Jobs are the paper's scheduling unit, so serializing them
// preserves the engine's single-driver execution model while still
// interleaving sessions at job granularity.
type Pool struct {
	mu    sync.Mutex
	cfg   PoolConfig
	execs []*Executor
	// meter and dir are set for a RealBytes pool: the measured storage
	// work of every store, and the run-scoped directory holding their
	// block files until Close.
	meter *storage.Meter
	dir   string
}

// PoolConfig describes an executor pool.
type PoolConfig struct {
	// Executors is the number of executors (E) shared by all sessions.
	Executors int
	// CoresPerExecutor is the number of task slots per executor
	// (default 1).
	CoresPerExecutor int
	// MemoryPerExecutor is the memory-store capacity per executor.
	MemoryPerExecutor int64
	// Quota, when non-nil, is charged for every block admitted to any
	// executor's memory store, enforcing cluster-wide per-tenant memory
	// limits (storage.TenantQuota is the server's implementation).
	Quota storage.QuotaController
	// RealBytes backs every store of the pool with real bytes (see
	// Config.RealBytes): how a resident block is held is the stores'
	// business, which of the two kinds of store exists is the pool's.
	RealBytes bool
}

// NewPool creates the executors and their block stores — the only place
// either is constructed; a cluster that is handed no pool builds a
// private one through here. A RealBytes pool also owns a meter and a
// run-scoped temp directory with one sub-directory per executor; Close
// removes it.
func NewPool(pc PoolConfig) (*Pool, error) {
	if pc.Executors <= 0 {
		return nil, fmt.Errorf("engine: need at least one executor, got %d", pc.Executors)
	}
	if pc.MemoryPerExecutor <= 0 {
		return nil, fmt.Errorf("engine: memory per executor must be positive, got %d", pc.MemoryPerExecutor)
	}
	cores := max(pc.CoresPerExecutor, 1)
	p := &Pool{cfg: pc}
	if pc.RealBytes {
		p.meter = storage.NewMeter()
		dir, err := os.MkdirTemp("", "blaze-storage-*")
		if err != nil {
			return nil, fmt.Errorf("engine: real-bytes storage dir: %w", err)
		}
		p.dir = dir
	}
	for i := 0; i < pc.Executors; i++ {
		ex := &Executor{ID: i, cores: make([]costmodel.Clock, cores)}
		if pc.RealBytes {
			dir := filepath.Join(p.dir, fmt.Sprintf("exec-%d", i))
			if err := os.Mkdir(dir, 0o755); err != nil {
				p.Close()
				return nil, fmt.Errorf("engine: real-bytes executor dir: %w", err)
			}
			ex.Mem = storage.NewMemoryStoreReal(pc.MemoryPerExecutor, p.meter, 0)
			ex.Disk = storage.NewDiskStoreReal(dir, p.meter)
		} else {
			ex.Mem = storage.NewMemoryStore(pc.MemoryPerExecutor)
			ex.Disk = storage.NewDiskStore()
		}
		if pc.Quota != nil {
			ex.Mem.SetQuota(pc.Quota)
		}
		p.execs = append(p.execs, ex)
	}
	return p, nil
}

// Meter returns the pool's measured-storage meter (nil unless
// PoolConfig.RealBytes; all Meter methods are nil-safe no-ops then).
func (p *Pool) Meter() *storage.Meter { return p.meter }

// Dir returns the run-scoped directory holding RealBytes block files
// ("" for a virtual pool, and after Close).
func (p *Pool) Dir() string { return p.dir }

// Close removes a RealBytes pool's block-file directory. Safe to call
// multiple times and on virtual pools (no-op); whoever called NewPool
// should defer it so failure paths clean up too.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	dir := p.dir
	p.dir = ""
	if dir == "" {
		return nil
	}
	return os.RemoveAll(dir)
}

// Acquire takes the pool's exclusivity lock; every job execution and
// every driver-path mutation of pool state runs under it.
func (p *Pool) Acquire() { p.mu.Lock() }

// Release drops the exclusivity lock.
func (p *Pool) Release() { p.mu.Unlock() }

// Executors returns the shared executor set (stable identity and
// order for the pool's lifetime).
func (p *Pool) Executors() []*Executor { return p.execs }

// Quota returns the pool's tenant quota controller (nil when
// unenforced).
func (p *Pool) Quota() storage.QuotaController { return p.cfg.Quota }

// Config returns the pool's configuration.
func (p *Pool) Config() PoolConfig { return p.cfg }

// JobGate serializes job execution across the sessions of a shared
// pool and decides their order. The engine calls AcquireJob before a
// job's first event and ReleaseJob after its last; a fair-share server
// implements admission (weighted round-robin across tenants) behind
// AcquireJob and must leave the pool's exclusivity lock held on
// return. Without a gate, a pooled cluster falls back to bare
// Pool.Acquire/Release (FIFO mutex order).
type JobGate interface {
	AcquireJob(c *Cluster)
	ReleaseJob(c *Cluster)
}
