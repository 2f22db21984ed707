// Package blaze is a from-scratch Go reproduction of "Blaze: Holistic
// Caching for Iterative Data Processing" (EuroSys 2024): an iterative
// dataflow engine with pluggable caching systems, the Blaze unified
// cost-aware decision layer, the baseline systems the paper compares
// against, and the six evaluation workloads.
//
// The package is the public facade: construct a RunConfig naming a
// system and a workload, call Run, and read the returned metrics. The
// cmd/blazebench tool and the root bench_test.go regenerate every figure
// of the paper's evaluation from this API.
package blaze

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"blaze/internal/cachepolicy"
	"blaze/internal/core"
	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/engine"
	"blaze/internal/faults"
	"blaze/internal/metrics"
	"blaze/internal/server"
)

// SystemID names a caching system configuration (§7.1 "Systems").
type SystemID string

// The systems under comparison.
const (
	// SysSparkMem is recomputation-based MEM_ONLY Spark (LRU).
	SysSparkMem SystemID = "spark-mem"
	// SysSparkMemDisk is checkpoint-based MEM+DISK Spark (LRU, spill).
	SysSparkMemDisk SystemID = "spark-memdisk"
	// SysSparkAlluxio is Spark caching through an external tiered store.
	SysSparkAlluxio SystemID = "spark-alluxio"
	// SysLRC is MEM+DISK Spark with least-reference-count eviction.
	SysLRC SystemID = "lrc"
	// SysMRD is MEM+DISK Spark with most-reference-distance eviction and
	// prefetching.
	SysMRD SystemID = "mrd"
	// SysLRCMem and SysMRDMem are the memory-only variants (§7.4).
	SysLRCMem SystemID = "lrc-mem"
	SysMRDMem SystemID = "mrd-mem"
	// SysAutoCache is the +AutoCache ablation (§7.3).
	SysAutoCache SystemID = "autocache"
	// SysCostAware is the +CostAware ablation (§7.3).
	SysCostAware SystemID = "costaware"
	// SysBlaze is the full system.
	SysBlaze SystemID = "blaze"
	// SysBlazeMem is Blaze without disk support (§7.4).
	SysBlazeMem SystemID = "blaze-mem"
	// SysBlazeNoProfile is Blaze building its lineage on the run (§7.5).
	SysBlazeNoProfile SystemID = "blaze-noprofile"
)

// System is one row of the system table: a caching system's id, its
// display title and how the facade builds it.
type System struct {
	ID    SystemID
	Title string
	// controller constructs the system's cache controller.
	controller func() engine.Controller
	// annotated runs the workload with user cache annotations (the
	// Spark-style systems); the others derive decisions from lineage.
	annotated bool
	// alluxio models caching through an external tiered store.
	alluxio bool
	// profiled seeds the controller with a profiled dependency skeleton
	// and charges the extraction phase into the ACT.
	profiled bool
}

// systemTable is the one place a system is defined: validation, Run,
// Server.Submit, sessions, the harness and blazerun all read it.
var systemTable = []System{
	{ID: SysSparkMem, Title: "Spark (MEM)", annotated: true,
		controller: func() engine.Controller { return engine.NewSparkMemOnly() }},
	{ID: SysSparkMemDisk, Title: "Spark (MEM+DISK)", annotated: true,
		controller: func() engine.Controller { return engine.NewSparkMemDisk() }},
	{ID: SysSparkAlluxio, Title: "Spark+Alluxio", annotated: true, alluxio: true,
		controller: func() engine.Controller { return engine.NewAlluxio() }},
	{ID: SysLRC, Title: "LRC", annotated: true,
		controller: func() engine.Controller { return engine.NewLRC(engine.MemDisk) }},
	{ID: SysMRD, Title: "MRD", annotated: true,
		controller: func() engine.Controller { return engine.NewMRD(engine.MemDisk) }},
	{ID: SysLRCMem, Title: "LRC (MEM)", annotated: true,
		controller: func() engine.Controller { return engine.NewLRC(engine.MemOnly) }},
	{ID: SysMRDMem, Title: "MRD (MEM)", annotated: true,
		controller: func() engine.Controller { return engine.NewMRD(engine.MemOnly) }},
	{ID: SysAutoCache, Title: "+AutoCache", profiled: true,
		controller: func() engine.Controller { return core.NewAutoCache() }},
	{ID: SysCostAware, Title: "+CostAware", profiled: true,
		controller: func() engine.Controller { return core.NewCostAware() }},
	{ID: SysBlaze, Title: "Blaze", profiled: true,
		controller: func() engine.Controller { return core.NewBlaze() }},
	{ID: SysBlazeMem, Title: "Blaze (MEM)", profiled: true,
		controller: func() engine.Controller { return core.NewBlazeMemOnly() }},
	{ID: SysBlazeNoProfile, Title: "Blaze w/o Profiling",
		controller: func() engine.Controller { return core.NewBlaze() }},
}

// Systems lists every system id with its display title: the table's
// named systems in order, then one PolicySystem id per registered
// eviction policy.
func Systems() []System {
	out := slices.Clone(systemTable)
	for _, name := range cachepolicy.Names() {
		row, _ := lookupSystem(PolicySystem(name))
		out = append(out, row)
	}
	return out
}

// lookupSystem returns the table row of a system id. A PolicySystem id
// gets a MEM+DISK Spark row evicting by its registered policy.
func lookupSystem(id SystemID) (System, error) {
	if i := slices.IndexFunc(systemTable, func(s System) bool { return s.ID == id }); i >= 0 {
		return systemTable[i], nil
	}
	name, ok := strings.CutPrefix(string(id), "policy-")
	if !ok {
		return System{}, fmt.Errorf("blaze: unknown system %q", id)
	}
	p, found := cachepolicy.ByName(name)
	if !found {
		return System{}, fmt.Errorf("blaze: unknown eviction policy %q", name)
	}
	return System{ID: id, Title: string(id), annotated: true,
		controller: func() engine.Controller { return engine.NewAnnotation(string(id), engine.MemDisk, p, false) }}, nil
}

// PolicySystem builds a system id running MEM+DISK Spark with an
// arbitrary registered eviction policy ("policy-lru", "policy-tinylfu",
// ...), used by the conventional-policy comparison §7.1 discusses.
func PolicySystem(policy string) SystemID { return SystemID("policy-" + policy) }

// Fig9Systems lists the systems of the end-to-end comparison, in the
// paper's plotting order.
func Fig9Systems() []SystemID {
	return []SystemID{SysSparkMem, SysSparkMemDisk, SysSparkAlluxio, SysLRC, SysMRD, SysBlaze}
}

// RunConfig describes one application run.
type RunConfig struct {
	System   SystemID
	Workload WorkloadID
	// Executors defaults to 8 (the scaled-down stand-in for the paper's
	// 20; partition counts are chosen accordingly).
	Executors int
	// Cores is the number of task slots per executor (default 1; the
	// paper's executors run 4). More cores overlap task latencies,
	// including recomputation cascades.
	Cores int
	// Parallelism is the number of OS worker goroutines the engine may
	// use to execute a stage's tasks concurrently. It changes only the
	// wall-clock time of a run: the virtual-time metrics and the event
	// log are bit-identical at every setting. 0 uses all available CPUs;
	// 1 forces the sequential scheduler.
	Parallelism int
	// MemoryPerExecutor fixes the memory-store capacity; when zero it is
	// calibrated as MemoryFraction × the workload's peak cached bytes
	// per executor, mirroring §7.1's empirical capacity determination.
	MemoryPerExecutor int64
	// MemoryFraction overrides the workload's default memory regime
	// (WorkloadSpec.MemFraction): the memory-store capacity as a
	// fraction of the calibrated peak cached bytes.
	MemoryFraction float64
	// Scale shrinks the input: a fraction in (0, 1] of the workload's
	// default size (default 1.0). Larger inputs come from a workload
	// registered with RegisterWorkload.
	Scale float64
	// ProfileScale is the sample fraction for Blaze's dependency
	// extraction phase (default 0.02, the analogue of <1 MB samples).
	ProfileScale float64
	// CostParams overrides the cost model by value; the zero value
	// (CostParams.IsZero) uses EvalParams with the workload's
	// serialization factor. Construct one with EvalParams or
	// DefaultCostParams and modify fields as needed.
	//
	// The deprecated pointer field Params (*costmodel.Params) has been
	// removed; assign the pointed-to value here instead — the by-value
	// field copies at Run time, so runs can never alias each other's
	// parameters.
	CostParams CostParams
	// DiskCapacity, when positive, adds the optional per-executor disk
	// capacity constraint to the Blaze ILP (Eq. 6 extension).
	DiskCapacity int64
	// EventLog, when non-nil, records structured execution events for
	// post-run auditing. Construct one with NewEventLog.
	EventLog *EventLog
	// Faults, when non-nil, attaches a deterministic, seed-driven fault
	// injector that destroys cached blocks, shuffle outputs (whole or a
	// single bucket) or entire executors at scheduling boundaries, and
	// fires transient task-granularity faults (task flakes, fetch
	// flakes, stragglers), exercising the recovery and resilience paths;
	// fault counts and per-job recovery time land in the returned
	// metrics. The config is validated before the run starts.
	Faults *FaultConfig
	// Resilience tunes how the scheduler absorbs transient failures
	// (task/fetch retries with backoff, speculative execution,
	// blacklisting). The zero value selects the defaults.
	Resilience Resilience
	// ILPWindow selects how many successor jobs Blaze's ILP objective
	// covers. The zero value (ILPWindowDefault) keeps the paper's
	// default of 1 successor (§5.5); ILPWindowCurrentJobOnly restricts
	// the objective to the current job; any positive value widens the
	// horizon to that many successors. Only meaningful for the Blaze
	// systems.
	ILPWindow int
	// RealBytes backs the storage tier with real bytes: Run's one-session
	// server builds its executor pool in real-bytes mode, so memory
	// blocks are encoded buffers (the columnar block codec), decoded on
	// every read, disk blocks are files under a run-scoped temp directory
	// (removed on every return path of Run), and the run measures its
	// wall-clock (de)serialization and file I/O alongside the
	// virtual-time charges. The virtual-time metrics and event log are
	// bit-identical to a default-mode run; the measurements land in
	// Result.Storage for modeled-vs-measured comparison.
	RealBytes bool
	// Vectorized is ignored: the engine has one task loop, in which every
	// partition keeps the form its producer gave it.
	//
	// Deprecated: nothing reads this field.
	Vectorized bool
}

// ILP window sentinels for RunConfig.ILPWindow and JobSpec.ILPWindow.
const (
	// ILPWindowDefault (the zero value) keeps the paper's default
	// horizon: the current job and one successor (§5.5).
	ILPWindowDefault = 0
	// ILPWindowCurrentJobOnly restricts the ILP objective to the
	// current job, with no successor lookahead.
	ILPWindowCurrentJobOnly = -1
)

// validateScale checks an input scale factor. The built-in workloads
// clamp their input at the default size, so a factor above 1 would run
// the default workload while reporting the requested one.
func validateScale(scale float64) error {
	if scale < 0 || scale > 1 {
		return fmt.Errorf("blaze: Scale must be in (0, 1] (0 means default 1.0), got %g; inputs larger than a workload's default size come from a workload registered with RegisterWorkload", scale)
	}
	return nil
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Executors == 0 {
		c.Executors = 8
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.ProfileScale == 0 {
		c.ProfileScale = 0.02
	}
	return c
}

// Validate checks the configuration without running it: cluster-shape
// knobs must be non-negative (zero selects the documented default),
// Scale and ProfileScale must land in their valid ranges once set, the
// system and workload ids must be known, an explicit CostParams or
// Faults config must itself validate, and Resilience must not back off
// past an hour. Run and Server.Submit both call it after applying
// defaults; call it directly to fail fast on configurations built from
// external input (flags, HTTP payloads).
func (c RunConfig) Validate() error {
	if err := c.validateShared(); err != nil {
		return err
	}
	if c.MemoryPerExecutor < 0 {
		return fmt.Errorf("blaze: MemoryPerExecutor must be >= 0 (0 means calibrated), got %d", c.MemoryPerExecutor)
	}
	if c.MemoryFraction < 0 {
		return fmt.Errorf("blaze: MemoryFraction must be >= 0 (0 means the workload default), got %g", c.MemoryFraction)
	}
	if err := validateScale(c.Scale); err != nil {
		return err
	}
	if c.ProfileScale < 0 || c.ProfileScale > 1 {
		return fmt.Errorf("blaze: ProfileScale must be in (0, 1] (0 means default 0.02), got %g", c.ProfileScale)
	}
	if _, err := Workload(c.Workload); err != nil {
		return err
	}
	if c.Faults != nil {
		return c.Faults.Validate()
	}
	return nil
}

// validateShared checks the fields a SessionConfig carries too; both
// Validate methods run it.
func (c RunConfig) validateShared() error {
	if c.Executors < 0 {
		return fmt.Errorf("blaze: Executors must be >= 0 (0 means default 8), got %d", c.Executors)
	}
	if c.Cores < 0 {
		return fmt.Errorf("blaze: Cores must be >= 0 (0 means default 1), got %d", c.Cores)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("blaze: Parallelism must be >= 0 (0 means all CPUs), got %d", c.Parallelism)
	}
	if c.DiskCapacity < 0 {
		return fmt.Errorf("blaze: DiskCapacity must be >= 0 (0 means unconstrained), got %d", c.DiskCapacity)
	}
	if c.ILPWindow < ILPWindowCurrentJobOnly {
		return fmt.Errorf("blaze: ILPWindow must be >= %d (ILPWindowCurrentJobOnly), got %d", ILPWindowCurrentJobOnly, c.ILPWindow)
	}
	if _, err := lookupSystem(c.System); err != nil {
		return err
	}
	if !c.CostParams.IsZero() {
		if err := c.CostParams.Validate(); err != nil {
			return err
		}
	}
	return validateRetryBackoff(c.Resilience)
}

// maxRetryBackoff bounds the longest backoff one retry may charge.
const maxRetryBackoff = time.Hour

// validateRetryBackoff rejects a Resilience whose last retry would back
// off longer than maxRetryBackoff. The backoff doubles per attempt, so a
// large retry count would otherwise overflow time.Duration and charge a
// negative or wrapped wait. Zero fields take the defaults Resilience
// documents: 3 task retries, 2 fetch retries, a 2ms base.
func validateRetryBackoff(r Resilience) error {
	retries := max(cmp.Or(r.MaxTaskRetries, 3), cmp.Or(r.MaxFetchRetries, 2))
	base := cmp.Or(max(r.RetryBackoff, 0), 2*time.Millisecond)
	if retries > 0 && base > maxRetryBackoff>>(retries-1) {
		return fmt.Errorf("blaze: Resilience backoff %v doubled over %d retries exceeds %v; lower backoff or retries/fetch-retries", base, retries, maxRetryBackoff)
	}
	return nil
}

// Result is the outcome of a run.
type Result struct {
	System            SystemID
	Workload          WorkloadID
	Metrics           *metrics.App
	MemoryPerExecutor int64
	// Storage holds the measured storage work of a RealBytes run —
	// wall-clock (de)serialization and file I/O per category, next to
	// the virtual time the cost model charged for the same operations.
	// Nil unless RunConfig.RealBytes was set.
	Storage *StorageMeasurement
}

// EvalParams returns the cost model used by the evaluation harness. The
// device throughputs are scaled down together with the dataset sizes
// (the inputs here are ~10⁴× smaller than the paper's 30-106 GB), which
// preserves the disk-time : compute-time ratios the paper reports — the
// quantity every figure depends on.
func EvalParams(serFactor float64) costmodel.Params {
	p := costmodel.Default()
	p.DiskReadBps = 16 * 1024 * 1024
	p.DiskWriteBps = 6 * 1024 * 1024
	p.SerializeBps = 24 * 1024 * 1024
	p.NetworkBps = 256 * 1024 * 1024
	p.SerFactor = serFactor
	// Source partitions model scanning and parsing input from external
	// storage (the paper's inputs are 30-106 GB of HDFS/S3 data), which
	// is what makes recomputation chains that reach back to the sources
	// expensive.
	p.RecordCost[costmodel.OpSource] = 400 * time.Nanosecond
	p.SourceBps = 5 * 1024 * 1024
	// Task launch overhead, scaled with the virtual-time regime.
	p.TaskOverhead = 500 * time.Microsecond
	return p
}

// calibration caches the measured peak cached bytes per executor for a
// workload configuration so repeated runs (benchmarks sweep many systems
// over the same workload) calibrate once.
var (
	calMu    sync.Mutex
	calCache = map[string]int64{}
)

// calibrateMemory measures the per-executor peak cached bytes of the
// annotated workload under unconstrained memory. The cache key covers
// every input that can change the measured peak — workload, cluster
// shape (executors AND cores) and the full cost-model parameters — so
// two runs differing only in, say, serialization factor or core count
// cannot alias to the same calibration. Params.RecordCost is a map, but
// fmt sorts map keys, so the fingerprint is deterministic.
func calibrateMemory(spec WorkloadSpec, execs, cores int, scale float64, params costmodel.Params) (int64, error) {
	key := fmt.Sprintf("%s/%d/%d/%g/%+v", spec.ID, execs, cores, scale, params)
	calMu.Lock()
	if v, ok := calCache[key]; ok {
		calMu.Unlock()
		return v, nil
	}
	calMu.Unlock()

	ctx := dataflow.NewContext()
	c, err := engine.NewCluster(engine.Config{
		Executors:         execs,
		CoresPerExecutor:  cores,
		MemoryPerExecutor: 1 << 40,
		Params:            params,
		Controller:        engine.NewSparkMemDisk(),
	}, ctx)
	if err != nil {
		return 0, err
	}
	spec.Annotated(ctx, scale)
	c.Finish()
	var peak int64
	for _, ex := range c.Executors() {
		if p := ex.Mem.PeakUsed(); p > peak {
			peak = p
		}
	}
	if peak < 4096 {
		peak = 4096
	}
	calMu.Lock()
	calCache[key] = peak
	calMu.Unlock()
	return peak, nil
}

// runPlan is everything a run derives from its RunConfig before it
// touches a cluster. Run, Server.Submit and sessions all build one with
// newPlan, so defaults, validation order and system construction cannot
// drift between them.
type runPlan struct {
	cfg    RunConfig // defaults applied
	spec   WorkloadSpec
	params costmodel.Params
	sys    systemSpec
	hook   engine.Hook
}

func planRun(cfg RunConfig) (*runPlan, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec, err := Workload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	return newPlan(cfg, spec)
}

// newPlan prices and builds a validated config for spec. A session
// passes a spec with no driver: its DAGs arrive window by window.
func newPlan(cfg RunConfig, spec WorkloadSpec) (*runPlan, error) {
	params := EvalParams(spec.SerFactor)
	if !cfg.CostParams.IsZero() {
		params = cfg.CostParams
	}
	sys, err := buildSystem(cfg, spec)
	if err != nil {
		return nil, err
	}
	p := &runPlan{cfg: cfg, spec: spec, params: params, sys: sys}
	if cfg.Faults != nil {
		p.hook = faults.New(*cfg.Faults)
	}
	return p, nil
}

// memory resolves the per-executor memory capacity: the explicit
// MemoryPerExecutor, or the calibrated peak times the memory fraction.
func (p *runPlan) memory() (int64, error) {
	if p.cfg.MemoryPerExecutor != 0 {
		return p.cfg.MemoryPerExecutor, nil
	}
	peak, err := calibrateMemory(p.spec, p.cfg.Executors, p.cfg.Cores, p.cfg.Scale, p.params)
	if err != nil {
		return 0, err
	}
	frac := p.cfg.MemoryFraction
	if frac == 0 {
		frac = p.spec.MemFraction
	}
	if frac == 0 {
		frac = 0.5
	}
	return max(int64(float64(peak)*frac), 2048), nil
}

// jobSpec is the plan as a job-server submission; a plan without a
// workload leaves the driver to a stream session.
func (p *runPlan) jobSpec(tenant string) server.JobSpec {
	job := server.JobSpec{
		Tenant:            tenant,
		Controller:        p.sys.ctl,
		Params:            p.params,
		AlluxioMode:       p.sys.alluxio,
		ProfilingOverhead: p.sys.profilingOverhead(),
		EventLog:          p.cfg.EventLog,
		Hook:              p.hook,
		Resilience:        p.cfg.Resilience,
		Parallelism:       p.cfg.Parallelism,
	}
	if p.spec.Plain != nil {
		job.Driver = func(ctx *dataflow.Context) { p.sys.drive(p.spec, ctx, p.cfg.Scale) }
	}
	return job
}

// serve starts the plan's private one-session server, sized (and, for
// RealBytes, backed) exactly like the requested cluster, and returns it
// with the job its one session runs: Run submits the job, a Session
// streams it.
func (p *runPlan) serve() (*server.Server, server.JobSpec, error) {
	mem, err := p.memory()
	if err != nil {
		return nil, server.JobSpec{}, err
	}
	srv, err := server.New(server.Config{
		Executors:         p.cfg.Executors,
		CoresPerExecutor:  p.cfg.Cores,
		MemoryPerExecutor: mem,
		RealBytes:         p.cfg.RealBytes,
	})
	return srv, p.jobSpec(""), err
}

// Run executes one workload under one system and returns its metrics.
//
// Run is a thin one-application session over the job server: it creates
// a private single-tenant Server sized (and, for RealBytes, backed)
// exactly like the requested cluster, submits the workload as its only
// session and waits for it. With one session the server layer adds
// nothing observable — no quotas, no arbitration, dataset ids starting
// at 0 — so the metrics and event log are bit-identical to a standalone
// engine.NewCluster running the same driver (TestServerRunBitIdentical
// holds the two together).
func Run(cfg RunConfig) (*Result, error) {
	p, err := planRun(cfg)
	if err != nil {
		return nil, err
	}
	return p.run()
}

// run executes the plan on its one-session server. Closing the server
// on every return removes a RealBytes run's block files whether the
// submission was refused, the session failed or it completed.
func (p *runPlan) run() (*Result, error) {
	srv, job, err := p.serve()
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	sess, err := srv.Submit(job)
	if err != nil {
		return nil, err
	}
	if err := sess.Wait(); err != nil {
		return nil, err
	}
	res := &Result{System: p.cfg.System, Workload: p.cfg.Workload, Metrics: sess.Metrics(), MemoryPerExecutor: sess.MemoryPerExecutor()}
	if meter := srv.Pool().Meter(); meter != nil {
		snap := StorageMeasurement(meter.Snapshot())
		res.Storage = &snap
	}
	return res, nil
}

// systemSpec is a system's row with its controller built.
type systemSpec struct {
	System
	// ctl makes the caching decisions.
	ctl engine.Controller
}

// profilingOverhead is the dependency-extraction time charged into the
// ACT of profiled systems.
func (s systemSpec) profilingOverhead() time.Duration {
	if s.profiled {
		return core.DefaultProfilingOverhead
	}
	return 0
}

// drive runs the workload's driver program the way the system needs it:
// with the user's cache annotations, or plain.
func (s systemSpec) drive(spec WorkloadSpec, ctx *dataflow.Context, scale float64) {
	if s.annotated {
		spec.Annotated(ctx, scale)
	} else {
		spec.Plain(ctx, scale)
	}
}

// buildSystem builds cfg.System's controller from its table row and
// applies the optimizer knobs: a positive DiskCapacity adds the Eq. 6
// disk row, and the ILPWindow sentinels map onto the controller's
// successor-job count (the zero value keeps its default of 1). A profiled
// system is seeded with spec's profiled skeleton; without a workload (a
// session) it builds its lineage on the run and charges no profiling.
func buildSystem(cfg RunConfig, spec WorkloadSpec) (systemSpec, error) {
	row, err := lookupSystem(cfg.System)
	if err != nil {
		return systemSpec{}, err
	}
	s := systemSpec{System: row, ctl: row.controller()}
	s.profiled = row.profiled && spec.Plain != nil
	if b, ok := s.ctl.(*core.Controller); ok {
		if cfg.DiskCapacity > 0 {
			b.WithDiskCapacity(cfg.DiskCapacity)
		}
		switch {
		case cfg.ILPWindow > 0:
			b.WithWindow(cfg.ILPWindow)
		case cfg.ILPWindow == ILPWindowCurrentJobOnly:
			b.WithWindow(0)
		}
		if s.profiled {
			b.WithSkeleton(core.Profile(core.Workload(spec.Plain), cfg.ProfileScale))
		}
	}
	return s, nil
}
