package blaze_test

// The bit-identity matrix. Caching, eviction and recovery decisions
// must not depend on how a block is held or a task is run. A cell is one
// configuration (system, workload, cluster shape, memory, faults, disk
// cap); an arm is one way to run it, along five axes: Parallelism 1 or
// 8, kernels declined or on, virtual or RealBytes stores, the job server
// or a standalone cluster, and for streams no durability, a checkpoint
// at every boundary, or a crash at boundary k and a resume. Every arm of
// a cell must reproduce its reference arm — Parallelism 1, every kernel
// declined, virtual stores, the server path, not durable — as assertSame
// defines it. Every run verifies cached costs against fresh ones and
// poisons released pool arrays. A reference run is memoized by
// configuration, so several tests share it; every other arm runs each
// time a test asks for it.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"blaze"
	"blaze/internal/core"
	"blaze/internal/eventlog"
	"blaze/internal/storage"
)

// arm is one way of running a cell.
type arm struct {
	par        int
	kernels    bool // false: every kernel declined
	real       bool // RealBytes stores
	standalone bool // a standalone engine cluster instead of the job server
	durable    bool // stream: checkpoint at every boundary
	// crash > 0 crashes a stream at that boundary, the crashed leg with
	// kernels per crashKernels, and resumes it under the arm.
	crash        int
	crashKernels bool
}

var (
	refArm = arm{par: 1}
	p1     = arm{par: 1, kernels: true}
	p8     = arm{par: 8, kernels: true}
)

// outcome is one run as the comparer sees it.
type outcome struct {
	arm         arm
	res         *blaze.Result
	log         *blaze.EventLog
	windows     []blaze.WindowStats
	checkpoints []blaze.CheckpointStat
	recovery    *blaze.EventLog // crash arms: the resume's recovery log
}

// streamOutcome is a stream run's outcome under a.
func streamOutcome(a arm, res *blaze.StreamResult, log *blaze.EventLog) *outcome {
	return &outcome{arm: a, res: &res.Result, log: log, windows: res.Windows, checkpoints: res.Checkpoints}
}

// cell is one configuration of the matrix.
type cell interface {
	run(t *testing.T, a arm) *outcome
}

// batchCell runs through blaze.Run, or blaze.StandaloneRun on a
// standalone arm.
type batchCell blaze.RunConfig

// streamCell runs through blaze.RunStream, and blaze.ResumeStream after
// a crash arm's crash.
type streamCell blaze.StreamConfig

func (c batchCell) run(t *testing.T, a arm) *outcome {
	t.Helper()
	cfg := blaze.RunConfig(c)
	cfg.Parallelism, cfg.RealBytes = a.par, a.real
	key := cfg
	key.Faults = nil
	return memoized(t, fmt.Sprintf("run %+v %+v", key, cfg.Faults), a, func() *outcome {
		cfg.EventLog = blaze.NewEventLog()
		run := blaze.Run
		if a.standalone {
			run = blaze.StandaloneRun
		}
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s/%s under %+v: %v", cfg.System, cfg.Workload, a, err)
		}
		return &outcome{res: res, log: cfg.EventLog}
	})
}

func (c streamCell) run(t *testing.T, a arm) *outcome {
	t.Helper()
	cfg := blaze.StreamConfig(c)
	cfg.Parallelism = a.par
	return memoized(t, fmt.Sprintf("stream %+v", cfg), a, func() *outcome {
		cfg.EventLog = blaze.NewEventLog()
		open := blaze.RunStream
		if a.durable {
			cfg.CheckpointDir = t.TempDir()
		}
		if a.crash > 0 {
			declineKernels = !a.crashKernels
			cfg, open = crashAt(t, cfg, a.crash), blaze.ResumeStream
			declineKernels = !a.kernels
		}
		res, err := open(cfg)
		if err != nil {
			t.Fatalf("%s under %+v: %v", cfg.Workload, a, err)
		}
		o := streamOutcome(a, res, cfg.EventLog)
		o.recovery = cfg.RecoveryLog
		return o
	})
}

// crashAt runs cfg, checkpointing into a fresh directory, until it
// crashes at boundary k, and returns cfg ready to resume: the same
// directory and CrashWindow (the crashed boundary replays, so the
// trigger does not fire again), fresh event and recovery logs.
func crashAt(t *testing.T, cfg blaze.StreamConfig, k int) blaze.StreamConfig {
	t.Helper()
	cfg.CheckpointDir, cfg.CrashWindow, cfg.EventLog = t.TempDir(), k, blaze.NewEventLog()
	if _, err := blaze.RunStream(cfg); !errors.Is(err, blaze.ErrSessionCrashed) {
		t.Fatalf("crash at boundary %d: got err %v, want ErrSessionCrashed", k, err)
	}
	cfg.EventLog, cfg.RecoveryLog = blaze.NewEventLog(), blaze.NewEventLog()
	return cfg
}

// refs memoizes the reference arm's outcome of every configuration run
// in the process. The reference is sequential, so its outcome is the
// same every time; the other arms run each time, so -count=N repeats
// their interleavings.
var refs = map[string]*outcome{}

// memoized returns the outcome of the run key names under a, calling run
// with every kernel declined unless a says otherwise, cached costs
// verified and released pool arrays poisoned. A reference arm runs only
// the first time.
func memoized(t *testing.T, key string, a arm, run func() *outcome) *outcome {
	t.Helper()
	if o, ok := refs[key]; ok && a == refArm {
		return o
	}
	declineKernels, poisonReleased = !a.kernels, true
	core.VerifyCachedCosts(true)
	defer func() {
		declineKernels, poisonReleased = false, false
		core.VerifyCachedCosts(false)
	}()
	o := run()
	o.arm = a
	if a == refArm {
		refs[key] = o
	}
	return o
}

// match runs c under the reference arm and each of arms, requires every
// arm to reproduce the reference, and returns the reference's outcome
// and the arms'.
func match(t *testing.T, c cell, arms ...arm) (*outcome, []*outcome) {
	t.Helper()
	ref := c.run(t, refArm)
	outs := make([]*outcome, len(arms))
	for i, a := range arms {
		outs[i] = c.run(t, a)
		assertSame(t, ref, outs[i])
	}
	return ref, outs
}

// assertSame is the matrix's one comparer. got must reproduce ref bit
// for bit: every deterministic metric, the memory per executor, the
// event log event for event and as JSON lines, and every window's
// stats. Each side must also report storage measurements exactly when
// it ran on real bytes, and log every solve its metrics book.
func assertSame(t *testing.T, ref, got *outcome) {
	t.Helper()
	for _, o := range []*outcome{ref, got} {
		if (o.res.Storage != nil) != o.arm.real {
			t.Errorf("%+v: reports storage measurements = %v, want them exactly on real bytes", o.arm, o.res.Storage != nil)
		}
		assertLogBooksMetrics(t, fmt.Sprintf("%+v", o.arm), o.res.Metrics, o.log)
	}
	label := fmt.Sprintf("%+v against the reference %+v", got.arm, ref.arm)
	if !blaze.MetricsEqualDeterministic(ref.res.Metrics, got.res.Metrics) {
		t.Errorf("%s: metrics differ\nref: %+v\ngot: %+v", label, ref.res.Metrics, got.res.Metrics)
	}
	if ref.res.MemoryPerExecutor != got.res.MemoryPerExecutor {
		t.Errorf("%s: memory per executor differs: ref %d, got %d", label, ref.res.MemoryPerExecutor, got.res.MemoryPerExecutor)
	}
	re, ge := ref.log.Events(), got.log.Events()
	if len(re) != len(ge) {
		t.Errorf("%s: event counts differ: ref=%d got=%d", label, len(re), len(ge))
	}
	for i := range min(len(re), len(ge)) {
		if re[i] != ge[i] {
			t.Errorf("%s: event %d differs:\nref: %+v\ngot: %+v", label, i, re[i], ge[i])
			break
		}
	}
	var lines [2]bytes.Buffer
	for i, log := range []*blaze.EventLog{ref.log, got.log} {
		if err := log.WriteJSON(&lines[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(lines[0].Bytes(), lines[1].Bytes()) {
		t.Errorf("%s: the event logs' JSON lines differ", label)
	}
	if len(ref.windows) != len(got.windows) {
		t.Errorf("%s: window counts differ: ref=%d got=%d", label, len(ref.windows), len(got.windows))
	}
	for i := range min(len(ref.windows), len(got.windows)) {
		if !ref.windows[i].EqualDeterministic(got.windows[i]) {
			t.Errorf("%s: window %d stats differ:\nref: %+v\ngot: %+v", label, i+1, ref.windows[i], got.windows[i])
		}
	}
}

// solveBook is the optimizer accounting of a run, booked in its metrics
// or counted from its event log.
type solveBook struct {
	solves, deltaSolves, repairSolves int
	nodes, deltaNodes, repairNodes    int
	fallbacks                         int
}

// assertLogBooksMetrics requires an event log to agree with the metrics
// booked beside it: one ilp_solve, ilp_delta_solve or ilp_repair_solve
// event per solve of that kind, carrying the nodes and fallbacks booked.
func assertLogBooksMetrics(t *testing.T, label string, m *blaze.Metrics, log *blaze.EventLog) {
	t.Helper()
	var logged solveBook
	for _, e := range log.Events() {
		switch e.Kind {
		case eventlog.ILPSolve:
			logged.solves++
		case eventlog.ILPDeltaSolve:
			logged.deltaSolves++
			logged.deltaNodes += e.Nodes
		case eventlog.ILPRepairSolve:
			logged.repairSolves++
			logged.repairNodes += e.Nodes
			continue
		default:
			continue
		}
		logged.nodes += e.Nodes
		if e.Fallback {
			logged.fallbacks++
		}
	}
	booked := solveBook{m.ILPSolves, m.ILPDeltaSolves, m.RepairSolves, m.ILPNodes, m.ILPDeltaNodes, m.RepairNodes, m.ILPFallbacks}
	if logged != booked {
		t.Errorf("%s: the event log books %+v, the metrics %+v", label, logged, booked)
	}
}

// allSystems lists every registered system id, including a
// conventional-policy system.
func allSystems() []blaze.SystemID {
	return []blaze.SystemID{
		blaze.SysSparkMem, blaze.SysSparkMemDisk, blaze.SysSparkAlluxio,
		blaze.SysLRC, blaze.SysMRD, blaze.SysLRCMem, blaze.SysMRDMem,
		blaze.SysAutoCache, blaze.SysCostAware,
		blaze.SysBlaze, blaze.SysBlazeMem, blaze.SysBlazeNoProfile,
		blaze.PolicySystem("tinylfu"),
	}
}

// sweepSystems are the narrower sweeps' systems: an LRU, a
// reference-distance and the cost-based controller.
var sweepSystems = []blaze.SystemID{blaze.SysSparkMemDisk, blaze.SysMRD, blaze.SysBlaze}

// quarter is the sweeps' batch cell: quarter scale on 4 executors.
func quarter(sys blaze.SystemID, wl blaze.WorkloadID) blaze.RunConfig {
	return blaze.RunConfig{System: sys, Workload: wl, Executors: 4, Scale: 0.25}
}

// quarterStream is the stream cell: 4 windows at quarter scale on 4
// executors of 1 MiB each. A positive disk caps each executor's disk
// tier, so every solve runs the exact three-state ILP.
func quarterStream(wl blaze.StreamWorkloadID, disk int64) blaze.StreamConfig {
	return blaze.StreamConfig{Workload: wl, Windows: 4, Scale: 0.25, Executors: 4, Parallelism: 1,
		MemoryPerExecutor: 1 << 20, DiskCapacity: disk}
}

// faulty attaches a permanent fault schedule of one class to cfg.
func faulty(cfg blaze.RunConfig, class blaze.FaultClass) blaze.RunConfig {
	cfg.Faults = &blaze.FaultConfig{Seed: 7, Every: 3, Classes: []blaze.FaultClass{class}}
	return cfg
}

// cachedReads counts the memory and disk hits on blocks of the datasets
// whose names start with prefix.
func cachedReads(log *blaze.EventLog, prefix string) int {
	n := 0
	for _, e := range log.Events() {
		if (e.Kind == eventlog.BlockHit || e.Kind == eventlog.BlockDiskHit) && strings.HasPrefix(e.DatasetNm, prefix) {
			n++
		}
	}
	return n
}

// TestParallelMetricsIdentity: executing stages on concurrent workers
// changes only wall-clock time, for every registered system.
func TestParallelMetricsIdentity(t *testing.T) {
	for _, sys := range allSystems() {
		t.Run(string(sys), func(t *testing.T) { match(t, batchCell(quarter(sys, blaze.PR)), p1, p8) })
	}
}

// TestParallelMetricsIdentityUnderFaults and
// TestVectorizedIdentityUnderFaults run the same cells: with executor
// deaths or lost map-output buckets, recovery (migration, regeneration,
// recompute, fault accounting) must issue identical charges and events
// at any Parallelism and whatever form the regenerated partitions take.
func TestParallelMetricsIdentityUnderFaults(t *testing.T) { underFaults(t) }

func TestVectorizedIdentityUnderFaults(t *testing.T) { underFaults(t) }

func underFaults(t *testing.T) {
	for _, class := range []blaze.FaultClass{blaze.FaultExecutorDeath, blaze.FaultBucketLoss} {
		for _, sys := range sweepSystems {
			t.Run(fmt.Sprintf("%s/%s", class, sys), func(t *testing.T) {
				ref, _ := match(t, batchCell(faulty(quarter(sys, blaze.PR), class)), p1, p8)
				if ref.res.Metrics.FaultsInjected == 0 {
					t.Fatal("fault schedule injected nothing; raise Rate")
				}
			})
		}
	}
}

// TestVectorizedIdentity: a partition's form changes only wall-clock
// time, for every registered system. The P8 run sets the deprecated
// Vectorized, which nothing reads. The realbytes rows run on spilling
// real-bytes stores, where a read decodes a cached block into columns,
// so the k-means kernels run too; Blaze is there because its cost
// lineage reacts to every controller callback, where the LRU of
// spark-memdisk ignores some (and Blaze never spills k-means).
func TestVectorizedIdentity(t *testing.T) {
	for _, wl := range []blaze.WorkloadID{blaze.PR, blaze.KMeans} {
		for _, sys := range allSystems() {
			t.Run(fmt.Sprintf("%s/%s", wl, sys), func(t *testing.T) {
				cfg := quarter(sys, wl)
				ref, _ := match(t, batchCell(cfg), p1)
				cfg.Vectorized = true
				assertSame(t, ref, batchCell(cfg).run(t, p8))
			})
		}
	}
	for _, c := range []struct {
		wl          blaze.WorkloadID
		sys         blaze.SystemID
		kernelInput string
	}{
		{blaze.PR, blaze.SysSparkMemDisk, "pr-graph@"},
		{blaze.PR, blaze.SysBlaze, "pr-graph@"},
		{blaze.KMeans, blaze.SysSparkMemDisk, "km-points@"},
	} {
		t.Run(fmt.Sprintf("%s/%s/realbytes", c.wl, c.sys), func(t *testing.T) { realBytesKernels(t, c.sys, c.wl, c.kernelInput) })
	}
}

// realBytesKernels runs a cell on spilling real-bytes stores with and
// without kernels. It fails unless the default run read back a cached
// block of kernelInput, the datasets a kernel maps over: decoded, that
// block is columnar, so the kernel ran on it instead of the row function.
func realBytesKernels(t *testing.T, sys blaze.SystemID, wl blaze.WorkloadID, kernelInput string) {
	cfg := quarter(sys, wl)
	cfg.MemoryFraction = 0.1
	ref, _ := match(t, batchCell(cfg), arm{par: 1, real: true}, arm{par: 1, kernels: true, real: true})
	if ref.res.Metrics.DiskBytesWritten == 0 {
		t.Error("run did not spill; lower MemoryFraction")
	}
	// The logs are identical, so the reference's shows the default run's
	// reads too.
	if cachedReads(ref.log, kernelInput) == 0 {
		t.Errorf("no cached %s* block was read back: no kernel saw a decoded, columnar input", kernelInput)
	}
}

// TestVectorizedIdentitySVDPP extends the kernel sweep to the
// serialization-heavy workload, which has no kernel of its own: every
// value it caches (factors, RatingList, []any pairs) takes the gob
// fallback, so under real bytes a cached factor block reads back in row
// form.
func TestVectorizedIdentitySVDPP(t *testing.T) {
	for _, sys := range sweepSystems {
		t.Run(string(sys), func(t *testing.T) { match(t, batchCell(quarter(sys, blaze.SVDPP)), p8) })
		t.Run(string(sys)+"/realbytes", func(t *testing.T) { realBytesKernels(t, sys, blaze.SVDPP, "svd-itemf@") })
	}
}

// TestRealBytesBitIdentity: backing the stores with real serialized
// bytes and real block files changes only wall-clock time — every
// admission, eviction, spill, promotion and recomputation decision is
// unaffected by how blocks are held.
func TestRealBytesBitIdentity(t *testing.T) {
	for _, sys := range []blaze.SystemID{blaze.SysSparkMemDisk, blaze.SysSparkAlluxio, blaze.SysMRD, blaze.SysBlaze} {
		t.Run(string(sys), func(t *testing.T) {
			match(t, batchCell(quarter(sys, blaze.PR)), p8, arm{par: 8, kernels: true, real: true})
		})
	}
}

// TestRealBytesIdentityUnderFaults crosses real bytes with every
// permanent fault class: a lost cache, block, executor or bucket is
// recovered from real block files and real encoded map outputs with the
// charges and events of the virtual reference.
func TestRealBytesIdentityUnderFaults(t *testing.T) {
	classes := []blaze.FaultClass{blaze.FaultExecutorCacheLoss, blaze.FaultBlockLoss, blaze.FaultExecutorDeath, blaze.FaultBucketLoss}
	for _, class := range classes {
		for _, sys := range sweepSystems {
			for _, wl := range []blaze.WorkloadID{blaze.PR, blaze.KMeans} {
				t.Run(fmt.Sprintf("%s/%s/%s", class, sys, wl), func(t *testing.T) {
					cfg := faulty(quarter(sys, wl), class)
					cfg.MemoryFraction = 0.25
					ref, _ := match(t, batchCell(cfg), arm{par: 8, kernels: true, real: true})
					if ref.res.Metrics.FaultsInjected == 0 {
						t.Fatal("fault schedule injected nothing")
					}
				})
			}
		}
	}
}

// TestServerRunBitIdentical: Run executes every application as the one
// session of a private job server, and must reproduce a standalone
// engine cluster running the same plan, for every Fig. 9 system. The
// realbytes rows run under memory pressure so every storage category
// (encode, decode, file write, file read) does measured work; PR, KMeans
// and SVD++ blocks are typed columnar bytes, LR's LabeledPoint blocks
// (and SVD++'s ratings) take the gob fallback end to end.
func TestServerRunBitIdentical(t *testing.T) {
	for _, w := range []blaze.WorkloadID{blaze.PR, blaze.KMeans} {
		for _, sys := range blaze.Fig9Systems() {
			for _, par := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/par%d", w, sys, par), func(t *testing.T) {
					match(t, batchCell{System: sys, Workload: w, Scale: 0.25},
						arm{par: par, kernels: true, standalone: true}, arm{par: par, kernels: true})
				})
			}
		}
	}
	for _, w := range []blaze.WorkloadID{blaze.PR, blaze.KMeans, blaze.SVDPP, blaze.LR} {
		for _, sys := range []blaze.SystemID{blaze.SysSparkMemDisk, blaze.SysSparkAlluxio, blaze.SysBlaze} {
			t.Run(fmt.Sprintf("%s/%s/realbytes", w, sys), func(t *testing.T) {
				_, outs := match(t, batchCell{System: sys, Workload: w, Scale: 0.25, MemoryFraction: 0.25},
					arm{par: 8, kernels: true, real: true, standalone: true}, arm{par: 8, kernels: true, real: true})
				// Blaze keeps LR off the disk at any memory size (recomputing
				// a points partition is cheaper than writing it), so on that
				// row only the memory tier's codec work is there to measure.
				noDisk := w == blaze.LR && sys == blaze.SysBlaze
				for _, c := range outs[1].res.Storage.Categories() {
					if noDisk && (c.Category == storage.DiskWrite || c.Category == storage.DiskRead) {
						continue
					}
					if c.Stats.Ops == 0 || c.Stats.Bytes == 0 || c.Stats.Wall <= 0 {
						t.Errorf("category %d not measured on the server path: %+v", c.Category, c.Stats)
					}
				}
			})
		}
	}
}

// TestVectorizedStreamIdentity: N windows of a micro-batch session
// reproduce the reference with kernels declined or on, per-window stats
// and boundary events included.
func TestVectorizedStreamIdentity(t *testing.T) {
	cfg := quarterStream(blaze.StreamPR, 0)
	cfg.Windows = 3
	match(t, streamCell(cfg), arm{par: 4}, arm{par: 4, kernels: true})
}

// TestStreamWindowDeterminism: N windows through a Session reproduce the
// reference at Parallelism 1 and 8, and checkpointing every boundary
// perturbs nothing.
func TestStreamWindowDeterminism(t *testing.T) {
	for _, wl := range blaze.AllStreamWorkloads() {
		t.Run(string(wl), func(t *testing.T) {
			ref, outs := match(t, streamCell(quarterStream(wl, 0)), p1, p8, arm{par: 8, kernels: true, durable: true})
			m := ref.res.Metrics
			windows, retired, deltas := m.WindowsRun, m.PartitionsRetired, m.ILPDeltaSolves
			if windows != 4 {
				t.Errorf("WindowsRun = %d, want 4", windows)
			}
			if retired == 0 {
				t.Error("no partitions retired: windowed lifetime management inactive")
			}
			if deltas == 0 {
				t.Error("no re-solves ran at window boundaries")
			}
			if got := len(outs[2].checkpoints); got != 3 {
				t.Errorf("durable run committed %d checkpoints, want one per boundary (3)", got)
			}
		})
	}
}

// TestStreamCrashResumeBitIdentity is the recovery layer's headline
// invariant: a streaming session killed at ANY window boundary and
// resumed from its checkpoint reproduces the reference, which never
// checkpoints — at Parallelism 1 and 8, on the knapsack path and
// (diskcap: 1 MiB per executor) through the exact ILP.
func TestStreamCrashResumeBitIdentity(t *testing.T) {
	for _, wl := range blaze.AllStreamWorkloads() {
		for _, disk := range []int64{0, 1 << 20} {
			for _, par := range []int{1, 8} {
				// Every boundary k (window 1 has no boundary checkpoint).
				for k := 2; k <= 4; k++ {
					name := fmt.Sprintf("%s/p%d/k%d", wl, par, k)
					if disk > 0 {
						name += "/diskcap"
					}
					t.Run(name, func(t *testing.T) {
						_, outs := match(t, streamCell(quarterStream(wl, disk)),
							arm{par: par, kernels: true}, arm{par: par, kernels: true, crash: k, crashKernels: true})
						assertResumedAt(t, outs[1], k)
					})
				}
			}
		}
	}
}

// assertResumedAt checks a run resumed at boundary k of 4: it committed
// the remaining boundaries itself, each with real carried state, and —
// the resumed cluster being the checkpointed one — repaired no plan.
func assertResumedAt(t *testing.T, o *outcome, k int) {
	t.Helper()
	if got, want := len(o.checkpoints), 4-k; got != want {
		t.Errorf("resumed run committed %d checkpoints, want %d", got, want)
	}
	for _, ck := range o.checkpoints {
		if ck.Window <= k || ck.Blocks == 0 || ck.Bytes == 0 {
			t.Errorf("implausible checkpoint after resume at %d: %+v", k, ck)
		}
	}
	if o.res.Metrics.RepairSolves != 0 {
		t.Errorf("resume ran %d plan-repair solves, want none", o.res.Metrics.RepairSolves)
	}
	var resumed, repairs int
	for _, e := range o.recovery.Events() {
		switch e.Kind {
		case eventlog.SessionResumed:
			resumed++
			if e.Window != k {
				t.Errorf("session_resumed at window %d, want %d", e.Window, k)
			}
		case eventlog.ILPRepairSolve:
			repairs++
		}
	}
	if resumed != 1 {
		t.Errorf("recovery log holds %d session_resumed events, want 1", resumed)
	}
	if repairs != 0 {
		t.Errorf("recovery log holds %d ilp_repair_solve events, want none", repairs)
	}
}
