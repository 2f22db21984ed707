package blaze_test

import (
	"fmt"
	"strings"
	"testing"

	"blaze"
	"blaze/internal/eventlog"
)

func runArm(t *testing.T, sys blaze.SystemID, wl blaze.WorkloadID, par int, declined bool, faults *blaze.FaultConfig) (*blaze.Result, *blaze.EventLog) {
	t.Helper()
	return runArmCfg(t, blaze.RunConfig{System: sys, Workload: wl, Parallelism: par, Faults: faults}, declined)
}

// runArmCfg runs cfg at the sweep's cluster shape with a fresh event log,
// with released pool arrays poisoned: the default run, or with declined
// the reference arm, every kernel declined.
func runArmCfg(t *testing.T, cfg blaze.RunConfig, declined bool) (*blaze.Result, *blaze.EventLog) {
	t.Helper()
	poisonPools(t)
	cfg.Executors, cfg.Scale, cfg.EventLog = 4, 0.25, blaze.NewEventLog()
	var res *blaze.Result
	var err error
	run := func() { res, err = blaze.Run(cfg) }
	if declined {
		withKernelsDeclined(run)
	} else {
		run()
	}
	if err != nil {
		t.Fatalf("%s/%s parallelism=%d declined=%v realBytes=%v: %v",
			cfg.System, cfg.Workload, cfg.Parallelism, declined, cfg.RealBytes, err)
	}
	return res, cfg.EventLog
}

// TestVectorizedIdentity is the columnar form's core guarantee: a
// partition's form changes only wall-clock time. For every registered
// system, the default run at Parallelism 1 and 8 must produce
// bit-identical virtual-time metrics AND an identical event log to the
// reference arm, where every dataset runs its row function. The P8 run
// sets the deprecated Vectorized, which nothing reads.
func TestVectorizedIdentity(t *testing.T) {
	for _, wl := range []blaze.WorkloadID{blaze.PR, blaze.KMeans} {
		for _, sys := range allSystems() {
			sys, wl := sys, wl
			t.Run(fmt.Sprintf("%s/%s", wl, sys), func(t *testing.T) {
				refRes, refLog := runArm(t, sys, wl, 1, true, nil)
				res, log := runArm(t, sys, wl, 1, false, nil)
				assertIdentical(t, fmt.Sprintf("%s/%s/P1", wl, sys), refRes, res, refLog, log)
				res8, log8 := runArmCfg(t, blaze.RunConfig{System: sys, Workload: wl, Parallelism: 8, Vectorized: true}, false)
				assertIdentical(t, fmt.Sprintf("%s/%s/P8", wl, sys), refRes, res8, refLog, log8)
			})
		}
	}
	// RealBytes: every cached block is encoded, and a read decodes it into
	// columns, so here the k-means kernels run too. The memory fraction is
	// low enough that every case spills; Blaze is there because its cost
	// lineage reacts to every controller callback, where the LRU of
	// spark-memdisk ignores some (and Blaze never spills k-means).
	for _, c := range []struct {
		wl          blaze.WorkloadID
		sys         blaze.SystemID
		kernelInput string
	}{
		{blaze.PR, blaze.SysSparkMemDisk, "pr-graph@"},
		{blaze.PR, blaze.SysBlaze, "pr-graph@"},
		{blaze.KMeans, blaze.SysSparkMemDisk, "km-points@"},
	} {
		label := fmt.Sprintf("%s/%s/realbytes", c.wl, c.sys)
		t.Run(label, func(t *testing.T) {
			assertRealBytesIdentity(t, blaze.RunConfig{System: c.sys, Workload: c.wl}, c.kernelInput)
		})
	}
}

// assertRealBytesIdentity runs cfg on spilling real-bytes stores with
// and without kernels, and requires identical metrics and events. It
// fails unless the default run read back a cached block of kernelInput,
// the datasets a kernel maps over: decoded, that block is columnar, so
// the kernel ran on it instead of the row function.
func assertRealBytesIdentity(t *testing.T, cfg blaze.RunConfig, kernelInput string) {
	t.Helper()
	cfg.MemoryFraction, cfg.RealBytes = 0.1, true
	refRes, refLog := runArmCfg(t, cfg, true)
	res, log := runArmCfg(t, cfg, false)
	assertIdentical(t, fmt.Sprintf("%s/%s/realbytes", cfg.Workload, cfg.System), refRes, res, refLog, log)
	if written, _ := refRes.DiskFootprint(); written == 0 {
		t.Error("run did not spill; lower MemoryFraction")
	}
	if cachedReads(log, kernelInput) == 0 {
		t.Errorf("no cached %s* block was read back: no kernel saw a decoded, columnar input", kernelInput)
	}
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

// TestVectorizedIdentitySVDPP extends the sweep to the
// serialization-heavy workload whose kernels mix typed columns
// (Factors) with the boxed escape hatch (RatingList, []any pairs). Its
// sources are row functions, so only real bytes give the item-factor
// step kernel a columnar input: a cached factor block read back decoded.
func TestVectorizedIdentitySVDPP(t *testing.T) {
	for _, sys := range []blaze.SystemID{blaze.SysSparkMemDisk, blaze.SysMRD, blaze.SysBlaze} {
		sys := sys
		t.Run(string(sys), func(t *testing.T) {
			refRes, refLog := runArm(t, sys, blaze.SVDPP, 1, true, nil)
			res, log := runArm(t, sys, blaze.SVDPP, 8, false, nil)
			assertIdentical(t, string(sys), refRes, res, refLog, log)
		})
		t.Run(string(sys)+"/realbytes", func(t *testing.T) {
			assertRealBytesIdentity(t, blaze.RunConfig{System: sys, Workload: blaze.SVDPP}, "svd-itemf@")
		})
	}
}

// TestVectorizedIdentityUnderFaults repeats the identity check with the
// exec-death and bucket-loss fault classes active: the recovery paths
// (regeneration, recompute, fault accounting) must issue identical
// charges and events whatever form the regenerated partitions take.
func TestVectorizedIdentityUnderFaults(t *testing.T) {
	systems := []blaze.SystemID{blaze.SysSparkMemDisk, blaze.SysMRD, blaze.SysBlaze}
	for _, class := range []blaze.FaultClass{blaze.FaultExecutorDeath, blaze.FaultBucketLoss} {
		for _, sys := range systems {
			class, sys := class, sys
			t.Run(fmt.Sprintf("%s/%s", class, sys), func(t *testing.T) {
				fc := &blaze.FaultConfig{Seed: 7, Every: 3, Classes: []blaze.FaultClass{class}}
				refRes, refLog := runArm(t, sys, blaze.PR, 1, true, fc)
				res, log := runArm(t, sys, blaze.PR, 8, false, fc)
				if refRes.Metrics.FaultsInjected == 0 {
					t.Fatalf("fault schedule injected nothing; raise Rate")
				}
				assertIdentical(t, fmt.Sprintf("%s/%s", class, sys), refRes, res, refLog, log)
			})
		}
	}
}

// TestVectorizedPathEngages guards against the identity sweeps passing
// vacuously. Nothing in metrics or events shows which form a partition
// took — that is the point — so allocations are the witness: the
// PageRank run TestEnginePRAllocCeiling keeps under its ceiling must
// exceed it with every kernel declined, where every record is boxed.
func TestVectorizedPathEngages(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is noisy under -short harnesses")
	}
	var got float64
	withKernelsDeclined(func() { got = prAllocsPerVertexIter(t) })
	t.Logf("%.2f allocations per vertex-iteration with every kernel declined", got)
	if got <= prAllocCeiling {
		t.Fatalf("with every kernel declined, PageRank allocates %.2f times per vertex-iteration, within the kernels' ceiling %.1f: the ceiling no longer tells the forms apart",
			got, prAllocCeiling)
	}
}

// TestVectorizedStreamIdentity extends the guarantee to micro-batch
// streaming: N windows of the default session must be bit-equal to the
// reference arm's, including per-window stats and boundary events.
func TestVectorizedStreamIdentity(t *testing.T) {
	poisonPools(t)
	run := func() (*blaze.StreamResult, *blaze.EventLog) {
		log := blaze.NewEventLog()
		res, err := blaze.RunStream(blaze.StreamConfig{
			Workload:          blaze.StreamPR,
			Windows:           3,
			Scale:             0.25,
			Executors:         4,
			Parallelism:       4,
			MemoryPerExecutor: 1 << 20,
			EventLog:          log,
		})
		if err != nil {
			t.Fatalf("declined=%v: %v", declineKernels, err)
		}
		return res, log
	}
	var refRes *blaze.StreamResult
	var refLog *blaze.EventLog
	withKernelsDeclined(func() { refRes, refLog = run() })
	res, log := run()
	if !blaze.MetricsEqualDeterministic(refRes.Metrics, res.Metrics) {
		t.Errorf("metrics differ from the reference stream\nref: %+v\ngot: %+v",
			refRes.Metrics, res.Metrics)
	}
	re, ge := refLog.Events(), log.Events()
	if len(re) != len(ge) {
		t.Fatalf("event counts differ: ref=%d got=%d", len(re), len(ge))
	}
	for i := range re {
		if re[i] != ge[i] {
			t.Fatalf("event %d differs:\nref: %+v\ngot: %+v", i, re[i], ge[i])
		}
	}
	if len(refRes.Windows) != len(res.Windows) {
		t.Fatalf("window counts differ: ref=%d got=%d", len(refRes.Windows), len(res.Windows))
	}
	for i := range refRes.Windows {
		if !refRes.Windows[i].EqualDeterministic(res.Windows[i]) {
			t.Errorf("window %d stats differ:\nref: %+v\ngot: %+v", i, refRes.Windows[i], res.Windows[i])
		}
	}
}
