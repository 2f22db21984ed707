package blaze_test

import (
	"fmt"
	"testing"

	"blaze"
)

func runVec(t *testing.T, sys blaze.SystemID, wl blaze.WorkloadID, par int, vec bool, faults *blaze.FaultConfig) (*blaze.Result, *blaze.EventLog) {
	t.Helper()
	return runVecCfg(t, blaze.RunConfig{System: sys, Workload: wl, Parallelism: par, Vectorized: vec, Faults: faults})
}

// runVecCfg runs cfg at the sweep's cluster shape with a fresh event log.
func runVecCfg(t *testing.T, cfg blaze.RunConfig) (*blaze.Result, *blaze.EventLog) {
	t.Helper()
	cfg.Executors, cfg.Scale, cfg.EventLog = 4, 0.25, blaze.NewEventLog()
	res, err := blaze.Run(cfg)
	if err != nil {
		t.Fatalf("%s/%s parallelism=%d vectorized=%v realBytes=%v: %v",
			cfg.System, cfg.Workload, cfg.Parallelism, cfg.Vectorized, cfg.RealBytes, err)
	}
	return res, cfg.EventLog
}

// TestVectorizedIdentity is the columnar plane's core guarantee:
// running eligible stages on typed batches instead of boxed rows changes
// only wall-clock time. For every registered system, a Vectorized run at
// Parallelism 1 and 8 must produce bit-identical virtual-time metrics
// AND an identical event log to the row run. The task loop is written
// once over both planes (internal/engine/vectorized.go); this sweep
// catches a plane whose container operations are not observationally
// equal to the row plane's.
func TestVectorizedIdentity(t *testing.T) {
	for _, wl := range []blaze.WorkloadID{blaze.PR, blaze.KMeans} {
		for _, sys := range allSystems() {
			sys, wl := sys, wl
			t.Run(fmt.Sprintf("%s/%s", wl, sys), func(t *testing.T) {
				rowRes, rowLog := runVec(t, sys, wl, 1, false, nil)
				vecRes, vecLog := runVec(t, sys, wl, 1, true, nil)
				assertIdentical(t, fmt.Sprintf("%s/%s/P1", wl, sys), rowRes, vecRes, rowLog, vecLog)
				vec8Res, vec8Log := runVec(t, sys, wl, 8, true, nil)
				assertIdentical(t, fmt.Sprintf("%s/%s/P8", wl, sys), rowRes, vec8Res, rowLog, vec8Log)
			})
		}
	}
	// RealBytes × Vectorized: the direct path hands both flags to one
	// engine, so batches box into gob-encoded memory blocks and spill
	// files. The memory fraction is low enough that every case spills;
	// Blaze is there because its cost lineage reacts to every controller
	// callback, where the LRU of spark-memdisk ignores some (and Blaze
	// never spills k-means).
	for _, c := range []struct {
		wl  blaze.WorkloadID
		sys blaze.SystemID
	}{{blaze.PR, blaze.SysSparkMemDisk}, {blaze.PR, blaze.SysBlaze}, {blaze.KMeans, blaze.SysSparkMemDisk}} {
		label := fmt.Sprintf("%s/%s/realbytes", c.wl, c.sys)
		t.Run(label, func(t *testing.T) {
			cfg := blaze.RunConfig{System: c.sys, Workload: c.wl, MemoryFraction: 0.1, RealBytes: true}
			rowRes, rowLog := runVecCfg(t, cfg)
			cfg.Vectorized = true
			before := blaze.VecTasksExecuted()
			vecRes, vecLog := runVecCfg(t, cfg)
			assertIdentical(t, label, rowRes, vecRes, rowLog, vecLog)
			if written, _ := rowRes.DiskFootprint(); written == 0 {
				t.Error("run did not spill; lower MemoryFraction")
			}
			if blaze.VecTasksExecuted() == before {
				t.Error("no task ran on the columnar plane")
			}
		})
	}
}

// TestVectorizedIdentitySVDPP extends the sweep to the
// serialization-heavy workload whose kernels mix typed columns
// (Factors) with the boxed escape hatch (RatingList, []any pairs).
func TestVectorizedIdentitySVDPP(t *testing.T) {
	for _, sys := range []blaze.SystemID{blaze.SysSparkMemDisk, blaze.SysMRD, blaze.SysBlaze} {
		sys := sys
		t.Run(string(sys), func(t *testing.T) {
			rowRes, rowLog := runVec(t, sys, blaze.SVDPP, 1, false, nil)
			vecRes, vecLog := runVec(t, sys, blaze.SVDPP, 8, true, nil)
			assertIdentical(t, string(sys), rowRes, vecRes, rowLog, vecLog)
		})
	}
}

// TestVectorizedIdentityUnderFaults repeats the row-vs-batch identity
// check with the exec-death and bucket-loss fault classes active: the
// recovery paths (regeneration, recompute, fault accounting) must issue
// identical charges and events on both planes. Regenerated stages drop
// back to the row plane by the eligibility gate, so this also covers the
// mixed row/vec shuffle-storage conversions.
func TestVectorizedIdentityUnderFaults(t *testing.T) {
	systems := []blaze.SystemID{blaze.SysSparkMemDisk, blaze.SysMRD, blaze.SysBlaze}
	for _, class := range []blaze.FaultClass{blaze.FaultExecutorDeath, blaze.FaultBucketLoss} {
		for _, sys := range systems {
			class, sys := class, sys
			t.Run(fmt.Sprintf("%s/%s", class, sys), func(t *testing.T) {
				fc := &blaze.FaultConfig{Seed: 7, Every: 3, Classes: []blaze.FaultClass{class}}
				rowRes, rowLog := runVec(t, sys, blaze.PR, 1, false, fc)
				vecRes, vecLog := runVec(t, sys, blaze.PR, 8, true, fc)
				if rowRes.Metrics.FaultsInjected == 0 {
					t.Fatalf("fault schedule injected nothing; raise Rate")
				}
				assertIdentical(t, fmt.Sprintf("%s/%s", class, sys), rowRes, vecRes, rowLog, vecLog)
			})
		}
	}
}

// TestVectorizedPathEngages guards against the identity sweep passing
// vacuously: a Vectorized PageRank run must actually execute tasks on
// the columnar plane. (Nothing in metrics or events can reveal this —
// that is the point — so the process-global counter is the witness.)
func TestVectorizedPathEngages(t *testing.T) {
	before := blaze.VecTasksExecuted()
	if _, err := blaze.Run(blaze.RunConfig{
		System: blaze.SysSparkMemDisk, Workload: blaze.PR,
		Executors: 4, Scale: 0.25, Vectorized: true,
	}); err != nil {
		t.Fatal(err)
	}
	if got := blaze.VecTasksExecuted() - before; got == 0 {
		t.Fatal("Vectorized run executed zero columnar tasks; eligibility gate never fired")
	}
}

// TestVectorizedStreamIdentity extends the guarantee to micro-batch
// streaming: N windows through a vectorized session must be bit-equal
// to the row session, including per-window stats and boundary events.
func TestVectorizedStreamIdentity(t *testing.T) {
	run := func(vec bool) (*blaze.StreamResult, *blaze.EventLog) {
		log := blaze.NewEventLog()
		res, err := blaze.RunStream(blaze.StreamConfig{
			Workload:          blaze.StreamPR,
			Windows:           3,
			Scale:             0.25,
			Executors:         4,
			Parallelism:       4,
			Vectorized:        vec,
			MemoryPerExecutor: 1 << 20,
			EventLog:          log,
		})
		if err != nil {
			t.Fatalf("vectorized=%v: %v", vec, err)
		}
		return res, log
	}
	rowRes, rowLog := run(false)
	vecRes, vecLog := run(true)
	if !blaze.MetricsEqualDeterministic(rowRes.Metrics, vecRes.Metrics) {
		t.Errorf("metrics differ between row and vectorized streams\nrow: %+v\nvec: %+v",
			rowRes.Metrics, vecRes.Metrics)
	}
	re, ve := rowLog.Events(), vecLog.Events()
	if len(re) != len(ve) {
		t.Fatalf("event counts differ: row=%d vec=%d", len(re), len(ve))
	}
	for i := range re {
		if re[i] != ve[i] {
			t.Fatalf("event %d differs:\nrow: %+v\nvec: %+v", i, re[i], ve[i])
		}
	}
	if len(rowRes.Windows) != len(vecRes.Windows) {
		t.Fatalf("window counts differ: row=%d vec=%d", len(rowRes.Windows), len(vecRes.Windows))
	}
	for i := range rowRes.Windows {
		if !rowRes.Windows[i].EqualDeterministic(vecRes.Windows[i]) {
			t.Errorf("window %d stats differ:\nrow: %+v\nvec: %+v", i, rowRes.Windows[i], vecRes.Windows[i])
		}
	}
}
