package blaze_test

import (
	"fmt"
	"testing"

	"blaze"
	"blaze/internal/core"
)

// verifyCachedCosts switches on, for the test, the Blaze controllers'
// cached-vs-fresh check: every victim ordering they serve is compared
// with one priced from scratch, and a difference panics the run.
func verifyCachedCosts(t *testing.T) {
	core.VerifyCachedCosts(true)
	t.Cleanup(func() { core.VerifyCachedCosts(false) })
}

// allSystems lists every registered system id, including a
// conventional-policy system, for the parallel-identity sweep.
func allSystems() []blaze.SystemID {
	return []blaze.SystemID{
		blaze.SysSparkMem, blaze.SysSparkMemDisk, blaze.SysSparkAlluxio,
		blaze.SysLRC, blaze.SysMRD, blaze.SysLRCMem, blaze.SysMRDMem,
		blaze.SysAutoCache, blaze.SysCostAware,
		blaze.SysBlaze, blaze.SysBlazeMem, blaze.SysBlazeNoProfile,
		blaze.PolicySystem("tinylfu"),
	}
}

func runIdentity(t *testing.T, sys blaze.SystemID, wl blaze.WorkloadID, par int, faults *blaze.FaultConfig) (*blaze.Result, *blaze.EventLog) {
	t.Helper()
	log := blaze.NewEventLog()
	res, err := blaze.Run(blaze.RunConfig{
		System:      sys,
		Workload:    wl,
		Executors:   4,
		Scale:       0.25,
		Parallelism: par,
		EventLog:    log,
		Faults:      faults,
	})
	if err != nil {
		t.Fatalf("%s/%s parallelism=%d: %v", sys, wl, par, err)
	}
	return res, log
}

func assertIdentical(t *testing.T, label string, seqRes, parRes *blaze.Result, seqLog, parLog *blaze.EventLog) {
	t.Helper()
	if !blaze.MetricsEqualDeterministic(seqRes.Metrics, parRes.Metrics) {
		t.Errorf("%s: metrics differ between sequential and parallel execution\nseq: %+v\npar: %+v",
			label, seqRes.Metrics, parRes.Metrics)
	}
	se, pe := seqLog.Events(), parLog.Events()
	if len(se) != len(pe) {
		t.Errorf("%s: event counts differ: seq=%d par=%d", label, len(se), len(pe))
		return
	}
	for i := range se {
		if se[i] != pe[i] {
			t.Errorf("%s: event %d differs:\nseq: %+v\npar: %+v", label, i, se[i], pe[i])
			return
		}
	}
}

// TestParallelMetricsIdentity is the engine's core guarantee: executing
// stages on concurrent workers changes only wall-clock time. For every
// registered system, a run at Parallelism 8 must produce bit-identical
// virtual-time metrics AND an identical event log to the sequential run.
func TestParallelMetricsIdentity(t *testing.T) {
	verifyCachedCosts(t)
	for _, sys := range allSystems() {
		sys := sys
		t.Run(string(sys), func(t *testing.T) {
			seqRes, seqLog := runIdentity(t, sys, blaze.PR, 1, nil)
			parRes, parLog := runIdentity(t, sys, blaze.PR, 8, nil)
			assertIdentical(t, string(sys), seqRes, parRes, seqLog, parLog)
		})
	}
}

// TestParallelMetricsIdentityUnderFaults repeats the identity check
// with the exec-death and bucket fault classes active: recovery paths
// (partition migration, map-output regeneration) must also be
// interleaving-independent.
func TestParallelMetricsIdentityUnderFaults(t *testing.T) {
	verifyCachedCosts(t)
	systems := []blaze.SystemID{blaze.SysSparkMemDisk, blaze.SysMRD, blaze.SysBlaze}
	for _, class := range []blaze.FaultClass{blaze.FaultExecutorDeath, blaze.FaultBucketLoss} {
		for _, sys := range systems {
			class, sys := class, sys
			t.Run(fmt.Sprintf("%s/%s", class, sys), func(t *testing.T) {
				fc := &blaze.FaultConfig{Seed: 7, Every: 3, Classes: []blaze.FaultClass{class}}
				seqRes, seqLog := runIdentity(t, sys, blaze.PR, 1, fc)
				parRes, parLog := runIdentity(t, sys, blaze.PR, 8, fc)
				if seqRes.Metrics.FaultsInjected == 0 {
					t.Fatalf("fault schedule injected nothing; raise Rate")
				}
				assertIdentical(t, fmt.Sprintf("%s/%s", class, sys), seqRes, parRes, seqLog, parLog)
			})
		}
	}
}

// TestParallelRaceStress drives shuffle-heavy workloads at Parallelism
// 8 so the -race CI job sweeps the concurrent hot path: shuffle
// read/write, eviction under pressure, metric and lineage updates.
func TestParallelRaceStress(t *testing.T) {
	for _, sys := range []blaze.SystemID{blaze.SysSparkMemDisk, blaze.SysMRD, blaze.SysBlaze} {
		for _, wl := range []blaze.WorkloadID{blaze.PR, blaze.KMeans} {
			sys, wl := sys, wl
			t.Run(fmt.Sprintf("%s/%s", sys, wl), func(t *testing.T) {
				if _, err := blaze.Run(blaze.RunConfig{
					System:      sys,
					Workload:    wl,
					Executors:   8,
					Scale:       0.25,
					Parallelism: 8,
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
