package blaze_test

// Chaos soak: randomized mixed transient+permanent fault schedules with
// randomized resilience knobs, swept across every registered caching
// controller. Each schedule must terminate, produce the fault-free
// reference answers, keep retries within budget, and yield bit-identical
// metrics and event logs between Parallelism 1 and 8.
//
// Reproduce a nightly failure locally with the seed it logs:
//
//	BLAZE_CHAOS_SEED=<seed> BLAZE_CHAOS_N=<n> go test -race -run TestChaosSoak .

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"testing"

	"blaze"
	"blaze/internal/core"
	"blaze/internal/enginetest"
)

func chaosEnvInt64(name string, def int64) int64 {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

func TestChaosSoak(t *testing.T) {
	// Every victim ordering a Blaze controller serves is compared with one
	// priced from scratch; a difference panics the run.
	core.VerifyCachedCosts(true)
	t.Cleanup(func() { core.VerifyCachedCosts(false) })
	baseSeed := chaosEnvInt64("BLAZE_CHAOS_SEED", 1)
	n := int(chaosEnvInt64("BLAZE_CHAOS_N", 50))
	if testing.Short() {
		n = 10
	}

	ctls := recoveryControllers()
	names := make([]string, 0, len(ctls))
	for name := range ctls {
		names = append(names, name)
	}
	sort.Strings(names)

	refs := make(map[int64][]int64) // program seed -> fault-free reference
	var faults, retries, spec int
	for i := 0; i < n; i++ {
		s := enginetest.NewChaosSchedule(baseSeed + int64(i))
		name := names[i%len(names)]
		mk := ctls[name]

		ref, ok := refs[s.Program]
		if !ok {
			ref = enginetest.RefChecksums(s.Program)
			refs[s.Program] = ref
		}

		got1, m1, l1, err := enginetest.ChaosRun(s, mk(), 1)
		if err != nil {
			t.Fatalf("chaos seed %d (%s, P1): %v", s.Seed, name, err)
		}
		if err := enginetest.CheckChaosInvariants(s, ref, got1, m1); err != nil {
			t.Errorf("%s (P1): %v", name, err)
			continue
		}

		got8, m8, l8, err := enginetest.ChaosRun(s, mk(), 8)
		if err != nil {
			t.Fatalf("chaos seed %d (%s, P8): %v", s.Seed, name, err)
		}
		if err := enginetest.CheckChaosInvariants(s, ref, got8, m8); err != nil {
			t.Errorf("%s (P8): %v", name, err)
			continue
		}
		t.Run(fmt.Sprintf("seed%d/%s", s.Seed, name), func(t *testing.T) {
			assertSame(t, &outcome{arm: p1, res: &blaze.Result{Metrics: m1}, log: l1},
				&outcome{arm: p8, res: &blaze.Result{Metrics: m8}, log: l8})
		})
		faults += m1.FaultsInjected
		retries += m1.TaskRetries + m1.FetchRetries
		spec += m1.SpeculativeLaunches
	}
	// The soak must actually exercise the resilience machinery, not pass
	// vacuously on schedules that never fired.
	if faults == 0 || retries == 0 {
		t.Errorf("soak was vacuous: %d faults injected, %d retries across %d schedules", faults, retries, n)
	}
	if n >= 50 && spec == 0 {
		t.Errorf("soak never launched a speculative copy across %d schedules", n)
	}
}

// TestStreamChaosSoak is the streaming counterpart: seed-derived
// schedules that kill a durable streaming session at a randomized chain
// of window boundaries (crash, resume, crash again, ...) and finally
// resume it to completion. The fully recovered run must be bit-identical
// — metrics, event log, per-window stats — to an uninterrupted run of
// the same stream, at Parallelism 1 and 8 alike. Odd seeds cap each
// executor's disk tier at 1 MiB, so their solves — plan repair included
// — run the exact ILP instead of the knapsack fast path.
//
// Reproduce a failure with the seed it logs:
//
//	BLAZE_STREAM_CHAOS_SEED=<seed> BLAZE_STREAM_CHAOS_N=<n> go test -run TestStreamChaosSoak .
func TestStreamChaosSoak(t *testing.T) {
	baseSeed := chaosEnvInt64("BLAZE_STREAM_CHAOS_SEED", 1)
	n := int(chaosEnvInt64("BLAZE_STREAM_CHAOS_N", 6))
	if testing.Short() {
		n = 2
	}
	workloads := blaze.AllStreamWorkloads()

	var resumes int
	for i := 0; i < n; i++ {
		s := enginetest.NewStreamChaosSchedule(baseSeed + int64(i))
		cfg := quarterStream(workloads[s.Workload%len(workloads)], (s.Seed&1)<<20)
		cfg.Windows, cfg.Executors, cfg.MemoryPerExecutor = s.Windows, s.Executors, s.MemoryPerExecutor
		cfg.EventLog = blaze.NewEventLog()
		base, err := blaze.RunStream(cfg)
		if err != nil {
			t.Fatalf("stream chaos seed %d: baseline: %v", s.Seed, err)
		}
		ref := streamOutcome(p1, base, cfg.EventLog)

		for _, par := range []int{1, 8} {
			t.Run(fmt.Sprintf("seed%d/p%d", s.Seed, par), func(t *testing.T) {
				// The crash chain: each boundary in the schedule kills the
				// stream, each kill is resumed with the next crash armed.
				leg := cfg
				leg.Parallelism = par
				leg = crashAt(t, leg, s.CrashWindows[0])
				for _, next := range s.CrashWindows[1:] {
					leg.CrashWindow, leg.EventLog = next, blaze.NewEventLog()
					if _, err := blaze.ResumeStream(leg); !errors.Is(err, blaze.ErrSessionCrashed) {
						t.Fatalf("re-crash at %d: err = %v, want ErrSessionCrashed", next, err)
					}
					resumes++
				}
				leg.CrashWindow, leg.EventLog, leg.RecoveryLog = 0, blaze.NewEventLog(), blaze.NewEventLog()
				res, err := blaze.ResumeStream(leg)
				if err != nil {
					t.Fatalf("final resume: %v", err)
				}
				resumes++
				assertSame(t, ref, streamOutcome(arm{par: par, kernels: true, crash: s.CrashWindows[0], crashKernels: true}, res, leg.EventLog))
				var resumed int
				for _, e := range leg.RecoveryLog.Events() {
					if e.Kind == "session_resumed" {
						resumed++
					}
				}
				if resumed != 1 {
					t.Errorf("final recovery log holds %d session_resumed, want 1", resumed)
				}
			})
		}
	}
	if resumes == 0 {
		t.Error("streaming soak was vacuous: no resumes ran")
	}
}
