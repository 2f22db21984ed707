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
	"os"
	"sort"
	"strconv"
	"testing"

	"blaze"
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
	verifyCachedCosts(t)
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
		if err := enginetest.CheckChaosIdentity(s, m1, m8, l1, l8); err != nil {
			t.Errorf("%s: %v", name, err)
		}
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
		wl := workloads[s.Workload%len(workloads)]
		cfg := func(par int, dir string, crashWindow int, log, recLog *blaze.EventLog) blaze.StreamConfig {
			return blaze.StreamConfig{
				Workload:          wl,
				Windows:           s.Windows,
				Scale:             0.25,
				Executors:         s.Executors,
				Parallelism:       par,
				MemoryPerExecutor: s.MemoryPerExecutor,
				DiskCapacity:      (s.Seed & 1) << 20,
				EventLog:          log,
				CheckpointDir:     dir,
				CrashWindow:       crashWindow,
				RecoveryLog:       recLog,
			}
		}

		baseLog := blaze.NewEventLog()
		base, err := blaze.RunStream(cfg(1, "", 0, baseLog, nil))
		if err != nil {
			t.Fatalf("stream chaos seed %d: baseline: %v", s.Seed, err)
		}

		for _, par := range []int{1, 8} {
			dir := t.TempDir()
			// The crash chain: each boundary in the schedule kills the
			// stream, each kill is resumed with the next crash armed.
			crashLog := blaze.NewEventLog()
			_, err := blaze.RunStream(cfg(par, dir, s.CrashWindows[0], crashLog, nil))
			if !errors.Is(err, blaze.ErrSessionCrashed) {
				t.Fatalf("stream chaos seed %d (P%d): crash 1: err = %v, want ErrSessionCrashed", s.Seed, par, err)
			}
			for _, next := range s.CrashWindows[1:] {
				reLog := blaze.NewEventLog()
				_, err := blaze.ResumeStream(cfg(par, dir, next, reLog, nil))
				if !errors.Is(err, blaze.ErrSessionCrashed) {
					t.Fatalf("stream chaos seed %d (P%d): re-crash at %d: err = %v, want ErrSessionCrashed",
						s.Seed, par, next, err)
				}
				resumes++
			}
			finalLog := blaze.NewEventLog()
			recLog := blaze.NewEventLog()
			res, err := blaze.ResumeStream(cfg(par, dir, 0, finalLog, recLog))
			if err != nil {
				t.Fatalf("stream chaos seed %d (P%d): final resume: %v", s.Seed, par, err)
			}
			resumes++

			if !blaze.MetricsEqualDeterministic(base.Metrics, res.Metrics) {
				t.Errorf("stream chaos seed %d (P%d): metrics differ from uninterrupted run\nbase: %+v\ngot:  %+v",
					s.Seed, par, base.Metrics, res.Metrics)
				continue
			}
			be, fe := baseLog.Events(), finalLog.Events()
			if len(be) != len(fe) {
				t.Errorf("stream chaos seed %d (P%d): event counts differ: base=%d got=%d", s.Seed, par, len(be), len(fe))
				continue
			}
			for j := range be {
				if be[j] != fe[j] {
					t.Errorf("stream chaos seed %d (P%d): event %d differs:\nbase: %+v\ngot:  %+v",
						s.Seed, par, j, be[j], fe[j])
					break
				}
			}
			if len(res.Windows) != len(base.Windows) {
				t.Errorf("stream chaos seed %d (P%d): window counts differ: base=%d got=%d",
					s.Seed, par, len(base.Windows), len(res.Windows))
				continue
			}
			for j := range base.Windows {
				if !base.Windows[j].EqualDeterministic(res.Windows[j]) {
					t.Errorf("stream chaos seed %d (P%d): window %d stats differ:\nbase: %+v\ngot:  %+v",
						s.Seed, par, j+1, base.Windows[j], res.Windows[j])
				}
			}
			var resumed int
			for _, e := range recLog.Events() {
				if e.Kind == "session_resumed" {
					resumed++
				}
			}
			if resumed != 1 {
				t.Errorf("stream chaos seed %d (P%d): final recovery log holds %d session_resumed, want 1",
					s.Seed, par, resumed)
			}
		}
	}
	if resumes == 0 {
		t.Error("streaming soak was vacuous: no resumes ran")
	}
}
