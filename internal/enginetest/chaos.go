package enginetest

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"blaze/internal/engine"
	"blaze/internal/eventlog"
	"blaze/internal/faults"
	"blaze/internal/metrics"
)

// This file is the chaos soak harness: seed-derived randomized schedules
// mixing transient and permanent faults with randomized resilience
// knobs, executed over the random-program generator and checked against
// the soak invariants — the run terminates, the answers equal the
// fault-free reference, retries stay within budget, and the metrics and
// event log are bit-identical between Parallelism 1 and N.

// ChaosSchedule is one randomized soak scenario, fully derived from a
// seed so any failure reproduces from its seed alone.
type ChaosSchedule struct {
	// Seed is the schedule's own identity (the derivation seed).
	Seed int64
	// Program seeds BuildRandomProgram.
	Program int64
	// Spec shapes the cluster.
	Spec ClusterSpec
	// Faults is the randomized mixed-class injection schedule.
	Faults faults.Config
	// Res is the randomized resilience configuration.
	Res engine.Resilience
}

// NewChaosSchedule derives a randomized schedule from the seed: a random
// non-empty class subset mixing transient and permanent faults, random
// boundary/task rates, and random resilience knobs (speculation and
// blacklisting each enabled on a coin flip).
func NewChaosSchedule(seed int64) ChaosSchedule {
	rng := rand.New(rand.NewSource(seed))
	all := faults.AllClasses()
	var classes []faults.Class
	for _, cl := range all {
		if rng.Intn(2) == 0 {
			classes = append(classes, cl)
		}
	}
	if len(classes) == 0 {
		classes = []faults.Class{all[rng.Intn(len(all))]}
	}
	s := ChaosSchedule{
		Seed:    seed,
		Program: 1 + rng.Int63n(500),
		Spec: ClusterSpec{
			Executors: 2 + rng.Intn(3),
			Cores:     1 + rng.Intn(2),
		},
		Faults: faults.Config{
			Seed:            rng.Int63(),
			Classes:         classes,
			Every:           1 + rng.Intn(3),
			AtStageEnd:      rng.Intn(2) == 0,
			TaskEvery:       4 + rng.Intn(12),
			StragglerFactor: 2 + float64(rng.Intn(4)),
			StragglerWindow: 1 + rng.Intn(3),
		},
		Res: engine.Resilience{
			MaxTaskRetries:  1 + rng.Intn(4),
			MaxFetchRetries: 1 + rng.Intn(3),
			RetryBackoff:    time.Duration(1+rng.Intn(3)) * time.Millisecond,
		},
	}
	if rng.Intn(2) == 0 {
		s.Faults.MaxFaults = 1 + rng.Intn(6)
	}
	if rng.Intn(2) == 0 {
		s.Res.SpeculativeMultiple = 1.5 + rng.Float64()
	}
	if rng.Intn(2) == 0 {
		s.Res.BlacklistAfter = 2 + rng.Intn(4)
		s.Res.BlacklistCooldown = 1 + rng.Intn(3)
	}
	return s
}

// StreamChaosSchedule is one randomized streaming crash/resume soak
// scenario: a windowed stream that is killed by the server-crash fault
// at each boundary in CrashWindows (a chain — every crash is resumed
// and re-crashed at the next boundary in the list) and finally resumed
// to completion. Like ChaosSchedule it is fully seed-derived; the
// facade-level soak in chaos_test.go executes it, since streaming
// sessions live above the engine.
type StreamChaosSchedule struct {
	Seed int64
	// Workload indexes the registered stream workloads (facade order).
	Workload int
	// Windows is the stream length; CrashWindows the strictly increasing
	// boundaries (each in [2, Windows]) to crash at, one resume per.
	Windows      int
	CrashWindows []int
	Executors    int
	// MemoryPerExecutor varies the cache pressure across schedules.
	MemoryPerExecutor int64
}

// NewStreamChaosSchedule derives a randomized streaming crash schedule
// from the seed: 4-6 windows, a chain of 1-2 distinct crash boundaries,
// and a small random cluster shape.
func NewStreamChaosSchedule(seed int64) StreamChaosSchedule {
	rng := rand.New(rand.NewSource(seed))
	s := StreamChaosSchedule{
		Seed:              seed,
		Workload:          rng.Intn(2),
		Windows:           4 + rng.Intn(3),
		Executors:         2 + rng.Intn(3),
		MemoryPerExecutor: 1 << (19 + rng.Intn(2)),
	}
	crashes := 1 + rng.Intn(2)
	boundaries := rng.Perm(s.Windows - 1) // values 0..Windows-2 -> boundaries 2..Windows
	for _, b := range boundaries[:crashes] {
		s.CrashWindows = append(s.CrashWindows, b+2)
	}
	sort.Ints(s.CrashWindows)
	return s
}

// ChaosRun executes the schedule's random program under the controller
// at the given parallelism, returning checksums, metrics and event log.
func ChaosRun(s ChaosSchedule, ctl engine.Controller, parallelism int) ([]int64, *metrics.App, *eventlog.Log, error) {
	log := eventlog.New()
	fcfg := s.Faults
	sums, m, err := RunRandomProgramEx(s.Program, s.Spec, ctl, &fcfg, RunOptions{
		Parallelism: parallelism,
		Resilience:  s.Res,
		EventLog:    log,
	})
	return sums, m, log, err
}

// CheckChaosInvariants verifies one chaos run against the soak
// invariants that do not need a second run: the answers equal the
// fault-free reference checksums, retry counts respect the configured
// budgets, and the speculation/straggler counters are internally
// consistent. (Termination is implied by returning at all; the P1-vs-PN
// bit-identity is checked by the caller across two runs.)
func CheckChaosInvariants(s ChaosSchedule, ref, got []int64, m *metrics.App) error {
	if len(got) != len(ref) {
		return fmt.Errorf("chaos seed %d: %d checksums, fault-free run had %d", s.Seed, len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			return fmt.Errorf("chaos seed %d: checksum %d = %d, fault-free run had %d", s.Seed, i, got[i], ref[i])
		}
	}
	res := s.Res // normalized equivalents of what the engine applied
	totalTasks := 0
	for i := range m.Executors {
		totalTasks += m.Executors[i].Tasks
	}
	if res.MaxTaskRetries >= 0 && m.TaskRetries > res.MaxTaskRetries*totalTasks {
		return fmt.Errorf("chaos seed %d: %d task retries exceed budget %d x %d tasks",
			s.Seed, m.TaskRetries, res.MaxTaskRetries, totalTasks)
	}
	if res.MaxTaskRetries < 0 && m.TaskRetries != 0 {
		return fmt.Errorf("chaos seed %d: retries disabled but %d task retries recorded", s.Seed, m.TaskRetries)
	}
	if res.MaxFetchRetries < 0 && m.FetchRetries != 0 {
		return fmt.Errorf("chaos seed %d: fetch retries disabled but %d recorded", s.Seed, m.FetchRetries)
	}
	if m.SpeculativeWins > m.SpeculativeLaunches {
		return fmt.Errorf("chaos seed %d: %d speculative wins exceed %d launches",
			s.Seed, m.SpeculativeWins, m.SpeculativeLaunches)
	}
	if res.SpeculativeMultiple <= 1 && m.SpeculativeLaunches != 0 {
		return fmt.Errorf("chaos seed %d: speculation disabled but %d launches recorded", s.Seed, m.SpeculativeLaunches)
	}
	if res.BlacklistAfter <= 0 && m.BlacklistedExecutors != 0 {
		return fmt.Errorf("chaos seed %d: blacklisting disabled but %d episodes recorded", s.Seed, m.BlacklistedExecutors)
	}
	if m.StragglerSlowdownTime < 0 || m.RetryBackoffTime < 0 {
		return fmt.Errorf("chaos seed %d: negative resilience time accounting", s.Seed)
	}
	return nil
}
