// Command blazerun executes one workload under one caching system and
// reports its metrics — the building block the figures aggregate.
//
// Usage:
//
//	blazerun -system blaze -workload pr
//	blazerun -system spark-memdisk -workload svdpp -executors 4 -frac 0.4
//	blazerun -system spark-mem -workload pr -faults shuffle -fault-every 2
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"blaze"
)

func main() {
	var systems []string
	for _, s := range blaze.Systems() {
		systems = append(systems, string(s.ID))
	}
	system := flag.String("system", "blaze", "caching system, one of: "+strings.Join(systems, ", "))
	workload := flag.String("workload", "pr", "workload: pr, cc, lr, kmeans, gbt, svdpp")
	executors := flag.Int("executors", 8, "number of simulated executors")
	frac := flag.Float64("frac", 0, "memory fraction of the calibrated peak (0 = workload default)")
	scale := flag.Float64("scale", 1.0, "input scale factor")
	events := flag.String("events", "", "write a JSON-lines event log to this path and print a per-job summary")
	faultSpec := flag.String("faults", "", "inject faults: comma-separated classes (exec, block, shuffle, exec-death, bucket, task-flake, fetch-flake, straggler, permanent, transient, all); empty = none")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the deterministic fault injector")
	faultEvery := flag.Int("fault-every", 1, "inject one fault per N boundaries")
	faultStage := flag.Bool("fault-stage", false, "inject at stage boundaries instead of job boundaries")
	faultMax := flag.Int("fault-max", 0, "cap on injected permanent faults (0 = unlimited; transient classes are exempt)")
	taskEvery := flag.Int("task-every", 0, "fire one transient fault per N task/fetch attempts (0 = default 8)")
	stragglerFactor := flag.Float64("straggler-factor", 0, "slowdown multiplier for injected stragglers (0 = default 4)")
	stragglerWindow := flag.Int("straggler-window", 0, "tasks a straggler stays slow for (0 = default 3)")
	resSpec := flag.String("resilience", "", "resilience knobs: retries=3,fetch-retries=2,backoff=2ms,spec=2,blacklist=3,cooldown=2")
	flag.Parse()

	var log *blaze.EventLog
	if *events != "" {
		log = blaze.NewEventLog()
	}
	var fcfg *blaze.FaultConfig
	if *faultSpec != "" {
		classes, err := blaze.ParseFaultClasses(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "blazerun: %v\n", err)
			os.Exit(1)
		}
		fcfg = &blaze.FaultConfig{
			Seed:            *faultSeed,
			Classes:         classes,
			Every:           *faultEvery,
			AtStageEnd:      *faultStage,
			MaxFaults:       *faultMax,
			TaskEvery:       *taskEvery,
			StragglerFactor: *stragglerFactor,
			StragglerWindow: *stragglerWindow,
		}
	}
	res, err := blaze.ParseResilience(*resSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "blazerun: %v\n", err)
		os.Exit(1)
	}
	r, err := blaze.Run(blaze.RunConfig{
		System:         blaze.SystemID(*system),
		Workload:       blaze.WorkloadID(*workload),
		Executors:      *executors,
		MemoryFraction: *frac,
		Scale:          *scale,
		EventLog:       log,
		Faults:         fcfg,
		Resilience:     res,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "blazerun: %v\n", err)
		os.Exit(1)
	}
	m := r.Metrics
	b := m.TotalBreakdown()
	fmt.Printf("system            %s\n", r.System)
	fmt.Printf("workload          %s\n", r.Workload)
	fmt.Printf("memory/executor   %d bytes\n", r.MemoryPerExecutor)
	fmt.Printf("ACT               %v\n", m.ACT.Round(time.Microsecond))
	fmt.Printf("  profiling       %v\n", m.ProfilingTime)
	fmt.Printf("accumulated task time\n")
	fmt.Printf("  compute         %v (recompute %v)\n", b.Compute.Round(time.Microsecond), b.Recompute.Round(time.Microsecond))
	fmt.Printf("  shuffle         %v\n", b.Shuffle.Round(time.Microsecond))
	fmt.Printf("  disk I/O        %v\n", b.DiskIO.Round(time.Microsecond))
	fmt.Printf("cache             hits=%d diskHits=%d misses=%d\n", m.CacheHits, m.DiskHits, m.Misses)
	fmt.Printf("evictions         %d (to disk %d), unpersists %d\n", m.Evictions, m.EvictionsToDisk, m.Unpersists)
	fmt.Printf("disk              written=%d bytes, peak=%d bytes\n", m.DiskBytesWritten, m.DiskPeakBytes)
	fmt.Printf("scheduler         jobs=%d stages=%d skipped=%d\n", m.Jobs, m.RanStages, m.SkippedStages)
	if m.FaultsInjected > 0 {
		fmt.Printf("faults            injected=%d blocksLost=%d bytesLost=%d shufflesLost=%d recovery=%v\n",
			m.FaultsInjected, m.FaultBlocksLost, m.FaultBytesLost, m.FaultShufflesLost,
			m.TotalFaultRecovery().Round(time.Microsecond))
		if m.ExecutorDeaths > 0 {
			fmt.Printf("  exec deaths     %d (migrated %d partitions, rebalance %v)\n",
				m.ExecutorDeaths, m.MigratedPartitions, m.RebalanceTime.Round(time.Microsecond))
		}
		if m.FaultMapOutputsLost > 0 {
			fmt.Printf("  map outputs     lost=%d (buckets=%d, %d bytes)\n",
				m.FaultMapOutputsLost, m.FaultBucketsLost, m.FaultShuffleBytesLost)
		}
		for _, class := range blaze.AllFaultClasses() {
			if d, ok := m.FaultRecoveryByClass[class.String()]; ok {
				fmt.Printf("  recovery[%s] %v\n", class, d.Round(time.Microsecond))
			}
		}
	}
	if m.TaskRetries+m.FetchRetries > 0 {
		fmt.Printf("retries           task=%d fetch=%d backoff=%v\n",
			m.TaskRetries, m.FetchRetries, m.RetryBackoffTime.Round(time.Microsecond))
	}
	if m.SpeculativeLaunches > 0 {
		fmt.Printf("speculation       launched=%d won=%d\n", m.SpeculativeLaunches, m.SpeculativeWins)
	}
	if m.StragglerSlowdownTime > 0 {
		fmt.Printf("stragglers        slowdown=%v\n", m.StragglerSlowdownTime.Round(time.Microsecond))
	}
	if m.BlacklistedExecutors > 0 {
		fmt.Printf("blacklist         episodes=%d\n", m.BlacklistedExecutors)
	}
	// ILPSolveTime is wall-clock (the one nondeterministic metric) and
	// deliberately not printed: blazerun's stdout must be bit-identical
	// across repeated runs.
	if m.ILPSolves > 0 {
		fmt.Printf("ILP               solves=%d nodes=%d fallbacks=%d\n",
			m.ILPSolves, m.ILPNodes, m.ILPFallbacks)
	}
	if log != nil {
		f, err := os.Create(*events)
		if err != nil {
			fmt.Fprintf(os.Stderr, "blazerun: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := log.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "blazerun: %v\n", err)
			os.Exit(1)
		}
		sum := blaze.SummarizeEventLog(log)
		fmt.Printf("\nevent log         %d events -> %s\n", log.Len(), *events)
		fmt.Printf("%-6s %10s %8s %8s %8s %8s %8s\n", "job", "tasks", "hits", "diskhits", "recomp", "admit", "spill")
		for _, j := range sum.Jobs {
			fmt.Printf("%-6d %10d %8d %8d %8d %8d %8d\n", j.Job, j.Tasks, j.Hits, j.DiskHits, j.Recomputes, j.Admitted, j.Spilled)
		}
	}
}
