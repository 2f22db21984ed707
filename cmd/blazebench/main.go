// Command blazebench regenerates the tables and figures of the paper's
// evaluation (§7). Each figure is printed as an aligned text table with
// the same rows/series the paper plots; -faults prints the chaos table
// instead. Wall-clock benchmarking lives in bench/.
//
// Usage:
//
//	blazebench -fig 9          # one figure (3,4,5,9,10,11,12,13,summary)
//	blazebench -fig all        # everything
//	blazebench -executors 8 -scale 1.0 -fig 11
//	blazebench -faults transient -resilience spec=2,blacklist=3 -workload pr
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"blaze"
	"blaze/harness"
)

// runFaultBench runs every end-to-end system on one workload under the
// fault schedule and resilience knobs, printing a per-system table of
// completion time and the resilience counters — the CLI view of the
// chaos experiments.
func runFaultBench(workload string, executors int, scale float64, faultSpec, resSpec string, seed int64) {
	classes, err := blaze.ParseFaultClasses(faultSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "blazebench: %v\n", err)
		os.Exit(1)
	}
	res, err := blaze.ParseResilience(resSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "blazebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("fault soak: workload=%s classes=%v seed=%d resilience=%q\n\n", workload, classes, seed, resSpec)
	fmt.Printf("%-14s %12s %7s %8s %7s %11s %10s %10s %10s\n",
		"system", "act", "faults", "retries", "spec", "spec-wins", "straggle", "backoff", "blacklist")
	for _, sys := range blaze.Fig9Systems() {
		r, err := blaze.Run(blaze.RunConfig{
			System:    sys,
			Workload:  blaze.WorkloadID(workload),
			Executors: executors,
			Scale:     scale,
			Faults: &blaze.FaultConfig{
				Seed:       seed,
				Classes:    classes,
				AtStageEnd: true,
			},
			Resilience: res,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "blazebench: %s: %v\n", sys, err)
			os.Exit(1)
		}
		m := r.Metrics
		fmt.Printf("%-14s %12v %7d %8d %7d %11d %10v %10v %10d\n",
			sys, m.ACT.Round(time.Millisecond), m.FaultsInjected,
			m.TaskRetries+m.FetchRetries, m.SpeculativeLaunches, m.SpeculativeWins,
			m.StragglerSlowdownTime.Round(time.Millisecond),
			m.RetryBackoffTime.Round(time.Millisecond), m.BlacklistedExecutors)
		if len(m.FaultRecoveryByClass) > 0 {
			for _, class := range blaze.AllFaultClasses() {
				if d, ok := m.FaultRecoveryByClass[class.String()]; ok {
					fmt.Printf("  recovery[%s] %v\n", class, d.Round(time.Millisecond))
				}
			}
		}
	}
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3,4,5,9,10,11,12,13,summary or 'all'")
	executors := flag.Int("executors", 8, "number of simulated executors")
	scale := flag.Float64("scale", 1.0, "input scale factor for every workload, in (0, 1]")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of text tables")
	faultSpec := flag.String("faults", "", "run the fault soak instead of figures: comma-separated classes (exec, block, shuffle, exec-death, bucket, task-flake, fetch-flake, straggler, permanent, transient, all)")
	resSpec := flag.String("resilience", "", "resilience knobs for the fault soak: retries=3,fetch-retries=2,backoff=2ms,spec=2,blacklist=3,cooldown=2")
	workload := flag.String("workload", "pr", "workload for the fault soak: pr, cc, lr, kmeans, gbt, svdpp")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault soak's deterministic injector")
	flag.Parse()

	if *faultSpec != "" {
		runFaultBench(*workload, *executors, *scale, *faultSpec, *resSpec, *faultSeed)
		return
	}
	if *resSpec != "" {
		fmt.Fprintln(os.Stderr, "blazebench: -resilience requires -faults (it tunes the fault soak)")
		os.Exit(1)
	}

	h := harness.New()
	h.Executors = *executors
	h.Scale = *scale

	names := []string{*fig}
	if *fig == "all" {
		names = harness.AllFigures()
	}
	start := time.Now()
	for _, name := range names {
		m, err := h.Figure(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "blazebench: %v\n", err)
			os.Exit(1)
		}
		if *asJSON {
			js, err := m.RenderJSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "blazebench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(js)
		} else {
			fmt.Println(m.Render())
		}
	}
	if !*asJSON {
		fmt.Printf("(regenerated %d figure(s) in %v of wall time)\n", len(names), time.Since(start).Round(time.Millisecond))
	}
}
