// Command bench is the repository's end-to-end benchmark: it drives
// whole blaze.Run / blaze.Session workloads as a closed loop with one
// client, checks every op against an independent oracle, and reports
// wall-clock, throughput, virtual ACT, allocation and memory metrics
// by name. A separate traced run (-trace 1) attributes the wall-clock
// to layers from the outside — spans around the calls into each layer
// plus timed loops over each layer's exported functions. See README.md
// in this directory and BENCHMARK.json at the repository root.
//
//	go run ./bench -workload pr-dataplane -seed 1            one workload
//	go run ./bench -workload pr-dataplane -seed 1 -trace 1   per-layer run
//	go run ./bench -all -runs 5 -out a.json                  every workload, 5 seeds each
//	go run ./bench -compare a.json b.json                    apply BENCHMARK.json's bounds
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// processStart approximates process start: package initialisation runs
// before main, right after the runtime comes up.
var processStart = readUsage()

// Where a run leaves files, relative to the checkout's root (both
// git-ignored), and where -compare reads the bounds.
const (
	traceDir = "bench/out"        // <workload>.trace.json of a traced run
	tmpDir   = ".bench_build/tmp" // spill files, checkpoints, WALs
	specPath = "BENCHMARK.json"
)

// options is one run's configuration. The command line sets the first
// four; the rest are fixed for the benchmark and varied only by the
// tests, which shrink the run and keep its files in a temp directory.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int

	ops     int // time exactly this many ops instead of running for seconds
	setups  int // set-ups per run; ops rotate over their inputs
	outDir  string
	workDir string
}

func main() {
	o := options{setups: setupReps, outDir: filepath.FromSlash(traceDir), workDir: filepath.FromSlash(tmpDir)}
	var (
		all     = flag.Bool("all", false, "run every workload, one child process each, sequentially")
		runs    = flag.Int("runs", 1, "with -all: runs per workload, seeds seed..seed+runs-1")
		out     = flag.String("out", "", "with -all: write the collected results to this JSON file")
		compare = flag.Bool("compare", false, "compare two -all result files: bench -compare a.json b.json")
	)
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the run measures")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = runCompare(specPath, flag.Args())
	case *all:
		err = runAll(o, *runs, *out)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints the header,
// the metric table and — as the last line — the result object.
func runOne(o options) error {
	def, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(parallelism())
	work, err := filepath.Abs(o.workDir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	// RealBytes runs create their spill directory under the OS temp
	// dir; keep it inside the checkout.
	os.Setenv("TMPDIR", work)
	o.workDir = work

	var rep *report
	if o.trace != 0 {
		rep, err = runTraced(def, o)
	} else {
		rep, err = runTimed(def, o)
	}
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	if !rep.ok() {
		return fmt.Errorf("%s: %d of %d ops failed the output or bit-identity check: %s",
			def.Name, rep.Failed, rep.Attempted, rep.firstFailure)
	}
	return nil
}
