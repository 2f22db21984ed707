package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json the tools read.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []layerMetric `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// resultSet is what -all -out writes: every run of every workload.
type resultSet struct {
	Header header      `json:"header"`
	Trace  int         `json:"trace"`
	Runs   []resultRun `json:"runs"`
}

type resultRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	report
}

// runAll re-executes this binary once per workload and seed,
// sequentially, relaying each child's output and collecting its result
// line.
func runAll(o options, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Header: currentHeader(), Trace: o.trace}
	failed := 0
	for _, w := range workloads {
		for r := 0; r < runs; r++ {
			seed := o.seed + int64(r)
			args := []string{
				"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace),
			}
			cmd := exec.Command(self, args...)
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			os.Stdout.Write(stdout.Bytes())
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			run := resultRun{Workload: w.Name, Seed: seed}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.report); err != nil {
				return fmt.Errorf("%s seed %d: no result line (%v): %w", w.Name, seed, runErr, err)
			}
			if runErr != nil || !run.Correct {
				failed++
			}
			set.Runs = append(set.Runs, run)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed their output check", failed, len(set.Runs))
	}
	return nil
}

// valuesOf collects one metric's values over a workload's runs.
func (s *resultSet) valuesOf(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// bySeed is valuesOf keyed by the run's seed.
func (s *resultSet) bySeed(workload, metric string) map[int64]float64 {
	out := map[int64]float64{}
	for _, r := range s.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out[r.Seed] = m.Value
		}
	}
	return out
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (exclusive method).
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	quantile := func(k int) float64 { // k-th of 4
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quantile(3) - quantile(1)) / med
}

// worseBy is how much worse b is than a, as a share of a.
func worseBy(a, b float64, better string) float64 {
	worse := (b - a) / a
	if better == "higher" {
		worse = -worse
	}
	return worse
}

// verdict applies one metric's bound to the two sides' medians:
// regressed when b is worse than a by more than the bound, unresolved
// when either side's own runs spread wider than the bound (the
// comparison cannot tell a change from noise), ok otherwise. A side
// without values is unresolved with no figure (NaN): a missing workload
// or a renamed metric must not pass.
func verdict(a, b []float64, better string, bound float64) (string, float64) {
	if len(a) == 0 || len(b) == 0 || median(a) == 0 {
		return "unresolved", math.NaN()
	}
	worse := worseBy(median(a), median(b), better)
	switch {
	case quartileSpread(a) > bound || quartileSpread(b) > bound:
		return "unresolved", worse
	case worse > bound:
		return "regressed", worse
	}
	return "ok", worse
}

// pairedBounds are the metrics that repeat when a seed is run again —
// virtual time exactly, allocations to a fraction of a percent — with
// the bound each is held to run by run. BENCHMARK.json's bound for them
// has to contain the variation between generated inputs (the driver
// takes the spread over ten seeds). Two result sets run on the same
// seeds are free of that variation once their runs are paired by seed,
// so -compare does, and a change of a few percent in the paper's own
// metric does not pass.
var pairedBounds = map[string]float64{
	"act_virtual_s":          0.005,
	"allocs_per_record":      0.02,
	"alloc_bytes_per_record": 0.02,
}

// pairedVerdict compares a metric seed by seed and reports the worst
// pair: regressed when it is worse by more than the bound, unresolved
// with no figure when the two sides did not run the same seeds.
func pairedVerdict(a, b map[int64]float64, better string, bound float64) (string, float64) {
	if len(a) == 0 || len(a) != len(b) {
		return "unresolved", math.NaN()
	}
	worst := math.Inf(-1)
	for seed, va := range a {
		vb, ok := b[seed]
		if !ok || va == 0 {
			return "unresolved", math.NaN()
		}
		worst = max(worst, worseBy(va, vb, better))
	}
	if worst > bound {
		return "regressed", worst
	}
	return "ok", worst
}

// runCompare prints, per workload, the verdict of every end-to-end
// metric of result set b against result set a — BENCHMARK.json's bounds
// on the medians, pairedBounds seed by seed — and fails when any metric
// regressed, any run failed or either side lacks a metric.
func runCompare(specPath string, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench -compare a.json b.json")
	}
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	var sets [2]resultSet
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	a, b := &sets[0], &sets[1]
	fmt.Printf("a: %s commit %s, %d runs; b: %s commit %s, %d runs\n",
		args[0], a.Header.Commit, len(a.Runs), args[1], b.Header.Commit, len(b.Runs))

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "workload\tfailed ops a/b")
	for _, m := range spec.EndToEnd {
		if bound, paired := pairedBounds[m.Name]; paired {
			fmt.Fprintf(tw, "\t%s ±%g%% per seed", m.Name, bound*100)
		} else {
			fmt.Fprintf(tw, "\t%s ±%g%%", m.Name, m.Bound*100)
		}
	}
	fmt.Fprintln(tw)
	regressed, missing, failedOps := 0, 0, 0
	for _, w := range spec.Workloads {
		var fa, fb int
		for _, r := range a.Runs {
			if r.Workload == w.Name {
				fa += r.Failed
			}
		}
		for _, r := range b.Runs {
			if r.Workload == w.Name {
				fb += r.Failed
			}
		}
		failedOps += fa + fb
		fmt.Fprintf(tw, "%s\t%d/%d", w.Name, fa, fb)
		for _, m := range spec.EndToEnd {
			var v string
			var worse float64
			if bound, paired := pairedBounds[m.Name]; paired {
				v, worse = pairedVerdict(a.bySeed(w.Name, m.Name), b.bySeed(w.Name, m.Name), m.Better, bound)
			} else {
				v, worse = verdict(a.valuesOf(w.Name, m.Name), b.valuesOf(w.Name, m.Name), m.Better, m.Bound)
			}
			switch {
			case math.IsNaN(worse):
				missing++
				fmt.Fprintf(tw, "\t%s (no runs to compare)", v)
				continue
			case v == "regressed":
				regressed++
			}
			fmt.Fprintf(tw, "\t%s %+.2f%%", v, worse*100)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Println("(percentages: how much worse b's median — per seed: b's worst run — is than a's; negative = better)")
	if regressed > 0 || missing > 0 || failedOps > 0 {
		return fmt.Errorf("%d metric x workload pairs regressed, %d have no runs to compare, %d ops failed", regressed, missing, failedOps)
	}
	return nil
}
