package main

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// endToEndNames is what an untraced run must report, in order.
var endToEndNames = []string{
	"wall_p50_ref", "wall_p75_ref", "records_per_ref", "cpu_ref_per_op", "act_virtual_s",
	"allocs_per_record", "alloc_bytes_per_record", "peak_rss_mb", "setup_s",
}

func smokeOptions(t *testing.T) options {
	t.Helper()
	dir := t.TempDir()
	// RealBytes runs put their spill directory under the OS temp dir.
	t.Setenv("TMPDIR", dir)
	return options{seed: 7, ops: 2, setups: 2, outDir: filepath.Join(dir, "out"), workDir: dir}
}

// TestSmoke runs every workload, shrunk, for two ops untraced and two
// ops traced: the benchmark keeps compiling, its oracle keeps holding
// every configuration to the reference, and the decorators of the
// traced path keep changing no decision.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		def := workloads[i].shrunk()
		t.Run(def.Name, func(t *testing.T) {
			o := smokeOptions(t)
			rep, err := runTimed(&def, o)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted < o.ops {
				t.Fatalf("untraced: %d of %d ops failed: %s", rep.Failed, rep.Attempted, rep.firstFailure)
			}
			for _, name := range endToEndNames {
				if m, ok := rep.Metrics[name]; !ok || !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive value", name, m.Value)
				}
			}
			if len(rep.Metrics) != len(endToEndNames) {
				t.Errorf("untraced run reports %d metrics, want %d", len(rep.Metrics), len(endToEndNames))
			}
			// The times as measured are printed, not bounded.
			for _, name := range []string{"wall_p50_s", "wall_p75_s", "records_per_s", "cpu_s_per_op", "setup_wall_s"} {
				if !slices.ContainsFunc(rep.shown, func(m shownMetric) bool { return m.name == name && m.Value > 0 }) {
					t.Errorf("untraced run does not print a positive %s", name)
				}
			}

			rep, err = runTraced(&def, o)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("traced: %d of %d ops failed: %s", rep.Failed, rep.Attempted, rep.firstFailure)
			}
			for _, lm := range layerMetrics {
				if _, ok := rep.Metrics[lm.Name]; !ok {
					t.Errorf("traced run does not report %s", lm.Name)
				}
			}
			if rep.Metrics["engine.tasks"].Value == 0 || rep.Metrics["trace.attributed_share"].Value == 0 {
				t.Errorf("traced run recorded no task spans: %+v", rep.Metrics["engine.tasks"])
			}
			if _, err := os.Stat(filepath.Join(o.outDir, def.Name+".trace.json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the code together: same
// workloads, same end-to-end names, same per-layer table.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndNames) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(spec.EndToEnd), len(endToEndNames))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEndNames[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %q, code %q", i, m.Name, endToEndNames[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m != layerMetrics[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, m, layerMetrics[i])
		}
	}
}

// TestLayerDriversAnnotateKnownWorkloads catches a driver left behind
// by a renamed workload or metric.
func TestLayerDriversAnnotateKnownWorkloads(t *testing.T) {
	declared := map[string]bool{}
	for _, lm := range layerMetrics {
		declared[lm.Name] = true
	}
	for _, ld := range layerDrivers {
		if !declared[ld.metric] {
			t.Errorf("driver metric %s is not in layerMetrics", ld.metric)
		}
		for _, w := range ld.on {
			if _, err := findWorkload(w); err != nil {
				t.Errorf("driver %s: %v", ld.metric, err)
			}
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if got := quartileSpread([]float64{3, 1, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread of three = %v, want 1", got)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0}
	cases := []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, steady, "lower", "ok"},
		{"slower time", steady, scale(steady, 1.2), "lower", "regressed"},
		{"faster time", steady, scale(steady, 0.8), "lower", "ok"},
		{"lower throughput", steady, scale(steady, 0.8), "higher", "regressed"},
		{"higher throughput", steady, scale(steady, 1.2), "higher", "ok"},
		{"too noisy to tell", steady, noisy, "lower", "unresolved"},
		{"b has no runs", steady, nil, "lower", "unresolved"},
		{"a has no runs", nil, steady, "lower", "unresolved"},
	}
	for _, c := range cases {
		got, worse := verdict(c.a, c.b, c.better, 0.10)
		if got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
		if missing := len(c.a) == 0 || len(c.b) == 0; math.IsNaN(worse) != missing {
			t.Errorf("%s: worse %v, NaN exactly when a side has no runs", c.name, worse)
		}
	}
}

// TestPairedVerdict: a deterministic metric is held to its bound seed by
// seed, so a change the spread between seeds would hide still shows.
func TestPairedVerdict(t *testing.T) {
	a := map[int64]float64{1: 1.00, 2: 1.10, 3: 0.90}
	cases := []struct {
		name string
		b    map[int64]float64
		want string
	}{
		{"same", map[int64]float64{1: 1.00, 2: 1.10, 3: 0.90}, "ok"},
		{"one seed 1 % worse", map[int64]float64{1: 1.00, 2: 1.111, 3: 0.90}, "regressed"},
		{"all better", map[int64]float64{1: 0.90, 2: 1.00, 3: 0.80}, "ok"},
		{"other seeds", map[int64]float64{1: 1.00, 2: 1.10, 4: 0.90}, "unresolved"},
		{"fewer seeds", map[int64]float64{1: 1.00}, "unresolved"},
		{"no runs", nil, "unresolved"},
	}
	for _, c := range cases {
		if got, _ := pairedVerdict(a, c.b, "lower", 0.005); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestAnalyzeSelfTimes checks the span arithmetic on a hand-built op:
// one job of 100 with two overlapping tasks on two executors, one of
// them holding a 10-long controller callback with a nested one inside.
func TestAnalyzeSelfTimes(t *testing.T) {
	mk := func(id, parent int, kind spanKind, start, end int64, nested bool) flatSpan {
		return flatSpan{id: id, parent: parent, span: span{start: start, end: end, kind: kind, nested: nested}}
	}
	spans := []flatSpan{
		mk(0, -1, spanOp, 0, 120, false),
		mk(1, 0, spanDriver, 5, 115, false),
		mk(2, 1, spanJob, 10, 110, false),
		mk(3, 2, spanStage, 10, 100, false),
		mk(4, 3, spanTask, 20, 60, false),
		mk(5, 3, spanTask, 40, 90, false),
		mk(6, 4, spanCtlSelectVictims, 30, 40, false),
		mk(7, 6, spanCtlOnBlockRemoved, 32, 35, true),
	}
	tot := analyze(spans)
	check := func(name string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	check("ops", int64(tot.ops), 1)
	check("op wall", tot.opWall, 120)
	check("attributed", tot.attributed, 110)
	check("driver self", tot.driverSelf, 10)
	check("task self", tot.taskSelf, (40-10)+50)
	check("task sum", tot.taskSum, 90)
	check("task union", tot.taskUnion, 70)
	check("dispatch", tot.dispatch, 30)
	check("controller time", tot.ctlNs(), 10)
	check("controller calls", int64(tot.ctlCalls()), 1)
}
