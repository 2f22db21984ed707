package harness

import (
	"strings"
	"sync"
	"testing"

	"blaze"
)

// shared harness: the figure experiments reuse each other's runs, so the
// whole test file shares one memoized harness.
var (
	sharedOnce sync.Once
	shared     *Harness
)

func h(t *testing.T) *Harness {
	t.Helper()
	if testing.Short() {
		t.Skip("harness experiments are skipped in -short mode")
	}
	sharedOnce.Do(func() { shared = New() })
	return shared
}

func TestMatrixGetAndRender(t *testing.T) {
	m := &Matrix{
		Title: "t", Caption: "c", Unit: "u",
		Cols: []string{"a", "b"},
		Rows: []string{"r1"},
		Data: [][]float64{{1.5, 2.5}},
	}
	if v, ok := m.Get("r1", "b"); !ok || v != 2.5 {
		t.Fatalf("Get = %v %v", v, ok)
	}
	if _, ok := m.Get("zz", "b"); ok {
		t.Fatal("missing row should not resolve")
	}
	out := m.Render()
	for _, want := range []string{"t", "c", "a", "b", "r1", "1.500", "2.500", "[u]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownFigure(t *testing.T) {
	if _, err := New().Figure("99"); err == nil {
		t.Fatal("unknown figure should error")
	}
}

// Fig. 3 shape: eviction volumes differ across executors (skew).
func TestFig3EvictionSkew(t *testing.T) {
	m, err := h(t).Fig3()
	if err != nil {
		t.Fatal(err)
	}
	min, max := m.Data[0][0], m.Data[0][0]
	for _, row := range m.Data {
		if row[0] < min {
			min = row[0]
		}
		if row[0] > max {
			max = row[0]
		}
	}
	if max <= 0 {
		t.Fatal("no evictions recorded")
	}
	if max < min*1.15 {
		t.Fatalf("expected cross-executor eviction skew, got min=%v max=%v", min, max)
	}
}

// Fig. 4 shape: disk I/O is a major cost for the graph workloads under
// MEM+DISK Spark, largest for PageRank and smallest for LR (§3.2).
func TestFig4DiskShares(t *testing.T) {
	m, err := h(t).Fig4()
	if err != nil {
		t.Fatal(err)
	}
	share := func(w string) float64 {
		v, ok := m.Get(w, "DiskShare")
		if !ok {
			t.Fatalf("missing row %s", w)
		}
		return v
	}
	if share("PageRank") < 0.4 {
		t.Fatalf("PageRank disk share %v should dominate", share("PageRank"))
	}
	if share("LogisticRegression") >= share("PageRank") {
		t.Fatal("LR disk share should be below PageRank's")
	}
	for _, w := range []string{"PageRank", "ConnectedComponents", "KMeans", "GradientBoostedTrees", "SVD++"} {
		if share(w) <= 0 {
			t.Fatalf("%s share = %v, expected disk I/O under MEM+DISK", w, share(w))
		}
	}
}

// Fig. 5 shape: recomputation time grows over the iterations (longer
// lineages in later iterations).
func TestFig5RecomputeGrows(t *testing.T) {
	m, err := h(t).Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Rows) < 5 {
		t.Fatalf("expected per-iteration rows, got %d", len(m.Rows))
	}
	// Compare the average of the last third against the first third over
	// the iteration jobs (exclude the final collect job).
	n := len(m.Data) - 1
	third := n / 3
	early, late := 0.0, 0.0
	for i := 0; i < third; i++ {
		early += m.Data[i][0]
	}
	for i := n - third; i < n; i++ {
		late += m.Data[i][0]
	}
	if late <= early {
		t.Fatalf("recomputation should grow across iterations: early=%v late=%v", early, late)
	}
}

// Fig. 9 shape: Blaze has the lowest ACT on every workload, and the
// dependency-aware policies sit between Spark and Blaze.
func TestFig9BlazeWins(t *testing.T) {
	m, err := h(t).Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range m.Rows {
		blazeACT, _ := m.Get(w, "Blaze")
		for j, c := range m.Cols {
			if c == "Blaze" {
				continue
			}
			if m.Data[i][j] < blazeACT {
				t.Errorf("%s: %s (%.3fs) beat Blaze (%.3fs)", w, c, m.Data[i][j], blazeACT)
			}
		}
	}
	// LRC and MRD improve on plain MEM+DISK Spark for the pressured
	// graph workloads.
	for _, w := range []string{"PageRank"} {
		md, _ := m.Get(w, "Spark (MEM+DISK)")
		lrc, _ := m.Get(w, "LRC")
		if lrc > md*1.05 {
			t.Errorf("%s: LRC (%.3f) should not lose clearly to MEM+DISK (%.3f)", w, lrc, md)
		}
	}
	// Spark+Alluxio pays extra (de)serialization and loses to MEM+DISK.
	for _, w := range m.Rows {
		md, _ := m.Get(w, "Spark (MEM+DISK)")
		al, _ := m.Get(w, "Spark+Alluxio")
		if al < md {
			t.Errorf("%s: Alluxio (%.3f) should not beat MEM+DISK (%.3f)", w, al, md)
		}
	}
}

// Fig. 10 shape: Blaze's disk-I/O-for-caching time is far below
// MEM+DISK Spark's on the disk-heavy workloads.
func TestFig10BlazeReducesDiskIO(t *testing.T) {
	m, err := h(t).Fig10()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"PageRank", "ConnectedComponents", "SVD++"} {
		md, ok1 := m.Get(w, "Spark (MEM+DISK) io")
		bl, ok2 := m.Get(w, "Blaze io")
		if !ok1 || !ok2 {
			t.Fatalf("missing columns for %s", w)
		}
		if bl > md*0.5 {
			t.Errorf("%s: Blaze disk I/O %.3fs should be well below MEM+DISK's %.3fs", w, bl, md)
		}
	}
}

// Fig. 11 shape: each Blaze component improves (or at least does not
// hurt) the previous configuration, with the full system the fastest.
func TestFig11AblationOrdering(t *testing.T) {
	m, err := h(t).Fig11()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Rows {
		md, _ := m.Get(w, "Spark (MEM+DISK)")
		bl, _ := m.Get(w, "Blaze")
		ca, _ := m.Get(w, "+CostAware")
		if bl > md {
			t.Errorf("%s: Blaze (%.3f) should beat MEM+DISK (%.3f)", w, bl, md)
		}
		if bl > ca*1.02 {
			t.Errorf("%s: Blaze (%.3f) should not lose to +CostAware (%.3f)", w, bl, ca)
		}
	}
}

// Fig. 12 shape: without disk support, Blaze still beats MEM_ONLY Spark
// on recomputation time, and incurs no LR evictions at all (§7.4).
func TestFig12MemoryOnly(t *testing.T) {
	m, err := h(t).Fig12()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Rows {
		sparkRC, _ := m.Get(w, "Spark (MEM) rc")
		blazeRC, _ := m.Get(w, "Blaze (MEM) rc")
		if blazeRC > sparkRC {
			t.Errorf("%s: Blaze(MEM) recompute %.3fs exceeds Spark(MEM) %.3fs", w, blazeRC, sparkRC)
		}
	}
	ev, _ := m.Get("LogisticRegression", "Blaze (MEM) ev")
	if ev != 0 {
		t.Errorf("LR under Blaze should incur no evictions, got %v", ev)
	}
}

// Fig. 13 shape: profiling never hurts, and helps at least one workload
// substantially.
func TestFig13ProfilingHelps(t *testing.T) {
	m, err := h(t).Fig13()
	if err != nil {
		t.Fatal(err)
	}
	best := 1.0
	for i, w := range m.Rows {
		norm := m.Data[i][1]
		if norm > 1.1 {
			t.Errorf("%s: profiling made Blaze worse (normalized %.3f)", w, norm)
		}
		if norm < best {
			best = norm
		}
	}
	if best > 0.95 {
		t.Errorf("profiling should substantially help at least one workload, best normalized ACT = %.3f", best)
	}
}

// Summary shape: the §7.2 headline claims — Blaze speeds up every
// workload over both Spark modes and eliminates most cache disk writes.
func TestSummaryHeadlines(t *testing.T) {
	m, err := h(t).Summary()
	if err != nil {
		t.Fatal(err)
	}
	totalRed, n := 0.0, 0
	for i, w := range m.Rows {
		vsMem, vsMD, red := m.Data[i][0], m.Data[i][1], m.Data[i][2]
		if vsMem < 1.0 {
			t.Errorf("%s: speedup vs MEM_ONLY = %.2fx < 1", w, vsMem)
		}
		if vsMD < 1.0 {
			t.Errorf("%s: speedup vs MEM+DISK = %.2fx < 1", w, vsMD)
		}
		totalRed += red
		n++
	}
	if avg := totalRed / float64(n); avg < 0.7 {
		t.Errorf("average disk reduction %.2f; the paper reports 95%%", avg)
	}
}

// The PR working set grows well beyond the input size over the
// iterations (§1: intermediate data exceeds 10x input); we assert the
// blind-cached volume exceeds the graph several times over.
func TestWorkingSetGrowth(t *testing.T) {
	hh := h(t)
	r, err := hh.run(blaze.SysSparkMemDisk, blaze.PR)
	if err != nil {
		t.Fatal(err)
	}
	// Evicted bytes accumulate across iterations; they must exceed the
	// per-executor memory several times over.
	if r.Metrics.TotalEvictedBytes() < 3*r.MemoryPerExecutor {
		t.Errorf("PR working set too small: evicted %d vs memory %d",
			r.Metrics.TotalEvictedBytes(), r.MemoryPerExecutor)
	}
}

// The extension experiments must run and keep their defining shapes.
func TestExtensionSweepEnvelope(t *testing.T) {
	m, err := h(t).Sweep()
	if err != nil {
		t.Fatal(err)
	}
	// Blaze tracks the lower envelope: at every budget it is within 10%
	// of the best system.
	for i, row := range m.Data {
		best := row[0]
		for _, v := range row {
			if v < best {
				best = v
			}
		}
		blazeACT := row[len(row)-1]
		if blazeACT > best*1.1 {
			t.Errorf("row %s: Blaze %.3fs is not near the envelope %.3fs", m.Rows[i], blazeACT, best)
		}
	}
}

func TestExtensionDiskCapBinds(t *testing.T) {
	m, err := h(t).DiskCap()
	if err != nil {
		t.Fatal(err)
	}
	unconstrained := m.Data[0][1]
	tightest := m.Data[len(m.Data)-1][1]
	if tightest >= unconstrained {
		t.Fatalf("disk constraint did not reduce the peak: %v -> %v", unconstrained, tightest)
	}
}

func TestExtensionWindowRuns(t *testing.T) {
	m, err := h(t).Window()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range m.Data {
		// ACT and solver invocations must be positive; search nodes are
		// honest effort and legitimately zero when every solve is a
		// trivial knapsack.
		if row[0] <= 0 || row[1] <= 0 || row[2] < 0 {
			t.Fatalf("window row %s has zero metrics: %v", m.Rows[i], row)
		}
	}
}

func TestPolicyComparisonShape(t *testing.T) {
	m, err := h(t).Policies()
	if err != nil {
		t.Fatal(err)
	}
	lru, _ := m.Get("lru", "ACT")
	blazeACT, _ := m.Get("Blaze", "ACT")
	if blazeACT >= lru {
		t.Fatalf("Blaze (%.3f) should clearly beat LRU (%.3f)", blazeACT, lru)
	}
	// Conventional policies cluster near LRU (the §7.1 observation):
	// within ±40% of it.
	for _, p := range []string{"fifo", "lfu", "lfuda", "arc", "gdwheel", "tinylfu", "lecar"} {
		v, ok := m.Get(p, "ACT")
		if !ok {
			t.Fatalf("missing policy row %s", p)
		}
		if v < lru*0.6 || v > lru*1.4 {
			t.Errorf("policy %s ACT %.3f strays far from LRU %.3f", p, v, lru)
		}
	}
}

// Figures are deterministic: a second harness reproduces every number
// bit-for-bit.
func TestFiguresDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	a, err := New().Fig9()
	if err != nil {
		t.Fatal(err)
	}
	b, err := New().Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		for j := range a.Data[i] {
			if a.Data[i][j] != b.Data[i][j] {
				t.Fatalf("fig9[%d][%d] differs across harnesses: %v vs %v", i, j, a.Data[i][j], b.Data[i][j])
			}
		}
	}
}

func TestRenderJSON(t *testing.T) {
	m := &Matrix{Title: "t", Unit: "u", Cols: []string{"c"}, Rows: []string{"r"}, Data: [][]float64{{1}}}
	js, err := m.RenderJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"title": "t"`, `"cols"`, `"data"`} {
		if !strings.Contains(js, want) {
			t.Fatalf("JSON missing %q:\n%s", want, js)
		}
	}
}

func TestExtensionCoresNarrowsGap(t *testing.T) {
	m, err := h(t).CoresExperiment()
	if err != nil {
		t.Fatal(err)
	}
	// More cores speed everything up and Blaze stays fastest per row.
	for i, row := range m.Data {
		blazeACT := row[len(row)-1]
		for j, v := range row[:len(row)-1] {
			if v < blazeACT {
				t.Errorf("row %s: %s (%.3f) beat Blaze (%.3f)", m.Rows[i], m.Cols[j], v, blazeACT)
			}
		}
	}
	// The MEM_ONLY : MEM+DISK ratio narrows with cores (the deviation-1
	// evidence in EXPERIMENTS.md).
	ratio := func(row []float64) float64 { return row[0] / row[1] }
	if ratio(m.Data[len(m.Data)-1]) >= ratio(m.Data[0]) {
		t.Errorf("MEM:M+D ratio should narrow with cores: %v -> %v",
			ratio(m.Data[0]), ratio(m.Data[len(m.Data)-1]))
	}
}

func TestFigureDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	hh := h(t)
	for _, name := range AllFigures() {
		m, err := hh.Figure(name)
		if err != nil {
			t.Fatalf("figure %s: %v", name, err)
		}
		if len(m.Rows) == 0 || len(m.Cols) == 0 {
			t.Fatalf("figure %s is empty", name)
		}
		if out := m.Render(); len(out) == 0 {
			t.Fatalf("figure %s renders empty", name)
		}
	}
}
