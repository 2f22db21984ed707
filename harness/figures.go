package harness

import (
	"fmt"

	"blaze"
)

// Fig3 reproduces Figure 3: caching at dataset granularity causes
// different volumes of evicted data across executors, here on PageRank
// under annotation-based MEM+DISK Spark.
func (h *Harness) Fig3() (*Matrix, error) {
	r, err := h.run(blaze.SysSparkMemDisk, blaze.PR)
	if err != nil {
		return nil, err
	}
	m := &Matrix{
		Title:   "Figure 3: Evicted data per executor (PageRank, dataset-granularity caching)",
		Caption: "Coarse-grained caching evicts different volumes on different executors despite even task distribution.",
		Unit:    "KB evicted",
		Cols:    []string{"Evicted"},
	}
	for i := range r.Metrics.Executors {
		m.Rows = append(m.Rows, fmt.Sprintf("executor-%d", i+1))
		m.Data = append(m.Data, []float64{float64(r.Metrics.Executors[i].EvictedBytes) / 1024})
	}
	return m, nil
}

// Fig4 reproduces Figure 4: the accumulated task execution time of the
// six applications on MEM+DISK Spark, split into disk I/O for caching
// versus computation+shuffle.
func (h *Harness) Fig4() (*Matrix, error) {
	m := &Matrix{
		Title:   "Figure 4: Accumulated task execution time breakdown (MEM+DISK Spark)",
		Caption: "Disk I/O for recovering evicted cache data (incl. (de)serialization) vs computation+shuffle.",
		Unit:    "seconds (accumulated over tasks); share = diskIO/total",
		Cols:    []string{"DiskIO", "Comp+Shuffle", "DiskShare"},
	}
	for _, w := range blaze.AllWorkloads() {
		r, err := h.run(blaze.SysSparkMemDisk, w)
		if err != nil {
			return nil, err
		}
		b := r.Metrics.TotalBreakdown()
		share := 0.0
		if b.Total() > 0 {
			share = b.DiskIO.Seconds() / b.Total().Seconds()
		}
		m.Rows = append(m.Rows, workloadTitle(w))
		m.Data = append(m.Data, []float64{seconds(b.DiskIO), seconds(b.ComputeShuffle()), share})
	}
	return m, nil
}

// Fig5 reproduces Figure 5: total recomputation time per iteration of
// PageRank under recomputation-based MEM_ONLY Spark — recomputation
// chains lengthen over the iterations.
func (h *Harness) Fig5() (*Matrix, error) {
	r, err := h.run(blaze.SysSparkMem, blaze.PR)
	if err != nil {
		return nil, err
	}
	m := &Matrix{
		Title:   "Figure 5: Recomputation time per iteration (PageRank, MEM_ONLY Spark)",
		Caption: "Computations with longer lineages in later iterations incur more recomputation.",
		Unit:    "seconds (accumulated over tasks)",
		Cols:    []string{"Recompute"},
	}
	for i, d := range r.Metrics.RecomputeByJob {
		m.Rows = append(m.Rows, fmt.Sprintf("iteration-%d", i+1))
		m.Data = append(m.Data, []float64{seconds(d)})
	}
	return m, nil
}

// Fig9 reproduces Figure 9: end-to-end application completion time of
// the six systems on the six workloads.
func (h *Harness) Fig9() (*Matrix, error) {
	return h.systemGrid(&Matrix{
		Title:   "Figure 9: End-to-end application completion time",
		Caption: "Six caching systems across the six workloads (Blaze includes profiling overhead).",
		Unit:    "seconds (ACT)",
	}, blaze.Fig9Systems(), blaze.AllWorkloads(), []string{""}, act)
}

// Fig10 reproduces Figure 10: the accumulated task-time breakdown of
// every system on every workload (disk-I/O-for-caching bucket; for
// Spark+Alluxio this is the Alluxio I/O time).
func (h *Harness) Fig10() (*Matrix, error) {
	return h.systemGrid(&Matrix{
		Title:   "Figure 10: Accumulated task time breakdown (diskIO | comp+shuffle)",
		Caption: "Per system and workload: cache-recovery I/O time and computation+shuffle time.",
		Unit:    "seconds (accumulated)",
	}, blaze.Fig9Systems(), blaze.AllWorkloads(), []string{" io", " cs"}, func(r *blaze.Result) []float64 {
		b := r.Metrics.TotalBreakdown()
		return []float64{seconds(b.DiskIO), seconds(b.ComputeShuffle())}
	})
}

// Fig11 reproduces Figure 11: the performance breakdown of Blaze's
// components — MEM+DISK Spark, +AutoCache, +CostAware, full Blaze.
func (h *Harness) Fig11() (*Matrix, error) {
	return h.systemGrid(&Matrix{
		Title:   "Figure 11: Performance breakdown of Blaze components",
		Caption: "Each column adds one mechanism: automatic caching, cost-aware eviction, and the ILP decision layer.",
		Unit:    "seconds (ACT)",
	}, []blaze.SystemID{blaze.SysSparkMemDisk, blaze.SysAutoCache, blaze.SysCostAware, blaze.SysBlaze}, blaze.AllWorkloads(), []string{""}, act)
}

// Fig12Workloads lists the §7.4 workloads.
func Fig12Workloads() []blaze.WorkloadID {
	return []blaze.WorkloadID{blaze.PR, blaze.CC, blaze.LR, blaze.SVDPP}
}

// Fig12 reproduces Figure 12: the number of evictions and the total
// recomputation time of the memory-only systems.
func (h *Harness) Fig12() (*Matrix, error) {
	return h.systemGrid(&Matrix{
		Title:   "Figure 12: Evictions and recomputation time without disk support",
		Caption: "Memory-only variants: eviction counts (left) and accumulated recomputation time (right).",
		Unit:    "count | seconds",
	}, []blaze.SystemID{blaze.SysSparkMem, blaze.SysLRCMem, blaze.SysMRDMem, blaze.SysBlazeMem}, Fig12Workloads(), []string{" ev", " rc"}, func(r *blaze.Result) []float64 {
		return []float64{float64(r.Metrics.Evictions), seconds(r.Metrics.TotalRecompute())}
	})
}

// systemGrid fills m with one row per workload and, per system, one
// column per suffix, titled by the system's title plus the suffix; cells
// reads a run's values in suffix order.
func (h *Harness) systemGrid(m *Matrix, systems []blaze.SystemID, workloads []blaze.WorkloadID, suffixes []string, cells func(*blaze.Result) []float64) (*Matrix, error) {
	for _, s := range systems {
		for _, suffix := range suffixes {
			m.Cols = append(m.Cols, titles[s]+suffix)
		}
	}
	for _, w := range workloads {
		row := make([]float64, 0, len(m.Cols))
		for _, s := range systems {
			r, err := h.run(s, w)
			if err != nil {
				return nil, err
			}
			row = append(row, cells(r)...)
		}
		m.Rows = append(m.Rows, workloadTitle(w))
		m.Data = append(m.Data, row)
	}
	return m, nil
}

// act reads a run's ACT.
func act(r *blaze.Result) []float64 { return []float64{seconds(r.Metrics.ACT)} }

// Fig13 reproduces Figure 13: Blaze with and without the dependency
// extraction (profiling) phase, ACT normalized to the with-profiling run.
func (h *Harness) Fig13() (*Matrix, error) {
	m := &Matrix{
		Title:   "Figure 13: Normalized ACT with and without dependency profiling",
		Caption: "Without profiling the lineage is built on the run, underestimating future references (profiling overhead is included in the with-profiling ACT).",
		Unit:    "normalized ACT (w/ profiling = 1.0)",
		Cols:    []string{"Blaze w/o Profiling", "Blaze w/ Profiling"},
	}
	for _, w := range Fig12Workloads() {
		with, err := h.run(blaze.SysBlaze, w)
		if err != nil {
			return nil, err
		}
		without, err := h.run(blaze.SysBlazeNoProfile, w)
		if err != nil {
			return nil, err
		}
		base := seconds(without.Metrics.ACT)
		norm := 1.0
		if base > 0 {
			norm = seconds(with.Metrics.ACT) / base
		}
		m.Rows = append(m.Rows, workloadTitle(w))
		m.Data = append(m.Data, []float64{1.0, norm})
	}
	return m, nil
}

// Summary reproduces the §7.2 headline numbers: Blaze's speedups over
// MEM_ONLY and MEM+DISK Spark and the reduction in cache data written to
// disk.
func (h *Harness) Summary() (*Matrix, error) {
	m := &Matrix{
		Title:   "Summary (§7.2): Blaze speedups and disk reduction",
		Caption: "Speedup = baseline ACT / Blaze ACT; disk reduction = 1 - BlazeDiskBytes/MEM+DISK DiskBytes.",
		Unit:    "x | x | fraction",
		Cols:    []string{"vs MEM", "vs MEM+DISK", "DiskReduction"},
	}
	for _, w := range blaze.AllWorkloads() {
		mem, err := h.run(blaze.SysSparkMem, w)
		if err != nil {
			return nil, err
		}
		md, err := h.run(blaze.SysSparkMemDisk, w)
		if err != nil {
			return nil, err
		}
		bl, err := h.run(blaze.SysBlaze, w)
		if err != nil {
			return nil, err
		}
		blACT := seconds(bl.Metrics.ACT)
		red := 0.0
		if md.Metrics.DiskBytesWritten > 0 {
			red = 1 - float64(bl.Metrics.DiskBytesWritten)/float64(md.Metrics.DiskBytesWritten)
		}
		m.Rows = append(m.Rows, workloadTitle(w))
		m.Data = append(m.Data, []float64{
			seconds(mem.Metrics.ACT) / blACT,
			seconds(md.Metrics.ACT) / blACT,
			red,
		})
	}
	return m, nil
}

// Policies reproduces the conventional-policy comparison the paper
// summarizes in §7.1: classic and learning-based eviction policies show
// marginal improvements, if any, over the default LRU, while the
// dependency-aware policies and Blaze clearly improve — which is why the
// paper plots only LRC, MRD and Blaze.
func (h *Harness) Policies() (*Matrix, error) {
	policies := []string{"lru", "fifo", "lfu", "lfuda", "arc", "gdwheel", "tinylfu", "lecar"}
	m := &Matrix{
		Title:   "Policy comparison (§7.1): conventional eviction policies on MEM+DISK Spark",
		Caption: "Conventional policies barely move ACT versus LRU; dependency-aware LRC/MRD and Blaze do.",
		Unit:    "seconds (ACT), PageRank",
		Cols:    []string{"ACT"},
	}
	for _, p := range policies {
		r, err := h.run(blaze.PolicySystem(p), blaze.PR)
		if err != nil {
			return nil, err
		}
		m.Rows = append(m.Rows, p)
		m.Data = append(m.Data, []float64{seconds(r.Metrics.ACT)})
	}
	for _, s := range []blaze.SystemID{blaze.SysLRC, blaze.SysMRD, blaze.SysBlaze} {
		r, err := h.run(s, blaze.PR)
		if err != nil {
			return nil, err
		}
		m.Rows = append(m.Rows, titles[s])
		m.Data = append(m.Data, []float64{seconds(r.Metrics.ACT)})
	}
	return m, nil
}

// DiskCap is an extension experiment for the Eq. 6 disk-capacity
// constraint (§5.5 notes the ILP "can be simply extended" with it; the
// paper sets disk capacity abundant). Shrinking the disk budget forces
// the exact branch-and-bound solver to trade spills for recomputation.
func (h *Harness) DiskCap() (*Matrix, error) {
	caps := []struct {
		label string
		bytes int64
	}{
		{"unconstrained", 0},
		{"32KB/exec", 32 * 1024},
		{"8KB/exec", 8 * 1024},
		{"2KB/exec", 2 * 1024},
	}
	m := &Matrix{
		Title:   "Extension: Blaze under a disk capacity constraint (Eq. 6)",
		Caption: "Tight disk budgets push the decision layer from spilling toward recomputation (SVD++).",
		Unit:    "seconds | bytes",
		Cols:    []string{"ACT", "DiskPeak"},
	}
	for _, c := range caps {
		r, err := blaze.Run(blaze.RunConfig{
			System:       blaze.SysBlaze,
			Workload:     blaze.SVDPP,
			Executors:    h.Executors,
			Scale:        h.Scale,
			DiskCapacity: c.bytes,
		})
		if err != nil {
			return nil, err
		}
		m.Rows = append(m.Rows, c.label)
		m.Data = append(m.Data, []float64{seconds(r.Metrics.ACT), float64(r.Metrics.DiskPeakBytes)})
	}
	return m, nil
}

// Figure runs the experiment for a figure number ("3".."13") or
// "summary".
func (h *Harness) Figure(name string) (*Matrix, error) {
	switch name {
	case "3":
		return h.Fig3()
	case "4":
		return h.Fig4()
	case "5":
		return h.Fig5()
	case "9":
		return h.Fig9()
	case "10":
		return h.Fig10()
	case "11":
		return h.Fig11()
	case "12":
		return h.Fig12()
	case "13":
		return h.Fig13()
	case "summary":
		return h.Summary()
	case "policies":
		return h.Policies()
	case "diskcap":
		return h.DiskCap()
	case "sweep":
		return h.Sweep()
	case "window":
		return h.Window()
	case "cores":
		return h.CoresExperiment()
	default:
		return nil, fmt.Errorf("harness: unknown figure %q (have 3,4,5,9,10,11,12,13,summary,policies,diskcap,sweep,window,cores)", name)
	}
}

// AllFigures lists the reproducible figure names in order.
func AllFigures() []string {
	return []string{"3", "4", "5", "9", "10", "11", "12", "13", "summary", "policies", "diskcap", "sweep", "window", "cores"}
}
