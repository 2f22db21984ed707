package harness

import (
	"fmt"

	"blaze"
)

// Sweep is an extension experiment: ACT as a function of the memory
// budget for the three headline systems on PageRank. It maps out the §4
// trade-off space — recomputation-based caching collapses under pressure,
// checkpoint-based caching pays disk I/O even with plenty of memory, and
// Blaze tracks the lower envelope.
func (h *Harness) Sweep() (*Matrix, error) {
	// Below ~25% the store cannot hold even a couple of partitions of a
	// dataset — a degenerate regime for every system — so the sweep
	// starts where caching decisions are meaningful.
	fractions := []float64{0.25, 0.4, 0.55, 0.7, 0.85}
	systems := []blaze.SystemID{blaze.SysSparkMem, blaze.SysSparkMemDisk, blaze.SysBlaze}
	m := &Matrix{
		Title:   "Extension: memory-budget sensitivity (PageRank)",
		Caption: "ACT versus memory-store capacity (fraction of the calibrated peak).",
		Unit:    "seconds (ACT)",
	}
	for _, s := range systems {
		m.Cols = append(m.Cols, titles[s])
	}
	for _, f := range fractions {
		row := make([]float64, len(systems))
		for j, s := range systems {
			r, err := blaze.Run(blaze.RunConfig{
				System:         s,
				Workload:       blaze.PR,
				Executors:      h.Executors,
				Scale:          h.Scale,
				MemoryFraction: f,
			})
			if err != nil {
				return nil, err
			}
			row[j] = seconds(r.Metrics.ACT)
		}
		m.Rows = append(m.Rows, fmt.Sprintf("%.0f%%", f*100))
		m.Data = append(m.Data, row)
	}
	return m, nil
}

// Window is an extension ablation for the ILP optimization window: §5.5
// bounds the objective to "the current job and its successive job" to
// keep solves fast; this experiment varies how many successor jobs the
// window covers.
func (h *Harness) Window() (*Matrix, error) {
	m := &Matrix{
		Title:   "Extension: ILP optimization window (PageRank)",
		Caption: "Number of successor jobs the ILP objective covers (the paper uses 1).",
		Unit:    "seconds | solver invocations | search nodes",
		Cols:    []string{"ACT", "ILPSolves", "ILPNodes"},
	}
	for _, w := range []int{0, 1, 2, 4} {
		r, err := runBlazeWithWindow(h, w)
		if err != nil {
			return nil, err
		}
		m.Rows = append(m.Rows, fmt.Sprintf("window=%d", w))
		m.Data = append(m.Data, []float64{seconds(r.Metrics.ACT), float64(r.Metrics.ILPSolves), float64(r.Metrics.ILPNodes)})
	}
	return m, nil
}

// Cores is an extension experiment: per-executor core counts. The
// paper's executors run 4 cores each, so task latencies — including
// recomputation cascades — overlap; our default simulation uses 1 core,
// which over-penalizes recomputation-based MEM_ONLY Spark (the main
// deviation EXPERIMENTS.md documents). This experiment quantifies that:
// with more cores the MEM_ONLY : MEM+DISK gap narrows toward the paper's.
func (h *Harness) CoresExperiment() (*Matrix, error) {
	systems := []blaze.SystemID{blaze.SysSparkMem, blaze.SysSparkMemDisk, blaze.SysBlaze}
	m := &Matrix{
		Title:   "Extension: cores per executor (PageRank)",
		Caption: "Recomputation cascades overlap across cores, narrowing MEM_ONLY's penalty (the paper's executors run 4 cores).",
		Unit:    "seconds (ACT)",
	}
	for _, s := range systems {
		m.Cols = append(m.Cols, titles[s])
	}
	for _, cores := range []int{1, 2, 4} {
		row := make([]float64, len(systems))
		for j, s := range systems {
			r, err := blaze.Run(blaze.RunConfig{
				System:    s,
				Workload:  blaze.PR,
				Executors: h.Executors,
				Scale:     h.Scale,
				Cores:     cores,
			})
			if err != nil {
				return nil, err
			}
			row[j] = seconds(r.Metrics.ACT)
		}
		m.Rows = append(m.Rows, fmt.Sprintf("%d-core", cores))
		m.Data = append(m.Data, row)
	}
	return m, nil
}

// runBlazeWithWindow runs Blaze on PR with a custom ILP window
// (window=0 means the current job only).
func runBlazeWithWindow(h *Harness, window int) (*blaze.Result, error) {
	w := window
	if w == 0 {
		w = blaze.ILPWindowCurrentJobOnly
	}
	return blaze.Run(blaze.RunConfig{
		System:         blaze.SysBlaze,
		Workload:       blaze.PR,
		Executors:      h.Executors,
		Scale:          h.Scale,
		MemoryFraction: 0.35,
		ILPWindow:      w,
	})
}
