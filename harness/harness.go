// Package harness defines the evaluation experiments: one function per
// figure of the paper's evaluation (§7), each returning both a rendered
// text table and the raw numbers so tests can assert the qualitative
// shapes the paper reports.
package harness

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"blaze"
)

// Matrix is a rectangular experiment result: rows × columns of float64
// values with labels, rendered as an aligned text table.
type Matrix struct {
	Title   string
	Caption string
	Unit    string
	Cols    []string
	Rows    []string
	Data    [][]float64
}

// Get returns the value at (row, col) labels; false if absent.
func (m *Matrix) Get(row, col string) (float64, bool) {
	ri, ci := -1, -1
	for i, r := range m.Rows {
		if r == row {
			ri = i
		}
	}
	for j, c := range m.Cols {
		if c == col {
			ci = j
		}
	}
	if ri < 0 || ci < 0 {
		return 0, false
	}
	return m.Data[ri][ci], true
}

// Render formats the matrix as an aligned text table.
func (m *Matrix) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", m.Title)
	if m.Caption != "" {
		fmt.Fprintf(&b, "%s\n", m.Caption)
	}
	width := 12
	for _, c := range m.Cols {
		if len(c)+2 > width {
			width = len(c) + 2
		}
	}
	labelW := 10
	for _, r := range m.Rows {
		if len(r)+2 > labelW {
			labelW = len(r) + 2
		}
	}
	fmt.Fprintf(&b, "%-*s", labelW, "")
	for _, c := range m.Cols {
		fmt.Fprintf(&b, "%*s", width, c)
	}
	fmt.Fprintf(&b, "  [%s]\n", m.Unit)
	for i, r := range m.Rows {
		fmt.Fprintf(&b, "%-*s", labelW, r)
		for j := range m.Cols {
			fmt.Fprintf(&b, "%*.3f", width, m.Data[i][j])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// RenderJSON formats the matrix as a single JSON object for external
// tooling.
func (m *Matrix) RenderJSON() (string, error) {
	out, err := json.MarshalIndent(struct {
		Title   string      `json:"title"`
		Caption string      `json:"caption"`
		Unit    string      `json:"unit"`
		Cols    []string    `json:"cols"`
		Rows    []string    `json:"rows"`
		Data    [][]float64 `json:"data"`
	}{m.Title, m.Caption, m.Unit, m.Cols, m.Rows, m.Data}, "", "  ")
	if err != nil {
		return "", fmt.Errorf("harness: marshal: %w", err)
	}
	return string(out), nil
}

// Harness runs experiments with memoized application runs: the figure
// experiments share many (system, workload) runs.
type Harness struct {
	// Executors for every run (default 8).
	Executors int
	// Scale scales every workload's input (default 1).
	Scale float64

	mu    sync.Mutex
	cache map[string]*blaze.Result
}

// New creates a harness.
func New() *Harness {
	return &Harness{Executors: 8, Scale: 1.0, cache: make(map[string]*blaze.Result)}
}

// run executes (or returns the memoized) run of workload w under system s.
func (h *Harness) run(s blaze.SystemID, w blaze.WorkloadID) (*blaze.Result, error) {
	key := string(s) + "/" + string(w)
	h.mu.Lock()
	if r, ok := h.cache[key]; ok {
		h.mu.Unlock()
		return r, nil
	}
	h.mu.Unlock()
	r, err := blaze.Run(blaze.RunConfig{
		System:    s,
		Workload:  w,
		Executors: h.Executors,
		Scale:     h.Scale,
	})
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.cache[key] = r
	h.mu.Unlock()
	return r, nil
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// workloadTitles maps ids to the paper's display names.
func workloadTitle(w blaze.WorkloadID) string {
	spec, err := blaze.Workload(w)
	if err != nil {
		return string(w)
	}
	return spec.Title
}

// titles maps system ids to their display titles in the facade's
// system table.
var titles = func() map[blaze.SystemID]string {
	m := make(map[blaze.SystemID]string)
	for _, s := range blaze.Systems() {
		m[s.ID] = s.Title
	}
	return m
}()
