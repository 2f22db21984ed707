package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run sets the workload up from scratch
// by default, each time on another generated input; setup_s is the
// median.
const setupReps = 3

// minOps is the fewest ops a run times however short -seconds is.
const minOps = 4

// refEvery is the op time after which a unit gets a further reading of
// the reference kernel: about one batch op.
const refEvery = 300 * time.Millisecond

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's result: the object printed as the last line of
// standard output, plus the header and table printed above it.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	workload     string
	seed         int64
	notes        []string
	order        []string
	shown        []shownMetric
	firstFailure string
}

type shownMetric struct {
	name string
	metricValue
}

func newReport(def *workloadDef, seed int64) *report {
	return &report{Metrics: map[string]metricValue{}, workload: def.Name, seed: seed}
}

func (r *report) set(name string, value float64, unit string) {
	if _, seen := r.Metrics[name]; !seen {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metricValue{Value: value, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count folds a batch of ops into attempted/failed.
func (r *report) count(ops []opResult) {
	for _, op := range ops {
		r.Attempted++
		if op.fail != "" {
			r.Failed++
			if r.firstFailure == "" {
				r.firstFailure = op.fail
			}
		}
	}
}

// ok reports whether every attempted op passed its checks.
func (r *report) ok() bool { return r.Failed == 0 && r.Attempted > 0 }

// header is written above every result so a number is never read
// without the machine and build it came from.
type header struct {
	HostCores   int    `json:"host_cores"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Parallelism int    `json:"engine_parallelism"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
}

// commit is set by run.sh at link time; under plain `go run` the
// toolchain's VCS stamp is used instead.
var commit string

func currentHeader() header {
	h := header{
		HostCores:   runtime.NumCPU(),
		GOMAXPROCS:  parallelism(),
		Parallelism: parallelism(),
		GoVersion:   runtime.Version(),
		Commit:      commit,
	}
	if bi, ok := debug.ReadBuildInfo(); ok && h.Commit == "" {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	return h
}

func (r *report) print(w io.Writer) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	h := currentHeader()
	fmt.Fprintf(bw, "# workload %s seed %d: closed loop, 1 client\n", r.workload, r.seed)
	fmt.Fprintf(bw, "# host_cores %d gomaxprocs %d engine_parallelism<=%d go %s commit %s\n",
		h.HostCores, h.GOMAXPROCS, h.Parallelism, h.GoVersion, h.Commit)
	for _, n := range r.notes {
		fmt.Fprintf(bw, "# %s\n", n)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(bw, "%-36s %16s %s\n", name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	for _, m := range r.shown {
		fmt.Fprintf(bw, "%-36s %16s %s\n", m.name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	fmt.Fprintf(bw, "%s\n", line)
}

// show adds a row to the printed table only: a value worth reading that
// BENCHMARK.json puts no bound on, so it is not in the result object.
func (r *report) show(name string, value float64, unit string) {
	r.shown = append(r.shown, shownMetric{name, metricValue{value, unit}})
}

// inputStats is what the timed ops on one generated input add up to.
// walls and cpus are as measured; nets are the walls net of steal, which
// the *_ref metrics are taken from. All in seconds.
type inputStats struct {
	walls, cpus, nets   []float64
	wall, net           float64
	records             float64
	mallocs, allocBytes uint64
	act                 time.Duration
}

// runTimed is the untraced run: set up, then time ops in a closed loop
// for -seconds and report the end-to-end metrics. The ops rotate over
// the inputs of all the set-ups; every metric is computed per input and
// the median input is reported, so one generated graph whose plan
// happens to evict differently does not decide a run.
func runTimed(def *workloadDef, o options) (*report, error) {
	ins, setups, refs, err := setUpRepeatedly(def, o)
	if err != nil {
		return nil, err
	}
	rep := newReport(def, o.seed)
	next := 0
	ops, opRefs := timedLoop(o, func() []opResult {
		in := ins[next%len(ins)]
		next++
		return in.timedUnit()
	})
	refs = append(refs, opRefs...)
	rep.count(ops)
	if rep.Attempted == 0 {
		return nil, fmt.Errorf("%s: no op completed", def.Name)
	}

	byInput := map[int64]*inputStats{}
	var wall, steal time.Duration
	var disk int64
	var records float64
	for i, op := range ops {
		st := byInput[op.input]
		if st == nil {
			st = &inputStats{act: op.act}
			byInput[op.input] = st
		} else if op.act != st.act && op.fail == "" {
			rep.Failed++
			if rep.firstFailure == "" {
				rep.firstFailure = fmt.Sprintf("op %d: virtual ACT %v differs from %v on the same input", i, op.act, st.act)
			}
		}
		net := op.raw.net().Seconds()
		st.walls = append(st.walls, op.raw.wall.Seconds())
		st.cpus = append(st.cpus, op.raw.cpu.Seconds())
		st.nets = append(st.nets, net)
		st.wall += op.raw.wall.Seconds()
		st.net += net
		st.records += float64(op.records)
		st.mallocs += op.mallocs
		st.allocBytes += op.allocBytes
		wall += op.raw.wall
		steal += op.raw.steal
		disk += op.disk
		records += float64(op.records)
	}
	// over reports the median input's value of a per-input statistic.
	over := func(f func(*inputStats) float64) float64 {
		var vals []float64
		for _, st := range byInput {
			vals = append(vals, f(st))
		}
		return median(vals)
	}
	fewest := len(ops)
	for _, st := range byInput {
		fewest = min(fewest, len(st.walls))
	}
	// ref is the run's one reference time: the mean over its readings, one
	// around every set-up and every timed unit. An op lasts a hundred
	// kernels and more and so sees the host's average speed; two readings
	// beside it would say little about that, all of them together do.
	ref := mean(refs)
	rep.note("ops %d over %d generated inputs, at least %d per input (a p75 has %d samples beyond it), %.0f input records per op",
		len(ops), len(byInput), fewest, fewest-rankIndex(fewest, 0.75)-1, records/float64(len(ops)))
	rep.note("timed %.2f s of ops, %.2f s stolen from the host's %d CPUs meanwhile; 1 ref = %.4f ms, the reference kernel's mean over %d readings (%.4f to %.4f ms)",
		wall.Seconds(), steal.Seconds(), runtime.NumCPU(), ref*1e3, len(refs), slices.Min(refs)*1e3, slices.Max(refs)*1e3)

	rep.set("wall_p50_ref", over(func(st *inputStats) float64 { return percentile(st.nets, 0.50) })/ref, "ref")
	rep.set("wall_p75_ref", over(func(st *inputStats) float64 { return percentile(st.nets, 0.75) })/ref, "ref")
	rep.set("records_per_ref", over(func(st *inputStats) float64 { return st.records / st.net })*ref, "1/ref")
	rep.set("cpu_ref_per_op", over(func(st *inputStats) float64 { return percentile(st.cpus, 0.50) })/ref, "ref")
	rep.set("act_virtual_s", over(func(st *inputStats) float64 { return st.act.Seconds() }), "s")
	rep.set("allocs_per_record", over(func(st *inputStats) float64 { return float64(st.mallocs) / st.records }), "1")
	rep.set("alloc_bytes_per_record", over(func(st *inputStats) float64 { return float64(st.allocBytes) / st.records }), "B")
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
	var setupWalls, setupNets []float64
	for _, iv := range setups {
		setupWalls = append(setupWalls, iv.wall.Seconds())
		setupNets = append(setupNets, iv.net().Seconds())
	}
	rep.set("setup_s", median(setupNets)/ref*refQuiet.Seconds(), "s")

	rep.show("wall_p50_s", over(func(st *inputStats) float64 { return percentile(st.walls, 0.50) }), "s")
	rep.show("wall_p75_s", over(func(st *inputStats) float64 { return percentile(st.walls, 0.75) }), "s")
	rep.show("records_per_s", over(func(st *inputStats) float64 { return st.records / st.wall }), "1/s")
	rep.show("cpu_s_per_op", over(func(st *inputStats) float64 { return percentile(st.cpus, 0.50) }), "s")
	rep.show("setup_wall_s", median(setupWalls), "s")
	rep.show("disk_bytes_per_record", float64(disk)/records, "B")
	rep.show("failed_ops_share", float64(rep.Failed)/float64(rep.Attempted), "1")
	return rep, nil
}

// setUpRepeatedly sets the workload up o.setups times, each on its own
// generated input; the first is timed from process start. It returns
// the instances, each set-up's interval and the reference readings taken
// around the set-ups, in seconds.
func setUpRepeatedly(def *workloadDef, o options) (ins []*instance, setups []interval, refs []float64, err error) {
	refs = append(refs, refKernel().Seconds())
	for rep := 0; rep < max(o.setups, 1); rep++ {
		start := readUsage()
		if rep == 0 {
			start = processStart
		}
		in, err := setUp(def, o.seed, rep, o.workDir, start)
		if err != nil {
			return nil, nil, nil, err
		}
		ins = append(ins, in)
		setups = append(setups, in.setup)
		refs = append(refs, refKernel().Seconds())
	}
	return ins, setups, refs, nil
}

// timedLoop runs unit back to back — one client, the next op submitted
// when the previous one returned — until -seconds of op wall-clock
// have been measured (or exactly o.ops ops). Around each unit it reads
// MemStats, so the oracle's own work is not counted, and after each it
// takes a reading of the reference kernel, and one more for every
// refEvery the unit lasted. It returns the ops and the readings in
// seconds.
func timedLoop(o options, unit func() []opResult) (ops []opResult, refs []float64) {
	var measured time.Duration
	var before, after runtime.MemStats
	for {
		if o.ops > 0 {
			if len(ops) >= o.ops {
				break
			}
		} else if measured.Seconds() >= o.seconds && len(ops) >= minOps {
			break
		}
		runtime.ReadMemStats(&before)
		got := unit()
		runtime.ReadMemStats(&after)
		if len(got) == 0 {
			break // a unit that produced nothing would loop forever
		}
		got[0].mallocs = after.Mallocs - before.Mallocs
		got[0].allocBytes = after.TotalAlloc - before.TotalAlloc
		var unitWall time.Duration
		for _, op := range got {
			unitWall += op.raw.wall
		}
		// A whole stream is one unit: readings stay as dense per second
		// measured as on the batch workloads.
		for n := 1 + int(unitWall/refEvery); n > 0; n-- {
			refs = append(refs, refKernel().Seconds())
		}
		measured += unitWall
		ops = append(ops, got...)
	}
	return ops, refs
}

// rankIndex is the nearest-rank index of quantile q among n sorted
// samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (0 where that file does not exist).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
