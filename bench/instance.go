package main

import (
	"fmt"
	"os"
	"reflect"
	"time"

	"blaze"
	"blaze/internal/checkpoint"
	"blaze/internal/dataflow"
)

// instance is one set-up of a workload on one generated input: the
// registered workload, the oracle's reference results and the run
// configuration every timed op uses.
type instance struct {
	def  *workloadDef
	seed int64
	cap  *capture

	// Batch workloads. refOut is the exact reference every timed op
	// must reproduce bit for bit (see setUpBatch for how it is tied to
	// the independent oracle).
	cfg        blaze.RunConfig
	spec       blaze.WorkloadSpec
	refOut     *output
	refMetrics *blaze.Metrics
	// mem is the calibrated store size blaze.Run resolved, which the
	// traced path (submitting through internal/server itself) reuses.
	mem int64

	// Streaming workload.
	streamSpec blaze.StreamWorkloadSpec
	refWindows []*output
	refStats   []blaze.WindowStats
	workDir    string

	setup interval
	// cleanup removes what layer drivers left in workDir.
	cleanup []func()
}

// registrations numbers the workload ids this process has registered:
// the facade's registries refuse duplicates, and blaze.Run caches its
// memory calibration per id.
var registrations int

// setUp registers the workload under a fresh id, computes the oracle's
// references and runs one warm-up op. It is the whole of setup_s:
// registration, reference outputs through dataflow.NewLocalRunner, a
// row/P=1/virtual-bytes reference run (which also pays blaze.Run's
// memory calibration — a full unconstrained run — for this workload
// id), Blaze's dependency-extraction profile and one warm-up op in the
// timed configuration. rep makes the input seed distinct so that
// repeated set-ups in one process each pay input generation (the
// graphx/mllib source memos are keyed by the generator spec).
func setUp(def *workloadDef, seed int64, rep int, workDir string, start usage) (*instance, error) {
	in := &instance{def: def, seed: seed*8 + int64(rep), cap: &capture{}, workDir: workDir}
	registrations++
	id := fmt.Sprintf("bench/%s/%d", def.Name, registrations)
	var err error
	if def.Kind == kindStreamPR {
		err = in.setUpStream(blaze.StreamWorkloadID(id))
	} else {
		err = in.setUpBatch(blaze.WorkloadID(id))
	}
	if err != nil {
		return nil, fmt.Errorf("set-up %s: %w", def.Name, err)
	}
	in.setup = start.until(readUsage())
	return in, nil
}

func (in *instance) setUpBatch(id blaze.WorkloadID) error {
	d := in.def
	in.spec = blaze.WorkloadSpec{
		ID: id, Title: d.Name, SerFactor: d.SerFactor, MemFraction: d.MemFraction,
		Plain:     d.batchDriver(in.seed, false, in.cap),
		Annotated: d.batchDriver(in.seed, true, in.cap),
	}
	if err := blaze.RegisterWorkload(in.spec); err != nil {
		return err
	}

	// Oracle: the naive evaluator — no engine, no caching, no shuffle
	// service.
	ctx := dataflow.NewContext()
	dataflow.NewLocalRunner(ctx)
	in.spec.Plain(ctx, 1)
	oracle := in.cap.take()

	in.cfg = blaze.RunConfig{
		System: d.System, Workload: id, Executors: d.Executors,
		Parallelism: d.engineParallelism(), Vectorized: d.Vectorized, RealBytes: d.RealBytes,
	}
	// Reference run: row loop, sequential, virtual bytes. Its output
	// must agree with the oracle to rounding — the engine combines
	// map-side, so float sums associate differently and the last bit of
	// a rank may differ — and then becomes the exact reference: every
	// other engine configuration promises the same float association.
	ref := in.cfg
	ref.Parallelism, ref.Vectorized, ref.RealBytes = 1, false, false
	res, err := blaze.Run(ref)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	in.refOut = in.cap.take()
	if !in.refOut.near(oracle) {
		return fmt.Errorf("reference run output differs from the LocalRunner oracle")
	}
	in.refMetrics = res.Metrics
	in.mem = res.MemoryPerExecutor

	if op := in.batchOp(in.cfg); op.fail != "" {
		return fmt.Errorf("warm-up op: %s", op.fail)
	}
	return nil
}

func (in *instance) setUpStream(id blaze.StreamWorkloadID) error {
	d := in.def
	in.streamSpec = blaze.StreamWorkloadSpec{
		ID: id, Title: d.Name, SerFactor: d.SerFactor,
		Open: func(_ float64, annotate bool) func(ctx *blaze.Context, window int) {
			return d.streamStep(in.seed, annotate, in.cap)
		},
	}
	if err := blaze.RegisterStreamWorkload(in.streamSpec); err != nil {
		return err
	}

	// Oracle: the same step closure on the naive evaluator.
	ctx := dataflow.NewContext()
	dataflow.NewLocalRunner(ctx)
	step := in.streamSpec.Open(1, false)
	var oracle []*output
	for w := 1; w <= d.Windows; w++ {
		step(ctx, w)
		oracle = append(oracle, in.cap.take())
	}

	// Reference stream: row loop, sequential, not durable — checkpoints
	// and the WAL must change no decision. Its per-window ranks agree
	// with the oracle to rounding and become the exact reference, as in
	// setUpBatch.
	ref := in.streamRun(streamVariant{row: true})
	if ref.fail != "" {
		return fmt.Errorf("reference stream: %s", ref.fail)
	}
	for w, out := range ref.outs {
		if !out.near(oracle[w]) {
			return fmt.Errorf("reference stream window %d differs from the LocalRunner oracle", w+1)
		}
	}
	in.refWindows = ref.outs
	in.refStats = ref.stats
	in.refMetrics = ref.metrics

	// Warm-up: a short durable stream, so the checkpoint and WAL paths
	// have run once before timing.
	warm := in.streamRun(streamVariant{durable: true, eventLog: true, windows: 2})
	if warm.fail != "" {
		return fmt.Errorf("warm-up stream: %s", warm.fail)
	}
	return nil
}

// opResult is one timed op. fail is empty for an op that completed,
// reproduced the oracle's output and matched the reference metrics.
type opResult struct {
	raw     interval      // wall-clock, process CPU time and host steal, as measured
	act     time.Duration // virtual completion time (of the whole stream for windows)
	disk    int64         // real bytes written: spill files, checkpoints, WAL
	input   int64         // the generated input's seed
	records int           // input records the op read
	// mallocs and allocBytes are the MemStats deltas of the timed unit
	// the op belongs to, carried by the unit's first op.
	mallocs, allocBytes uint64
	fail                string
}

// timed closes the interval of an op on the instance's input.
func (op *opResult) timed(start usage, in *instance) {
	op.raw = start.until(readUsage())
	op.input = in.seed
	op.records = in.def.records(in.seed)
}

// guard turns a panic inside an op into a failed op.
func guard(fail *string) {
	if r := recover(); r != nil {
		*fail = fmt.Sprintf("panic: %v", r)
	}
}

// batchOp is one closed-loop op of a batch workload: a blaze.Run,
// timed, then checked against the oracle outside the timed region.
func (in *instance) batchOp(cfg blaze.RunConfig) (op opResult) {
	defer guard(&op.fail)
	in.cap.take()
	start := readUsage()
	res, err := blaze.Run(cfg)
	op.timed(start, in)
	if err != nil {
		op.fail = err.Error()
		return op
	}
	op.act = res.Metrics.ACT
	if res.Storage != nil {
		op.disk = res.Storage.DiskWrite.Bytes
	}
	op.fail = in.checkBatch(in.cap.take(), res.Metrics)
	return op
}

func (in *instance) checkBatch(out *output, m *blaze.Metrics) string {
	if !reflect.DeepEqual(out, in.refOut) {
		return "output differs from the reference output"
	}
	if !blaze.MetricsEqualDeterministic(m, in.refMetrics) {
		return "metrics differ from the row/P=1/virtual-bytes reference (bit-identity broken)"
	}
	return ""
}

// unit is the closed loop's step: one op for a batch workload, one whole
// durable stream (an op per window) for the streaming one, with or
// without an event log attached. It also returns how many events the
// log received.
func (in *instance) unit(eventLog bool) ([]opResult, int) {
	if in.def.Kind == kindStreamPR {
		sr := in.streamRun(streamVariant{durable: true, eventLog: eventLog})
		return sr.ops, sr.events
	}
	cfg := in.cfg
	if eventLog {
		cfg.EventLog = blaze.NewEventLog()
	}
	op := in.batchOp(cfg)
	if cfg.EventLog == nil {
		return []opResult{op}, 0
	}
	return []opResult{op}, cfg.EventLog.Len()
}

// timedUnit is unit in the timed configuration: only the stream runs
// with an event log (teed into its WAL).
func (in *instance) timedUnit() []opResult {
	ops, _ := in.unit(in.def.logsEvents())
	return ops
}

// streamVariant selects how a stream runs: the timed configuration is
// {durable, eventLog}; the reference is {row}.
type streamVariant struct {
	row      bool // row loop, Parallelism 1
	durable  bool // CheckpointDir set
	eventLog bool // EventLog attached (teed into the WAL when durable)
	windows  int  // 0 = the workload's window count
	// dir, when set, is used as the checkpoint directory and kept; by
	// default a durable stream makes its own and removes it.
	dir string
}

// streamResult is one whole stream: one op per window plus the sealed
// metrics and per-window stats.
type streamResult struct {
	ops         []opResult
	outs        []*output
	stats       []blaze.WindowStats
	metrics     *blaze.Metrics
	checkpoints []blaze.CheckpointStat
	events      int
	fail        string
}

func (in *instance) sessionConfig(v streamVariant, dir string, log *blaze.EventLog) blaze.SessionConfig {
	d := in.def
	cfg := blaze.SessionConfig{
		System: d.System, Executors: d.Executors,
		Parallelism: d.engineParallelism(), Vectorized: d.Vectorized,
		MemoryPerExecutor: d.StreamMem,
		CostParams:        blaze.EvalParams(d.SerFactor),
		CheckpointDir:     dir,
		EventLog:          log,
	}
	if v.row {
		cfg.Parallelism, cfg.Vectorized = 1, false
	}
	return cfg
}

// streamRun runs one stream through blaze.Session, timing each window
// as one op: the window's Submit plus the boundary that follows it
// (NextWindow, or Close after the last window).
func (in *instance) streamRun(v streamVariant) (sr streamResult) {
	defer guard(&sr.fail)
	d := in.def
	windows := v.windows
	if windows == 0 {
		windows = d.Windows
	}
	dir := v.dir
	if v.durable && dir == "" {
		var err error
		if dir, err = os.MkdirTemp(in.workDir, "ckpt-*"); err != nil {
			sr.fail = err.Error()
			return sr
		}
		defer os.RemoveAll(dir)
	}
	var log *blaze.EventLog
	if v.eventLog {
		log = blaze.NewEventLog()
	}
	sess, err := blaze.NewSession(in.sessionConfig(v, dir, log))
	if err != nil {
		sr.fail = err.Error()
		return sr
	}
	step := in.streamSpec.Open(1, false)
	var res *blaze.Result
	for w := 1; w <= windows; w++ {
		in.cap.take()
		start := readUsage()
		err := sess.Submit(func(ctx *blaze.Context) { step(ctx, w) })
		if err == nil {
			if w < windows {
				_, err = sess.NextWindow()
			} else {
				res, err = sess.Close()
			}
		}
		var op opResult
		op.timed(start, in)
		if err != nil {
			op.fail = err.Error()
			sr.ops = append(sr.ops, op)
			sr.fail = op.fail
			sess.Close()
			return sr
		}
		out := in.cap.take()
		if in.refWindows != nil && !reflect.DeepEqual(out, in.refWindows[w-1]) {
			op.fail = fmt.Sprintf("window %d ranks differ from the reference ranks", w)
		}
		sr.outs = append(sr.outs, out)
		sr.ops = append(sr.ops, op)
	}
	sr.stats = sess.WindowStats()
	sr.checkpoints = sess.CheckpointStats()
	sr.metrics = res.Metrics
	if log != nil {
		sr.events = log.Len()
	}
	in.finishStream(&sr, dir)
	return sr
}

// finishStream fills the per-op virtual time and disk bytes and applies
// the bit-identity checks that need the whole stream.
func (in *instance) finishStream(sr *streamResult, dir string) {
	var disk int64
	for _, ck := range sr.checkpoints {
		disk += ck.Bytes
	}
	if dir != "" {
		if fi, err := os.Stat(checkpoint.WALPath(dir)); err == nil {
			disk += fi.Size()
		}
	}
	for i := range sr.ops {
		sr.ops[i].act = sr.metrics.ACT
		sr.ops[i].disk = disk / int64(len(sr.ops))
	}
	// Not for the reference stream itself, nor a shortened one.
	if in.refStats != nil && len(sr.ops) == len(in.refStats) {
		for i, ws := range sr.stats {
			if !ws.EqualDeterministic(in.refStats[i]) && sr.ops[i].fail == "" {
				sr.ops[i].fail = fmt.Sprintf("window %d stats differ from the row/P=1 reference (bit-identity broken)", ws.Window)
			}
		}
		if last := &sr.ops[len(sr.ops)-1]; last.fail == "" && !blaze.MetricsEqualDeterministic(sr.metrics, in.refMetrics) {
			last.fail = "stream metrics differ from the row/P=1 reference (bit-identity broken)"
		}
	}
	for _, op := range sr.ops {
		if op.fail != "" && sr.fail == "" {
			sr.fail = op.fail
		}
	}
}
