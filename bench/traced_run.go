package main

import (
	"fmt"
	"runtime"
	"time"

	"blaze"
	"blaze/internal/metrics"
)

// Shares of -seconds a traced run gives to whole ops and to the layer
// drivers.
const (
	tracedOpsShare    = 0.6
	tracedLayersShare = 0.4
)

// gcDelta is the collector's activity during the traced ops.
type gcDelta struct {
	numGC uint32
	pause time.Duration
}

// tracedSums accumulates what the traced ops' own results (Metrics,
// storage.Meter, CheckpointStat) add up to; the spans supply the rest.
type tracedSums struct {
	ops      int
	sessions int

	hits, diskHits, misses, evictions int
	compute, recompute, shuffle       time.Duration
	ilpSolves, ilpNodes, ilpReused    int
	ilpTime                           time.Duration

	memEncode, memDecode, diskWrite, diskRead, modeled time.Duration
	encodedBytes                                       int64
	diskBytes                                          int64
	memDecodes, decodeCacheHits, spills                int

	checkpoints              []blaze.CheckpointStat
	firstBytes, lastBytes    int64
	lastBlocks, streams      int
	firstJobGap, teardownGap int64
}

func (s *tracedSums) addMetrics(m *metrics.App) {
	s.sessions++
	s.hits += m.CacheHits
	s.diskHits += m.DiskHits
	s.misses += m.Misses
	s.evictions += m.Evictions
	b := m.TotalBreakdown()
	s.compute += b.Compute
	s.recompute += b.Recompute
	s.shuffle += b.Shuffle
	s.ilpSolves += m.ILPSolves + m.ILPDeltaSolves
	s.ilpNodes += m.ILPNodes + m.ILPDeltaNodes
	s.ilpReused += m.ILPReused
	s.ilpTime += m.ILPSolveTime + m.ILPDeltaSolveTime
}

func (s *tracedSums) addInfo(info tracedInfo) {
	if info.metrics != nil {
		s.addMetrics(info.metrics)
	}
	s.addCheckpoints(info.checkpoints)
	if st := info.storage; st != nil {
		s.memEncode += st.MemEncode.Wall
		s.memDecode += st.MemDecode.Wall
		s.diskWrite += st.DiskWrite.Wall
		s.diskRead += st.DiskRead.Wall
		s.modeled += st.MemEncode.Modeled + st.MemDecode.Modeled + st.DiskWrite.Modeled + st.DiskRead.Modeled
		s.encodedBytes += st.MemEncode.Bytes + st.DiskWrite.Bytes
		s.memDecodes += st.MemDecode.Ops
		s.decodeCacheHits += st.DecodeCacheHits
		s.spills += st.FilesWritten
	}
}

func (s *tracedSums) addCheckpoints(cks []blaze.CheckpointStat) {
	if len(cks) == 0 {
		return
	}
	s.streams++
	s.checkpoints = append(s.checkpoints, cks...)
	s.firstBytes += cks[0].Bytes
	s.lastBytes += cks[len(cks)-1].Bytes
	s.lastBlocks += cks[len(cks)-1].Blocks
}

// sessionGaps measures, for the session that ran between submit and
// waited, the time from Submit to its first job and from its last job
// to Wait returning.
func (s *tracedSums) sessionGaps(spans []flatSpan, info tracedInfo) {
	first, last := int64(-1), int64(-1)
	for _, sp := range spans {
		if sp.kind != spanJob || sp.start < info.submit || sp.end > info.waited {
			continue
		}
		if first < 0 || sp.start < first {
			first = sp.start
		}
		if sp.end > last {
			last = sp.end
		}
	}
	if first >= 0 {
		s.firstJobGap += first - info.submit
		s.teardownGap += info.waited - last
	}
}

func wallsOf(ops []opResult) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = op.raw.wall.Seconds()
	}
	return out
}

// runTraced is the per-layer run. It interleaves three kinds of unit —
// untraced in the timed configuration, traced, and untraced with the
// event log toggled — so the three medians share the machine's state,
// then runs the layer drivers.
func runTraced(def *workloadDef, o options) (*report, error) {
	in, err := setUp(def, o.seed, 0, o.workDir, processStart)
	if err != nil {
		return nil, err
	}
	rep := newReport(def, o.seed)
	rec := newRecorder(def.Executors)

	// logged/unlogged are the two untraced kinds; which of them is the
	// timed configuration depends on the workload.
	var logged, unlogged, traced []opResult
	var sums tracedSums
	var infos []tracedInfo
	var events int
	var gc gcDelta
	var vecTasks int64

	budget := time.Duration(o.seconds * tracedOpsShare * float64(time.Second))
	var measured time.Duration
	for round := 0; ; round++ {
		if o.ops > 0 {
			if len(traced) >= o.ops {
				break
			}
		} else if measured >= budget && round >= 2 {
			break
		}
		ops, n := in.unit(true)
		logged = append(logged, ops...)
		events += n

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		vecBefore := blaze.VecTasksExecuted()
		got, info := in.tracedUnit(rec)
		vecTasks += blaze.VecTasksExecuted() - vecBefore
		runtime.ReadMemStats(&after)
		gc.numGC += after.NumGC - before.NumGC
		gc.pause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
		traced = append(traced, got...)
		sums.addInfo(info)
		infos = append(infos, info)

		plain, _ := in.unit(false)
		unlogged = append(unlogged, plain...)
		for _, part := range [][]opResult{ops, got, plain} {
			for _, op := range part {
				measured += op.raw.wall
			}
		}
	}
	rep.count(logged)
	rep.count(traced)
	rep.count(unlogged)
	sums.ops = len(traced)
	for _, op := range traced {
		sums.diskBytes += op.disk
	}

	spans := rec.flatten()
	for _, info := range infos {
		sums.sessionGaps(spans, info)
	}
	path, err := writeTrace(o.outDir, def.Name, spans)
	if err != nil {
		return nil, err
	}
	rep.note("traced ops %d, untraced %d with and %d without an event log; %d spans written to %s",
		len(traced), len(logged), len(unlogged), len(spans), path)

	layerBudget := time.Duration(o.seconds * tracedLayersShare * float64(time.Second))
	if o.ops > 0 {
		layerBudget = 50 * time.Millisecond * time.Duration(len(layerDrivers))
	}
	layers, err := runLayerDrivers(in, layerBudget)
	if err != nil {
		return nil, err
	}

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	values := layerValues(def, def.records(in.seed), analyze(spans), sums, gc, vecTasks)
	values["runtime.heap_peak_mb"] = float64(mem.HeapSys) / (1 << 20)
	loggedP50, unloggedP50, tracedP50 := percentile(wallsOf(logged), 0.5), percentile(wallsOf(unlogged), 0.5), percentile(wallsOf(traced), 0.5)
	baseP50 := unloggedP50
	if def.logsEvents() {
		baseP50 = loggedP50
	}
	values["trace.wall_p50_ms"] = tracedP50 * 1e3
	values["trace.untraced_wall_p50_ms"] = baseP50 * 1e3
	if baseP50 > 0 {
		values["trace.overhead_share"] = tracedP50/baseP50 - 1
	}
	values["eventlog.events_per_op"] = float64(events) / float64(max(len(logged), 1))
	if unloggedP50 > 0 {
		values["eventlog.overhead_share"] = loggedP50/unloggedP50 - 1
	}
	for _, l := range layers {
		values[l.metric] = l.value
		rep.note("driver %-40s %12.4g per unit, %.2f allocs per unit, %d calls", l.metric, l.value, l.allocsPerOp, l.calls)
	}
	for _, lm := range layerMetrics {
		rep.set(lm.Name, values[lm.Name], lm.Unit)
	}
	for name := range values {
		if _, ok := rep.Metrics[name]; !ok {
			return nil, fmt.Errorf("bench: metric %q is not declared in layerMetrics", name)
		}
	}
	return rep, nil
}

// layerValues turns span totals and result sums into per-op metric
// values (totals are divided by the number of traced ops).
func layerValues(def *workloadDef, records int, t spanTotals, s tracedSums, gc gcDelta, vecTasks int64) map[string]float64 {
	v := map[string]float64{}
	ops := float64(max(t.ops, 1))
	perOp := func(ns int64) float64 { return ms(ns) / ops }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	v["engine.jobs"] = float64(t.count[spanJob]) / ops
	v["engine.stages"] = float64(t.count[spanStage]) / ops
	v["engine.tasks"] = float64(t.count[spanTask]) / ops
	v["engine.task_ms_p50"] = percentile(t.taskMs, 0.5)
	v["engine.task_self_ms_total"] = perOp(t.taskSelf)
	v["engine.dispatch_ms_total"] = perOp(t.dispatch)
	v["engine.task_overlap"] = ratio(float64(t.taskSum), float64(t.taskUnion))
	v["engine.vec_task_share"] = ratio(float64(vecTasks), float64(t.count[spanTask]))

	// The controller's callbacks belong to core under Blaze and to
	// cachepolicy (the annotation controller's ordering) otherwise.
	if def.System == blaze.SysBlaze {
		v["core.callback_ms_total"] = perOp(t.ctlNs())
		v["core.on_job_start_ms"] = perOp(t.ns[spanCtlOnJobStart])
		v["core.place_computed_ms"] = perOp(t.ns[spanCtlPlaceComputed])
		v["core.select_victims_ms"] = perOp(t.ns[spanCtlSelectVictims])
		v["core.on_block_access_ms"] = perOp(t.ns[spanCtlOnBlockAccess])
		v["core.advance_window_ms"] = perOp(t.ns[spanAdvanceWindow])
		v["core.callbacks"] = float64(t.ctlCalls()) / ops
		v["core.select_victims_us_per_call"] = ratio(float64(t.ns[spanCtlSelectVictims])/1e3, float64(t.count[spanCtlSelectVictims]))
		v["core.profile_ms"] = perOp(t.ns[spanProfile])
		// Callbacks run on every task worker at once, so their share is
		// taken of the op wall-clock summed over concurrent workers.
		v["core.share_of_wall"] = ratio(float64(t.ctlNs()+t.ns[spanProfile]), float64(t.opWall+t.taskSum-t.taskUnion))
		v["core.cache_hit_ratio"] = ratio(float64(s.hits), float64(s.hits+s.diskHits+s.misses))
		v["core.recompute_share"] = ratio(float64(s.recompute), float64(s.compute))
		v["core.evictions"] = float64(s.evictions) / float64(max(s.sessions, 1))
	} else {
		v["cachepolicy.select_victims_ms_total"] = perOp(t.ns[spanCtlSelectVictims])
	}

	v["ilp.solves"] = float64(s.ilpSolves) / float64(max(s.sessions, 1))
	v["ilp.nodes"] = float64(s.ilpNodes) / float64(max(s.sessions, 1))
	v["ilp.reused_share"] = ratio(float64(s.ilpReused), float64(s.ilpSolves))
	v["ilp.solve_ms_total"] = ms(int64(s.ilpTime)) / ops
	v["ilp.share_of_wall"] = ratio(float64(s.ilpTime), float64(t.opWall))

	v["dataflow.driver_self_ms"] = perOp(t.driverSelf)
	v["shuffle.fetches"] = float64(t.count[spanFetch]) / ops
	v["shuffle.virtual_ms"] = ms(int64(s.shuffle)) / ops

	v["storage.mem_encode_ms"] = ms(int64(s.memEncode)) / ops
	v["storage.mem_decode_ms"] = ms(int64(s.memDecode)) / ops
	v["storage.disk_write_ms"] = ms(int64(s.diskWrite)) / ops
	v["storage.disk_read_ms"] = ms(int64(s.diskRead)) / ops
	measured := s.memEncode + s.memDecode + s.diskWrite + s.diskRead
	v["storage.share_of_wall"] = ratio(float64(measured), float64(t.opWall))
	v["storage.encoded_bytes"] = float64(s.encodedBytes) / ops
	v["storage.decode_cache_hit_ratio"] = ratio(float64(s.decodeCacheHits), float64(s.decodeCacheHits+s.memDecodes))
	v["storage.measured_over_modeled"] = ratio(float64(measured), float64(s.modeled))
	v["storage.spills"] = float64(s.spills) / ops
	v["storage.disk_bytes_per_record"] = float64(s.diskBytes) / (ops * float64(records))

	if n := len(s.checkpoints); n > 0 {
		walls := make([]float64, n)
		var total time.Duration
		for i, ck := range s.checkpoints {
			walls[i] = ck.Wall.Seconds() * 1e3
			total += ck.Wall
		}
		streams := float64(s.streams)
		v["checkpoint.commit_ms_p50"] = percentile(walls, 0.5)
		v["checkpoint.commit_ms_total"] = ms(int64(total)) / ops
		v["checkpoint.share_of_wall"] = ratio(float64(total), float64(t.opWall))
		v["checkpoint.bytes_first_boundary"] = float64(s.firstBytes) / streams
		v["checkpoint.bytes_last_boundary"] = float64(s.lastBytes) / streams
		v["checkpoint.blocks_last_boundary"] = float64(s.lastBlocks) / streams
	}

	sessions := float64(max(s.sessions, 1))
	v["server.submit_to_first_job_ms"] = ms(s.firstJobGap) / sessions
	v["server.teardown_ms"] = ms(s.teardownGap) / sessions

	v["runtime.num_gc"] = float64(gc.numGC) / ops
	v["runtime.gc_pause_ms_total"] = ms(int64(gc.pause)) / ops
	v["trace.attributed_share"] = ratio(float64(t.attributed), float64(t.opWall))
	return v
}
