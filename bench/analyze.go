package main

import (
	"sort"
)

// layerMetric declares one per-layer metric: BENCHMARK.json's per_layer
// list is this table (bench_test.go holds the two together). Every
// traced run reports every name; a metric whose layer the workload does
// not exercise reads 0.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
}

var layerMetrics = []layerMetric{
	// engine: scheduling and the task data plane.
	{"engine.jobs", "count", "lower"},
	{"engine.stages", "count", "lower"},
	{"engine.tasks", "count", "lower"},
	{"engine.task_ms_p50", "ms", "lower"},
	{"engine.task_self_ms_total", "ms", "lower"},
	{"engine.dispatch_ms_total", "ms", "lower"},
	{"engine.task_overlap", "1", "higher"},
	{"engine.vec_task_share", "1", "higher"},
	// core: the Blaze controller.
	{"core.callback_ms_total", "ms", "lower"},
	{"core.on_job_start_ms", "ms", "lower"},
	{"core.place_computed_ms", "ms", "lower"},
	{"core.select_victims_ms", "ms", "lower"},
	{"core.on_block_access_ms", "ms", "lower"},
	{"core.advance_window_ms", "ms", "lower"},
	{"core.callbacks", "count", "lower"},
	{"core.select_victims_us_per_call", "us", "lower"},
	{"core.profile_ms", "ms", "lower"},
	{"core.share_of_wall", "1", "lower"},
	{"core.cache_hit_ratio", "1", "higher"},
	{"core.recompute_share", "1", "lower"},
	{"core.evictions", "count", "lower"},
	// ilp: the optimizer.
	{"ilp.solves", "count", "lower"},
	{"ilp.nodes", "count", "lower"},
	{"ilp.reused_share", "1", "higher"},
	{"ilp.solve_ms_total", "ms", "lower"},
	{"ilp.share_of_wall", "1", "lower"},
	{"ilp.solve_n64_ms", "ms", "lower"},
	{"ilp.solve_n128_ms", "ms", "lower"},
	// dataflow: driver-side plan work and the record/column primitives.
	{"dataflow.driver_self_ms", "ms", "lower"},
	{"dataflow.box_ns_per_rec", "ns", "lower"},
	{"dataflow.unbox_ns_per_rec", "ns", "lower"},
	{"dataflow.route_ns_per_rec", "ns", "lower"},
	{"dataflow.merge_row_ns_per_rec", "ns", "lower"},
	{"dataflow.merge_batch_ns_per_rec", "ns", "lower"},
	{"dataflow.estimate_size_ns_per_rec", "ns", "lower"},
	// graphx / mllib: the hot kernels.
	{"graphx.contribs_row_ns_per_rec", "ns", "lower"},
	{"graphx.contribs_batch_ns_per_rec", "ns", "lower"},
	{"mllib.assign_row_ns_per_rec", "ns", "lower"},
	{"mllib.assign_batch_ns_per_rec", "ns", "lower"},
	// shuffle.
	{"shuffle.fetches", "count", "lower"},
	{"shuffle.virtual_ms", "ms", "lower"},
	{"shuffle.write_fetch_row_ns_per_rec", "ns", "lower"},
	{"shuffle.write_fetch_batch_ns_per_rec", "ns", "lower"},
	// storage: the real-bytes tier.
	{"storage.mem_encode_ms", "ms", "lower"},
	{"storage.mem_decode_ms", "ms", "lower"},
	{"storage.disk_write_ms", "ms", "lower"},
	{"storage.disk_read_ms", "ms", "lower"},
	{"storage.share_of_wall", "1", "lower"},
	{"storage.encoded_bytes", "B", "lower"},
	{"storage.disk_bytes_per_record", "B", "lower"},
	{"storage.decode_cache_hit_ratio", "1", "higher"},
	{"storage.measured_over_modeled", "1", "lower"},
	{"storage.spills", "count", "lower"},
	{"storage.encode_ns_per_rec", "ns", "lower"},
	{"storage.decode_ns_per_rec", "ns", "lower"},
	{"storage.mem_put_get_ns_per_block", "ns", "lower"},
	// cachepolicy: the annotation controller's victim selection.
	{"cachepolicy.select_victims_ms_total", "ms", "lower"},
	// checkpoint.
	{"checkpoint.commit_ms_p50", "ms", "lower"},
	{"checkpoint.commit_ms_total", "ms", "lower"},
	{"checkpoint.share_of_wall", "1", "lower"},
	{"checkpoint.bytes_first_boundary", "B", "lower"},
	{"checkpoint.bytes_last_boundary", "B", "lower"},
	{"checkpoint.blocks_last_boundary", "count", "lower"},
	{"checkpoint.load_ms", "ms", "lower"},
	// eventlog.
	{"eventlog.events_per_op", "count", "lower"},
	{"eventlog.overhead_share", "1", "lower"},
	{"eventlog.append_ns", "ns", "lower"},
	{"eventlog.wal_append_ns", "ns", "lower"},
	// server.
	{"server.submit_to_first_job_ms", "ms", "lower"},
	{"server.teardown_ms", "ms", "lower"},
	// datagen.
	{"datagen.graph_ns_per_vertex", "ns", "lower"},
	{"datagen.points_ns_per_point", "ns", "lower"},
	{"datagen.ratings_ns_per_user", "ns", "lower"},
	// runtime.
	{"runtime.num_gc", "count", "lower"},
	{"runtime.gc_pause_ms_total", "ms", "lower"},
	{"runtime.heap_peak_mb", "MB", "lower"},
	// the trace itself.
	{"trace.attributed_share", "1", "higher"},
	{"trace.overhead_share", "1", "lower"},
	{"trace.wall_p50_ms", "ms", "lower"},
	{"trace.untraced_wall_p50_ms", "ms", "lower"},
}

// spanTotals is what the spans of a set of traced ops add up to.
type spanTotals struct {
	ops      int
	opWall   int64
	count    [numSpanKinds]int
	ns       [numSpanKinds]int64 // controller kinds: outermost callbacks only
	taskMs   []float64
	taskSelf int64
	// dispatch is job time outside every task: Σ (job − union of its
	// top-level tasks); taskSum/taskUnion give the overlap.
	dispatch, taskSum, taskUnion int64
	driverSelf                   int64
	attributed                   int64 // Σ durations of the ops' direct children
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// analyze folds flattened spans into totals. Self time is a span's
// duration minus its direct children's; children recorded by one
// goroutine never overlap, and tasks — the only spans that run
// concurrently — are summed per job through the union of their
// intervals.
func analyze(spans []flatSpan) spanTotals {
	var t spanTotals
	childSum := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			childSum[s.parent] += s.end - s.start
		}
	}
	// jobOf resolves a span's enclosing job by walking parents.
	jobOf := func(i int) int {
		for i >= 0 && spans[i].kind != spanJob {
			i = spans[i].parent
		}
		return i
	}
	type interval struct{ start, end int64 }
	perJob := map[int][]interval{}
	for i, s := range spans {
		dur := s.end - s.start
		if s.kind.isCtl() && s.nested {
			continue
		}
		t.count[s.kind]++
		t.ns[s.kind] += dur
		switch s.kind {
		case spanOp:
			t.ops++
			t.opWall += dur
			t.attributed += childSum[i]
		case spanDriver:
			t.driverSelf += dur - childSum[i]
		case spanTask:
			t.taskMs = append(t.taskMs, ms(dur))
			t.taskSelf += dur - childSum[i]
			if s.parent < 0 || spans[s.parent].kind != spanTask {
				t.taskSum += dur
				j := jobOf(i)
				perJob[j] = append(perJob[j], interval{s.start, s.end})
			}
		}
	}
	for j, ivs := range perJob {
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].start < ivs[b].start })
		var union, curStart, curEnd int64 = 0, ivs[0].start, ivs[0].end
		for _, iv := range ivs[1:] {
			if iv.start > curEnd {
				union += curEnd - curStart
				curStart, curEnd = iv.start, iv.end
			} else if iv.end > curEnd {
				curEnd = iv.end
			}
		}
		union += curEnd - curStart
		t.taskUnion += union
		if j >= 0 {
			t.dispatch += spans[j].end - spans[j].start - union
		}
	}
	return t
}

// ctlNs is the time in outermost controller callbacks.
func (t *spanTotals) ctlNs() int64 {
	var n int64
	for k := spanKind(0); k < numSpanKinds; k++ {
		if k.isCtl() {
			n += t.ns[k]
		}
	}
	return n
}

func (t *spanTotals) ctlCalls() int {
	n := 0
	for k := spanKind(0); k < numSpanKinds; k++ {
		if k.isCtl() {
			n += t.count[k]
		}
	}
	return n
}
