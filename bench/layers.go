package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"blaze/internal/checkpoint"
	"blaze/internal/dataflow"
	"blaze/internal/datagen"
	"blaze/internal/eventlog"
	"blaze/internal/graphx"
	"blaze/internal/ilp"
	"blaze/internal/mllib"
	"blaze/internal/shuffle"
	"blaze/internal/storage"
)

// Layer drivers: timed loops over one layer's exported functions on
// inputs shaped like the partitions of the workload they annotate
// (records per partition, value type, bucket count). They say what a
// layer costs per record in isolation; the spans say how much of an op
// the layer accounts for. A driver runs only on the workloads listed
// for it — the ones whose end-to-end metrics it is predicted to move.

// layerDriver builds a loop body and the number of records (or ops, for
// per-op metrics) one call processes.
type layerDriver struct {
	metric string
	// scale converts ns per call-unit into the metric's unit (1 for ns,
	// 1e-6 for ms).
	scale float64
	on    []string
	build func(in *instance) (fn func(), units int, err error)
}

// sink keeps results alive so the compiler cannot drop the calls.
var sink any

// shape is the workload's per-partition input shape.
type shape struct {
	verts, deg int // PageRank-family: vertices per partition, out-degree
	points     int // k-means: points per partition
	buckets    int
}

func (d *workloadDef) shape() shape {
	return shape{verts: max(d.Vertices/d.Parts, 1), deg: d.Degree, points: max(d.Points/d.Parts, 1), buckets: d.Parts}
}

// contribs builds one partition's contribution records — what the
// shuffle routes and combines in every PageRank iteration.
func contribs(s shape) ([]dataflow.Record, *dataflow.Batch) {
	recs, _ := graphx.BenchPRPartition(s.verts, s.deg)
	out := graphx.BenchContribsRow(recs)
	return out, dataflow.FromRecords(out)
}

func add(a, b float64) float64 { return a + b }

// shuffleRound writes one map output per partition and fetches every
// bucket — one shuffle's worth of service calls.
func shuffleRound(s shape, batch bool) (func(), int) {
	rows, _ := contribs(s)
	router := dataflow.NewRouter(s.buckets)
	buckets := make([][]dataflow.Record, s.buckets)
	for _, r := range rows {
		b := router.Bucket(r.Key)
		buckets[b] = append(buckets[b], r)
	}
	bytes := make([]int64, s.buckets)
	for b := range buckets {
		bytes[b] = dataflow.EstimateRecords(buckets[b])
	}
	const maps = 4
	return func() {
		svc := shuffle.NewService()
		svc.Ensure(0, s.buckets, maps)
		for m := 0; m < maps; m++ {
			var err error
			if batch {
				// The service keeps the batches, so each map output is
				// built fresh, as the columnar task loop does.
				bs := make([]*dataflow.Batch, s.buckets)
				for b := range bs {
					bs[b] = dataflow.FromRecords(buckets[b])
				}
				err = svc.SetMapOutputBatch(0, m, 0, bs, bytes)
			} else {
				err = svc.SetMapOutput(0, m, 0, buckets, bytes)
			}
			if err != nil {
				panic(err)
			}
		}
		svc.MarkComplete(0)
		for b := 0; b < s.buckets; b++ {
			if batch {
				out, _, err := svc.FetchBatch(0, b)
				if err != nil {
					panic(err)
				}
				out.Release()
			} else if _, _, err := svc.Fetch(0, b); err != nil {
				panic(err)
			}
		}
	}, maps * len(rows)
}

// codecPartition is the records the workload's cached blocks hold.
func codecPartition(in *instance) []dataflow.Record {
	s := in.def.shape()
	if in.def.Kind == kindKMeans {
		ps, _, _, _ := mllib.BenchKMeansPartition(s.points, in.def.Dim, in.def.K)
		return ps
	}
	recs, _ := graphx.BenchPRPartition(s.verts, s.deg)
	return recs
}

var (
	prFamily = []string{"pr-dataplane", "pr-wide-control"}
	codec    = []string{"km-spill-realbytes", "stream-durable"}
)

var layerDrivers = []layerDriver{
	{metric: "ilp.solve_n64_ms", scale: 1e-6, on: []string{"pr-wide-control", "stream-durable"},
		build: func(*instance) (func(), int, error) { return ilpSolve(64), 1, nil }},
	{metric: "ilp.solve_n128_ms", scale: 1e-6, on: []string{"pr-wide-control"},
		build: func(*instance) (func(), int, error) { return ilpSolve(128), 1, nil }},

	{metric: "dataflow.box_ns_per_rec", scale: 1, on: []string{"pr-dataplane"},
		build: func(in *instance) (func(), int, error) {
			s := in.def.shape()
			_, b := graphx.BenchPRPartition(s.verts, s.deg)
			return func() { sink = b.Records() }, s.verts, nil
		}},
	{metric: "dataflow.unbox_ns_per_rec", scale: 1, on: []string{"pr-dataplane"},
		build: func(in *instance) (func(), int, error) {
			s := in.def.shape()
			recs, _ := graphx.BenchPRPartition(s.verts, s.deg)
			return func() { dataflow.FromRecords(recs).Release() }, s.verts, nil
		}},
	{metric: "dataflow.route_ns_per_rec", scale: 1, on: prFamily,
		build: func(in *instance) (func(), int, error) {
			s := in.def.shape()
			rows, _ := contribs(s)
			router := dataflow.NewRouter(s.buckets)
			return func() {
				n := 0
				for _, r := range rows {
					n += router.Bucket(r.Key)
				}
				sink = n
			}, len(rows), nil
		}},
	{metric: "dataflow.merge_row_ns_per_rec", scale: 1, on: []string{"pr-dataplane", "km-spill-realbytes"},
		build: func(in *instance) (func(), int, error) {
			s := in.def.shape()
			if in.def.Kind == kindKMeans {
				// k-means aggregates one partial sum per cluster per
				// partition: few records, boxed combine.
				s = shape{verts: in.def.K * in.def.Parts / 8, deg: 8}
			}
			rows, _ := contribs(s)
			combine := func(a, b any) any { return a.(float64) + b.(float64) }
			return func() { sink = dataflow.MergeByKey(rows, combine) }, len(rows), nil
		}},
	{metric: "dataflow.merge_batch_ns_per_rec", scale: 1, on: prFamily,
		build: func(in *instance) (func(), int, error) {
			_, b := contribs(in.def.shape())
			return func() { dataflow.MergeBatchByKeyF64(b, add).Release() }, b.Len(), nil
		}},
	{metric: "dataflow.estimate_size_ns_per_rec", scale: 1, on: []string{"pr-dataplane", "pr-wide-control", "km-spill-realbytes"},
		build: func(in *instance) (func(), int, error) {
			recs := codecPartition(in)
			return func() { sink = dataflow.EstimateRecords(recs) }, len(recs), nil
		}},

	{metric: "graphx.contribs_row_ns_per_rec", scale: 1, on: []string{"pr-dataplane"},
		build: func(in *instance) (func(), int, error) {
			s := in.def.shape()
			recs, _ := graphx.BenchPRPartition(s.verts, s.deg)
			return func() { sink = graphx.BenchContribsRow(recs) }, s.verts, nil
		}},
	{metric: "graphx.contribs_batch_ns_per_rec", scale: 1, on: []string{"pr-dataplane"},
		build: func(in *instance) (func(), int, error) {
			s := in.def.shape()
			_, b := graphx.BenchPRPartition(s.verts, s.deg)
			return func() { graphx.BenchContribsBatch(b).Release() }, s.verts, nil
		}},
	{metric: "mllib.assign_row_ns_per_rec", scale: 1, on: []string{"km-spill-realbytes"},
		build: func(in *instance) (func(), int, error) {
			d := in.def
			ps, cs, _, _ := mllib.BenchKMeansPartition(d.shape().points, d.Dim, d.K)
			return func() { sink = mllib.BenchStatsRow(ps, cs, d.K) }, len(ps), nil
		}},
	{metric: "mllib.assign_batch_ns_per_rec", scale: 1, on: []string{"km-spill-realbytes"},
		build: func(in *instance) (func(), int, error) {
			d := in.def
			_, _, pb, cb := mllib.BenchKMeansPartition(d.shape().points, d.Dim, d.K)
			return func() { mllib.BenchStatsBatch(pb, cb, d.K).Release() }, pb.Len(), nil
		}},

	{metric: "shuffle.write_fetch_row_ns_per_rec", scale: 1, on: prFamily,
		build: func(in *instance) (func(), int, error) {
			fn, n := shuffleRound(in.def.shape(), false)
			return fn, n, nil
		}},
	{metric: "shuffle.write_fetch_batch_ns_per_rec", scale: 1, on: prFamily,
		build: func(in *instance) (func(), int, error) {
			fn, n := shuffleRound(in.def.shape(), true)
			return fn, n, nil
		}},

	{metric: "storage.encode_ns_per_rec", scale: 1, on: codec,
		build: func(in *instance) (func(), int, error) {
			recs := codecPartition(in)
			return func() {
				data, err := storage.EncodeRecords(recs)
				if err != nil {
					panic(err)
				}
				sink = data
			}, len(recs), nil
		}},
	{metric: "storage.decode_ns_per_rec", scale: 1, on: codec,
		build: func(in *instance) (func(), int, error) {
			recs := codecPartition(in)
			data, err := storage.EncodeRecords(recs)
			if err != nil {
				return nil, 0, err
			}
			return func() {
				out, err := storage.DecodeRecords(data)
				if err != nil {
					panic(err)
				}
				sink = out
			}, len(recs), nil
		}},
	{metric: "storage.mem_put_get_ns_per_block", scale: 1, on: []string{"km-spill-realbytes"},
		build: func(in *instance) (func(), int, error) {
			recs := codecPartition(in)
			size := dataflow.EstimateRecords(recs)
			id := storage.BlockID{Dataset: 1}
			return func() {
				// No decode cache: every Get pays the decode, like a block
				// re-read after eviction from the 8-block cache.
				m := storage.NewMemoryStoreReal(4*size, storage.NewMeter(), 0)
				if _, err := m.Put(id, recs, size, 0, 0); err != nil {
					panic(err)
				}
				out, _, _ := m.Get(id, 0)
				sink = out
			}, 1, nil
		}},

	{metric: "checkpoint.load_ms", scale: 1e-6, on: []string{"stream-durable"}, build: checkpointLoad},
	{metric: "eventlog.append_ns", scale: 1, on: []string{"stream-durable"},
		build: func(*instance) (func(), int, error) {
			e := eventlog.Event{Kind: eventlog.JobStart, Time: time.Millisecond, Job: 3, Executor: 2, Dataset: 17, Partition: 5, Bytes: 4096}
			const n = 4096
			return func() {
				l := eventlog.New()
				for i := 0; i < n; i++ {
					l.Append(e)
				}
				sink = l
			}, n, nil
		}},
	{metric: "eventlog.wal_append_ns", scale: 1, on: []string{"stream-durable"},
		build: func(in *instance) (func(), int, error) {
			e := eventlog.Event{Kind: eventlog.JobStart, Time: time.Millisecond, Job: 3, Executor: 2, Dataset: 17, Partition: 5, Bytes: 4096}
			path := filepath.Join(in.workDir, "layer.wal")
			const n = 1024
			return func() {
				w, err := eventlog.CreateWAL(path)
				if err != nil {
					panic(err)
				}
				for i := 0; i < n; i++ {
					if err := w.Append(e); err != nil {
						panic(err)
					}
				}
				w.Close()
				os.Remove(path)
			}, n, nil
		}},

	{metric: "datagen.graph_ns_per_vertex", scale: 1, on: []string{"pr-dataplane", "stream-durable"},
		build: func(in *instance) (func(), int, error) {
			spec := datagen.GraphSpec{Seed: in.seed, Vertices: in.def.Vertices, AvgDegree: in.def.Degree}
			const n = 512
			return func() {
				for v := int64(0); v < n; v++ {
					sink = spec.Neighbors(v)
				}
			}, n, nil
		}},
	{metric: "datagen.points_ns_per_point", scale: 1, on: []string{"km-spill-realbytes"},
		build: func(in *instance) (func(), int, error) {
			spec := in.def.kmConfig(in.seed, false).Data
			const n = 512
			return func() {
				for i := int64(0); i < n; i++ {
					x, _ := spec.Point(i)
					sink = x
				}
			}, n, nil
		}},
	// SVD++ is not a workload (README "Left out"): its dominant cost,
	// re-seeding the generator on every source recomputation, is
	// captured here instead, on the built-in SVD++ input shape.
	{metric: "datagen.ratings_ns_per_user", scale: 1, on: []string{"km-spill-realbytes"},
		build: func(in *instance) (func(), int, error) {
			spec := datagen.RatingsSpec{Seed: in.seed, Users: 1500, Items: 300, ItemsPerUser: 12}
			const n = 512
			return func() {
				for u := int64(0); u < n; u++ {
					items, _ := spec.UserRatings(u)
					sink = items
				}
			}, n, nil
		}},
}

func ilpSolve(parts int) func() {
	p := ilp.BenchProblem(parts, 1)
	return func() {
		sol, err := ilp.Solve(p, ilp.Options{})
		if err != nil {
			panic(err)
		}
		sink = sol
	}
}

// checkpointLoad times checkpoint.Load on the directory a short durable
// stream of this workload leaves behind.
func checkpointLoad(in *instance) (func(), int, error) {
	dir, err := os.MkdirTemp(in.workDir, "ckpt-load-*")
	if err != nil {
		return nil, 0, err
	}
	sr := in.streamRun(streamVariant{durable: true, eventLog: true, windows: min(4, in.def.Windows), dir: dir})
	in.cleanup = append(in.cleanup, func() { os.RemoveAll(dir) })
	if sr.fail != "" {
		return nil, 0, fmt.Errorf("checkpoint.load_ms: %s", sr.fail)
	}
	return func() {
		rs, _, err := checkpoint.Load(dir)
		if err != nil {
			panic(err)
		}
		sink = rs
	}, 1, nil
}

// layerResult is one driver's measurement.
type layerResult struct {
	metric      string
	value       float64 // in the metric's unit, per record / block / op
	allocsPerOp float64
	calls       int
}

// timeLoop warms fn up, then calls it until budget has elapsed, and
// returns ns and allocations per call. A call longer than the budget is
// measured once.
func timeLoop(fn func(), budget time.Duration) (nsPerCall, allocsPerCall float64, calls int) {
	start := time.Now()
	fn()
	first := time.Since(start)
	if first > budget/2 {
		return float64(first), 0, 1
	}
	for warm := budget / 10; time.Since(start) < warm; {
		fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start = time.Now()
	var elapsed time.Duration
	for elapsed < budget*9/10 {
		for i := 0; i < 8; i++ {
			fn()
		}
		calls += 8
		elapsed = time.Since(start)
	}
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(calls), float64(after.Mallocs-before.Mallocs) / float64(calls), calls
}

// runLayerDrivers runs every driver annotated for the workload, sharing
// budget equally.
func runLayerDrivers(in *instance, budget time.Duration) ([]layerResult, error) {
	var mine []layerDriver
	for _, ld := range layerDrivers {
		for _, w := range ld.on {
			if w == in.def.Name {
				mine = append(mine, ld)
			}
		}
	}
	if len(mine) == 0 {
		return nil, nil
	}
	defer func() {
		for _, fn := range in.cleanup {
			fn()
		}
		in.cleanup = nil
	}()
	each := budget / time.Duration(len(mine))
	var out []layerResult
	for _, ld := range mine {
		fn, units, err := ld.build(in)
		if err != nil {
			return nil, err
		}
		ns, allocs, calls := timeLoop(fn, each)
		out = append(out, layerResult{
			metric: ld.metric, value: ns / float64(units) * ld.scale,
			allocsPerOp: allocs / float64(units), calls: calls,
		})
	}
	return out, nil
}
