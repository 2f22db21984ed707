package main

import (
	"fmt"
	"os"
	"reflect"
	"time"

	"blaze"
	"blaze/internal/checkpoint"
	"blaze/internal/core"
	"blaze/internal/dataflow"
	"blaze/internal/engine"
	"blaze/internal/eventlog"
	"blaze/internal/metrics"
	"blaze/internal/server"
	"blaze/internal/storage"
)

// The traced ops. blaze.Run and blaze.Session accept neither a hook nor
// a caller-built controller, so a traced op submits through
// internal/server (or, for RealBytes, internal/engine) exactly the way
// the facade does — same cost model, same calibrated store size, same
// controller recipe — with the span hook and the timing decorator
// attached. Every traced op is held to the same oracle and the same
// bit-identity reference as an untraced one, which is the assertion
// that the decorators change no decision.

// tracedInfo is what a traced op learns beyond its opResult.
type tracedInfo struct {
	metrics     *metrics.App
	storage     *storage.MeterSnapshot
	checkpoints []blaze.CheckpointStat
	// submit and waited bracket the server session: Submit called, Wait
	// (or Close) returned.
	submit, waited int64
}

// newController builds the workload's controller the way
// blaze.buildSystem / buildStreamSystem do, decorated.
func (in *instance) newController(rec *recorder, stream bool) (ctl engine.Controller, annotated, profiled bool, err error) {
	switch in.def.System {
	case blaze.SysBlaze:
		b := core.NewBlaze()
		if !stream {
			s := rec.begin(rec.driver(), spanProfile)
			sk := core.Profile(core.Workload(in.spec.Plain), 0.02) // RunConfig.ProfileScale's default
			rec.end(rec.driver(), s)
			b.WithSkeleton(sk)
			profiled = true
		}
		ctl, err = traceBlaze(b, rec)
	case blaze.SysSparkMemDisk:
		ctl, err = traceAnnotation(engine.NewSparkMemDisk(), rec)
		annotated = true
	default:
		err = fmt.Errorf("bench: no traced recipe for system %q", in.def.System)
	}
	return ctl, annotated, profiled, err
}

// tracedBatchOp mirrors blaze.Run for one op.
func (in *instance) tracedBatchOp(rec *recorder) (op opResult, info tracedInfo) {
	defer guard(&op.fail)
	d := in.def
	in.cap.take()
	rec.op++
	root := rec.begin(rec.driver(), spanOp)
	start := readUsage()

	params := blaze.EvalParams(d.SerFactor)
	ctl, annotated, profiled, err := in.newController(rec, false)
	if err != nil {
		op.fail = err.Error()
		return op, info
	}
	driver := func(ctx *dataflow.Context) {
		s := rec.begin(rec.driver(), spanDriver)
		if annotated {
			in.spec.Annotated(ctx, 1)
		} else {
			in.spec.Plain(ctx, 1)
		}
		rec.end(rec.driver(), s)
	}
	hook := &spanHook{rec: rec}

	if d.RealBytes {
		// blaze.runDirect: a private standalone cluster.
		ctx := dataflow.NewContext()
		cluster, err := engine.NewCluster(engine.Config{
			Executors: d.Executors, Parallelism: d.engineParallelism(), MemoryPerExecutor: in.mem,
			Params: params, Controller: ctl, Hook: hook,
			RealBytes: true, Vectorized: d.Vectorized,
		}, ctx)
		if err != nil {
			op.fail = err.Error()
			return op, info
		}
		defer cluster.Close()
		if profiled {
			cluster.AddProfilingTime(core.DefaultProfilingOverhead)
		}
		info.submit = rec.now()
		driver(ctx)
		info.metrics = cluster.Finish()
		snap := cluster.Meter().Snapshot()
		info.storage = &snap
		cluster.Close()
		info.waited = rec.now()
	} else {
		srv, err := server.New(server.Config{Executors: d.Executors, MemoryPerExecutor: in.mem})
		if err != nil {
			op.fail = err.Error()
			return op, info
		}
		defer srv.Close()
		var profiling time.Duration
		if profiled {
			profiling = core.DefaultProfilingOverhead
		}
		info.submit = rec.now()
		sess, err := srv.Submit(server.JobSpec{
			Driver: driver, Controller: ctl, Params: params, ProfilingOverhead: profiling,
			Hook: hook, Parallelism: d.engineParallelism(), Vectorized: d.Vectorized,
		})
		if err == nil {
			err = sess.Wait()
		}
		if err != nil {
			op.fail = err.Error()
			return op, info
		}
		info.metrics = sess.Metrics()
		srv.Close()
		info.waited = rec.now()
	}
	op.timed(start, in)
	rec.end(rec.driver(), root)

	op.act = info.metrics.ACT
	if info.storage != nil {
		op.disk = info.storage.DiskWrite.Bytes
	}
	op.fail = in.checkBatch(in.cap.take(), info.metrics)
	return op, info
}

// windowStats is blaze.Session's per-window delta of the cumulative
// metrics, rebuilt here because the traced stream drives
// server.StreamSession directly.
func windowStats(window int, cur, prev *metrics.App) blaze.WindowStats {
	return blaze.WindowStats{
		Window:            window,
		MemHits:           cur.CacheHits - prev.CacheHits,
		DiskHits:          cur.DiskHits - prev.DiskHits,
		Misses:            cur.Misses - prev.Misses,
		Evictions:         cur.Evictions - prev.Evictions,
		PartitionsRetired: cur.PartitionsRetired - prev.PartitionsRetired,
		ILPDeltaSolves:    cur.ILPDeltaSolves - prev.ILPDeltaSolves,
		ILPDeltaNodes:     cur.ILPDeltaNodes - prev.ILPDeltaNodes,
		ILPColdSolves:     cur.ILPColdSolves - prev.ILPColdSolves,
		ILPColdNodes:      cur.ILPColdNodes - prev.ILPColdNodes,
		ILPColdMismatches: cur.ILPColdMismatches - prev.ILPColdMismatches,
		ILPDeltaSolveTime: cur.ILPDeltaSolveTime - prev.ILPDeltaSolveTime,
		ILPColdSolveTime:  cur.ILPColdSolveTime - prev.ILPColdSolveTime,
	}
}

// tracedStream mirrors blaze.NewSession (durable, event log attached)
// plus the RunStream window loop, one op per window.
func (in *instance) tracedStream(rec *recorder) (sr streamResult, info tracedInfo) {
	defer guard(&sr.fail)
	d := in.def
	dir, err := os.MkdirTemp(in.workDir, "ckpt-*")
	if err != nil {
		sr.fail = err.Error()
		return sr, info
	}
	defer os.RemoveAll(dir)

	ctl, _, _, err := in.newController(rec, true)
	if err != nil {
		sr.fail = err.Error()
		return sr, info
	}
	log := eventlog.New()
	srv, err := server.New(server.Config{
		Executors: d.Executors, MemoryPerExecutor: d.StreamMem, Parallelism: d.engineParallelism(),
	})
	if err != nil {
		sr.fail = err.Error()
		return sr, info
	}
	defer srv.Close()
	info.submit = rec.now()
	st, err := srv.SubmitStream(server.JobSpec{
		Controller: ctl, Params: blaze.EvalParams(d.SerFactor), EventLog: log,
		Hook: &spanHook{rec: rec}, Parallelism: d.engineParallelism(), Vectorized: d.Vectorized,
	})
	if err != nil {
		sr.fail = err.Error()
		return sr, info
	}

	// blaze.Session.enableDurability: the checkpointer and the WAL are
	// attached in driver context.
	cp := &checkpoint.Checkpointer{
		Dir:     dir,
		Summary: func() any { return ctl.(*tracedBlaze).Summary() },
		OnWrite: func(window, blocks int, bytes int64, wall time.Duration) {
			sr.checkpoints = append(sr.checkpoints, blaze.CheckpointStat{Window: window, Blocks: blocks, Bytes: bytes, Wall: wall})
		},
	}
	var wal *eventlog.WAL
	var cl *engine.Cluster
	var setupErr error
	doErr := st.Do(func(ctx *dataflow.Context) {
		if wal, setupErr = eventlog.CreateWAL(checkpoint.WALPath(dir)); setupErr != nil {
			return
		}
		if setupErr = wal.AppendAll(log.Events()); setupErr != nil {
			return
		}
		log.SetSink(func(e eventlog.Event) {
			if err := wal.Append(e); err != nil {
				panic(fmt.Sprintf("bench: event wal append: %v", err))
			}
		})
		cl = ctx.Runner().(*engine.Cluster)
		cl.SetWindowCheckpointer(&tracedCheckpointer{inner: cp, rec: rec})
	})
	if doErr != nil || setupErr != nil {
		st.Close()
		sr.fail = fmt.Sprint("attach durability: ", doErr, setupErr)
		return sr, info
	}
	defer func() {
		if wal != nil {
			wal.Close()
		}
	}()

	step := d.streamStep(in.seed, false, in.cap)
	prev := metrics.NewApp(d.Executors)
	capture := func(window int) error {
		return st.Do(func(*dataflow.Context) {
			cur := metrics.NewApp(d.Executors)
			cur.CopyFrom(cl.Metrics())
			sr.stats = append(sr.stats, windowStats(window, cur, prev))
			prev = cur
		})
	}
	for w := 1; w <= d.Windows; w++ {
		in.cap.take()
		rec.op++
		root := rec.begin(rec.driver(), spanOp)
		start := readUsage()
		err := st.Do(func(ctx *dataflow.Context) {
			s := rec.begin(rec.driver(), spanDriver)
			step(ctx, w)
			rec.end(rec.driver(), s)
		})
		if err == nil {
			err = capture(w)
		}
		if err == nil {
			if w < d.Windows {
				_, err = st.NextWindow()
			} else {
				err = st.Close()
				log.SetSink(nil)
				wal.Close()
				wal = nil
				srv.Close()
				info.waited = rec.now()
			}
		}
		var op opResult
		op.timed(start, in)
		rec.end(rec.driver(), root)
		if err != nil {
			op.fail = err.Error()
			sr.ops = append(sr.ops, op)
			sr.fail = op.fail
			st.Close()
			return sr, info
		}
		if out := in.cap.take(); !reflect.DeepEqual(out, in.refWindows[w-1]) {
			op.fail = fmt.Sprintf("window %d ranks differ from the reference ranks", w)
		}
		sr.ops = append(sr.ops, op)
	}
	sr.metrics = st.Session().Metrics()
	sr.events = log.Len()
	info.metrics = sr.metrics
	info.checkpoints = sr.checkpoints
	in.finishStream(&sr, dir)
	return sr, info
}

// tracedUnit is unit, traced.
func (in *instance) tracedUnit(rec *recorder) ([]opResult, tracedInfo) {
	if in.def.Kind == kindStreamPR {
		sr, info := in.tracedStream(rec)
		return sr.ops, info
	}
	op, info := in.tracedBatchOp(rec)
	return []opResult{op}, info
}
