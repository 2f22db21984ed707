package engine

import (
	"reflect"
	"testing"

	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/eventlog"
	"blaze/internal/metrics"
)

// runIterative executes the PageRank-shaped workload under one
// controller at the given parallelism and returns the cluster.
func runIterative(t *testing.T, ctl Controller, par int, log *eventlog.Log) *Cluster {
	t.Helper()
	ctx := dataflow.NewContext()
	c, err := NewCluster(Config{
		Executors:         4,
		Parallelism:       par,
		MemoryPerExecutor: 64 * 1024,
		Params:            costmodel.Default(),
		Controller:        ctl,
		EventLog:          log,
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	iterativeWorkload(ctx, 6, 8, 40, true)
	c.Finish()
	return c
}

// TestParallelStagesActuallyRun guards the eligibility gate against
// regressing into rejecting everything: a spill-only annotation system
// on a uniform-partition iterative workload must dispatch stages to
// concurrent workers.
func TestParallelStagesActuallyRun(t *testing.T) {
	c := runIterative(t, NewSparkMemDisk(), 8, nil)
	if c.parallelStages == 0 {
		t.Fatalf("no stage ran on the parallel path; the eligibility gate rejected everything")
	}
}

// TestParallelSequentialIdentityEngine checks bit-identical metrics and
// event logs between Parallelism 1 and 8 at the engine level, for both
// a spill-only and a drop-on-evict annotation controller.
func TestParallelSequentialIdentityEngine(t *testing.T) {
	build := []struct {
		name string
		ctl  func() Controller
	}{
		{"spark-memdisk", func() Controller { return NewSparkMemDisk() }},
		{"spark-mem", func() Controller { return NewSparkMemOnly() }},
		{"mrd", func() Controller { return NewMRD(MemDisk) }},
	}
	for _, b := range build {
		b := b
		t.Run(b.name, func(t *testing.T) {
			seqLog, parLog := eventlog.New(), eventlog.New()
			seq := runIterative(t, b.ctl(), 1, seqLog)
			par := runIterative(t, b.ctl(), 8, parLog)
			if !metrics.EqualDeterministic(seq.Metrics(), par.Metrics()) {
				t.Errorf("metrics differ:\nseq: %+v\npar: %+v", seq.Metrics(), par.Metrics())
			}
			if !reflect.DeepEqual(seqLog.Events(), parLog.Events()) {
				t.Errorf("event logs differ (%d vs %d events)", seqLog.Len(), parLog.Len())
			}
		})
	}
}

// zipAfterRelease builds the isolation walk's adversary on a
// four-executor, eight-partition cluster under a drop-on-evict LRU
// controller whose memory holds two blocks per executor. B is cached on
// every partition, and its lineage crosses a shuffle that Release then
// cleans, so a task that finds B's partition gone regenerates that
// shuffle: a nested stage across the whole cluster. The second job
// zips B with A, a cached dataset not yet computed, so every task
// computes and admits A's partition, which evicts one of its executor's
// B blocks. aFirst zips (A, B): the task's own admission drops the B
// partition it reads next. Otherwise it zips (B, A): the task's hit
// keeps its own B partition and the admission drops the one its
// executor's next task reads.
func zipAfterRelease(t *testing.T, par int, aFirst bool) (*Cluster, *eventlog.Log) {
	t.Helper()
	const parts, rows = 8, 40
	gen := func(part int) []dataflow.Record {
		out := make([]dataflow.Record, rows)
		for i := range out {
			out[i] = dataflow.Record{Key: int64(part*rows + i), Value: float64(part + i)}
		}
		return out
	}
	block := dataflow.EstimateRecords(gen(0)) // every A and B block
	log := eventlog.New()
	ctx := dataflow.NewContext()
	c, err := NewCluster(Config{
		Executors:         4,
		Parallelism:       par,
		MemoryPerExecutor: 2*block + block/2,
		Params:            costmodel.Default(),
		Controller:        NewSparkMemOnly(),
		EventLog:          log,
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	pre := ctx.Source("pre", parts, gen).Map("pre-map", func(r dataflow.Record) dataflow.Record { return r })
	sums := pre.ReduceByKey("sums", parts, func(a, b any) any { return a.(float64) + b.(float64) })
	b := sums.MapPartitions("b", dataflow.OpLight, func(part int, _ []dataflow.Record) []dataflow.Record {
		return gen(part)
	}).Cache()
	b.Count()
	pre.Release()
	a := ctx.Source("a-src", parts, gen).Map("a", func(r dataflow.Record) dataflow.Record { return r }).Cache()
	l, r := a, b
	if !aFirst {
		l, r = b, a
	}
	dataflow.Zip("zip", dataflow.OpLight, l, r, func(_ int, ls, rs []dataflow.Record) []dataflow.Record {
		return append(append([]dataflow.Record(nil), ls...), rs...)
	}).Count()
	c.Finish()
	return c, log
}

// TestIsolationWalkSeesAdmissions pins the two ways a segment walk could
// trust a memory copy that the segment itself may drop. Each case first
// checks that the sequential run really takes the escape (a B block
// dropped, the cleaned shuffle regenerated mid-task), then that
// Parallelism 8 reproduces its metrics and event log exactly: a task
// admitted to a segment on a stale memory copy regenerates the shuffle
// from inside a worker, which reorders the log.
func TestIsolationWalkSeesAdmissions(t *testing.T) {
	for _, tc := range []struct {
		name   string
		aFirst bool
	}{
		// A task's own admission: the walk must stop trusting memory once
		// the task may have admitted a block.
		{"own-admission", true},
		// An executor's earlier task in the segment: only its first task
		// may trust memory as the segment found it.
		{"same-executor-earlier-task", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq, seqLog := zipAfterRelease(t, 1, tc.aFirst)
			dropped, regen := 0, 0
			for _, e := range seqLog.Events() {
				if e.Kind == eventlog.BlockDropped && e.DatasetNm == "b" {
					dropped++
				}
				if e.Kind == eventlog.StageStart && e.Regen {
					regen++
				}
			}
			if dropped == 0 || regen == 0 {
				t.Fatalf("the sequential run dropped %d B blocks and regenerated %d stages; the scenario needs both", dropped, regen)
			}
			par, parLog := zipAfterRelease(t, 8, tc.aFirst)
			if !metrics.EqualDeterministic(seq.Metrics(), par.Metrics()) {
				t.Errorf("metrics differ:\nseq: %+v\npar: %+v", seq.Metrics(), par.Metrics())
			}
			if !reflect.DeepEqual(seqLog.Events(), parLog.Events()) {
				t.Errorf("event logs differ (%d vs %d events)", seqLog.Len(), parLog.Len())
			}
			if par.ParallelTasksRan() == 0 {
				t.Errorf("no task ran on a worker: the case no longer exercises segments")
			}
		})
	}
}
