package engine

// The data plane. The task loop in scheduler.go moves every partition as
// one *dataflow.Batch, in the form its producer gave it (see
// dataflow/batch.go): a kernel's output, a decoded block and a typed
// source are columnar; a row function's records are a row-form batch,
// shared and never copied per record. Nothing converts a partition on
// the way through: a store keeps a share of the batch it is handed, a hit
// returns another, and a map output is routed, combined and sized by the
// rules of its form. Kernels are observationally identical to their row
// functions and sizes agree across forms, so no charge, callback or event
// depends on which form a partition took.

import (
	"sync/atomic"

	"blaze/internal/dataflow"
	"blaze/internal/storage"
)

// tasksTotal counts the tasks executed across the whole process.
var tasksTotal atomic.Int64

// TasksExecuted returns the process-wide count of executed tasks, for
// the deprecated blaze.VecTasksExecuted.
func TasksExecuted() int64 { return tasksTotal.Load() }

// writeMapOutput routes a map task's output into the stage's reduce
// buckets, combines map-side, hands them to the shuffle service
// (consuming out) and returns the bytes written.
func (c *Cluster) writeMapOutput(st *Stage, part, executor int, out *dataflow.Batch) (int64, error) {
	dep := st.ShuffleDep
	router, ok := c.shuffle.Router(dep.ShuffleID)
	if !ok {
		router = dataflow.NewRouter(st.NumBuckets)
	}
	buckets, owned, bucketBytes, written := route(dep, router, out)
	return written, c.shuffle.SetMapOutputViews(dep.ShuffleID, part, executor, buckets, owned, bucketBytes)
}

// route splits a map task's output into the router's buckets, combining
// each map-side, and consumes out. It returns the buckets with the
// batches that own their storage, which the shuffle service releases
// once the output leaves it. A columnar float64 output with an unboxed
// combiner is combined once and then split: every key lands in exactly
// one bucket, so each bucket's first-seen key order and each key's
// accumulation order are those of combining bucket by bucket, bit for
// bit. Any other columnar output is split uncombined. A row-form output,
// and any combine through the boxed Combine, go by rows (routeRows). A
// split's buckets are views on one container (Router.Split); a
// broadcast's are the output itself, which moves to the shuffle service
// with the task's share.
func route(dep dataflow.Dependency, router dataflow.Router, out *dataflow.Batch) (buckets, owned []*dataflow.Batch, bucketBytes []int64, written int64) {
	_, f64 := out.Col.(*dataflow.Dense[float64])
	unboxed := f64 && dep.CombineF64 != nil
	if out.RowForm() || dep.Combine != nil && !unboxed {
		recs := out.Records()
		out.Release()
		buckets, bucketBytes, written = routeRows(dep, router, recs)
		return buckets, buckets, bucketBytes, written
	}
	switch {
	case dep.Broadcast:
		buckets = make([]*dataflow.Batch, router.Parts())
		for b := range buckets {
			buckets[b] = out
		}
		owned = []*dataflow.Batch{out}
	case unboxed:
		merged := dataflow.MergeBatchByKeyF64(out, dep.CombineF64)
		buckets, owned = router.Split(merged)
		merged.Release()
		out.Release()
	default:
		buckets, owned = router.Split(out)
		out.Release()
	}
	bucketBytes = make([]int64, len(buckets))
	for b, bb := range buckets {
		if bb.Len() > 0 { // an empty bucket accounts 0 bytes, not 24
			bucketBytes[b] = bb.EstimateSize()
			written += bucketBytes[b]
		}
	}
	return buckets, owned, bucketBytes, written
}

// routeRows routes records in output order into their buckets, combines
// each bucket with the boxed Combine, and keeps every non-empty bucket in
// row form. A broadcast output fills every bucket with one shared batch.
func routeRows(dep dataflow.Dependency, router dataflow.Router, recs []dataflow.Record) ([]*dataflow.Batch, []int64, int64) {
	rows := make([][]dataflow.Record, router.Parts())
	if dep.Broadcast {
		rows = rows[:1]
		rows[0] = recs
	} else {
		for _, r := range recs {
			b := router.Bucket(r.Key)
			rows[b] = append(rows[b], r)
		}
	}
	bucketBytes := make([]int64, router.Parts())
	for b, brs := range rows {
		if len(brs) == 0 {
			continue
		}
		if dep.Combine != nil {
			rows[b] = dataflow.MergeByKey(brs, dep.Combine)
		}
		bucketBytes[b] = storage.EstimateRecords(rows[b])
	}
	batches := dataflow.RowsEach(rows)
	if dep.Broadcast {
		shared := batches[0]
		batches = make([]*dataflow.Batch, len(bucketBytes))
		for b := range batches {
			batches[b], bucketBytes[b] = shared, bucketBytes[0]
		}
	}
	var written int64
	for _, n := range bucketBytes {
		written += n
	}
	return batches, bucketBytes, written
}
