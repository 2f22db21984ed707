package engine

// The data planes. The task loop in scheduler.go (runTaskOn /
// materializeOn / fetchShuffleOn) is written once, generic over the
// partition container P; a plane supplies only what genuinely depends on
// the container: rowPlane moves boxed []dataflow.Record slices, vecPlane
// typed *dataflow.Batch columns on pooled backing arrays.
//
// A plane may differ in representation, copying and buffer ownership.
// It may never charge a clock, touch c.met or c.meter, call the
// controller or emit an event — plane methods are not handed the
// Cluster, so the accounting sequence cannot fork. Batch kernels are
// required to be observationally identical to their row compute
// functions (same records, same order, bit-equal floats) and count/size
// agree across planes, so a columnar run's metrics and event log are
// byte-equal to the row run's. Block stores and the driver boundary stay
// row-typed: a batch is boxed (rows) at most once when a partition is
// cached, spilled or collected, and unboxed by copy (load) on a hit.

import (
	"sync/atomic"

	"blaze/internal/dataflow"
	"blaze/internal/shuffle"
	"blaze/internal/storage"
)

// plane is the container-dependent part of the task loop.
type plane[P any] interface {
	// load turns a store-resident row block into a partition.
	load(recs []dataflow.Record) P
	// fetch reads one reduce bucket and its byte size.
	fetch(s *shuffle.Service, shuffleID, bucket int) (P, int64, error)
	// compute runs the dataset's operator; the inputs are consumed.
	compute(ds *dataflow.Dataset, part int, ins []P) P
	count(p P) int
	size(p P) int64
	// rows boxes a partition for a block store or the driver; the
	// partition stays valid.
	rows(p P) []dataflow.Record
	release(p P)
	// writeMapOutput routes a map task's output into the stage's reduce
	// buckets, combines map-side, hands them to the shuffle service
	// (consuming out) and returns the bytes written.
	writeMapOutput(s *shuffle.Service, st *Stage, part, executor int, out P) (int64, error)
}

// rowPlane is the reference plane every identity test compares against:
// partitions are the store's own slices, so load/rows/release are free.
type rowPlane struct{}

func (rowPlane) load(recs []dataflow.Record) []dataflow.Record { return recs }
func (rowPlane) rows(p []dataflow.Record) []dataflow.Record    { return p }
func (rowPlane) release([]dataflow.Record)                     {}
func (rowPlane) count(p []dataflow.Record) int                 { return len(p) }
func (rowPlane) size(p []dataflow.Record) int64                { return storage.EstimateRecords(p) }

func (rowPlane) fetch(s *shuffle.Service, shuffleID, bucket int) ([]dataflow.Record, int64, error) {
	return s.Fetch(shuffleID, bucket)
}

func (rowPlane) compute(ds *dataflow.Dataset, part int, ins [][]dataflow.Record) []dataflow.Record {
	return ds.Compute(part, ins)
}

func (rowPlane) writeMapOutput(s *shuffle.Service, st *Stage, part, executor int, out []dataflow.Record) (int64, error) {
	dep := st.ShuffleDep
	buckets := make([][]dataflow.Record, st.NumBuckets)
	if dep.Broadcast {
		for b := range buckets {
			buckets[b] = out
		}
	} else {
		for _, r := range out {
			b := dataflow.HashPartition(r.Key, st.NumBuckets)
			buckets[b] = append(buckets[b], r)
		}
	}
	bucketBytes := make([]int64, st.NumBuckets)
	var written int64
	for b, brs := range buckets {
		if len(brs) == 0 {
			continue
		}
		if dep.Combine != nil {
			brs = dataflow.MergeByKey(brs, dep.Combine)
			buckets[b] = brs
		}
		bucketBytes[b] = storage.EstimateRecords(brs)
		written += bucketBytes[b]
	}
	return written, s.SetMapOutput(dep.ShuffleID, part, executor, buckets, bucketBytes)
}

// vecTasksTotal counts tasks executed on the columnar plane across the
// whole process. It exists so tests and blazebench can assert the
// vectorized path actually engaged — by construction nothing in a run's
// metrics or events reveals which plane ran.
var vecTasksTotal atomic.Int64

// VecTasksExecuted returns the process-wide count of columnar tasks.
func VecTasksExecuted() int64 { return vecTasksTotal.Load() }

// vecPlane owns its batches: load copies out of the store (so a
// released batch never aliases cached records), compute releases its
// inputs, and every partition the loop is done with goes back to the
// pool — except batches handed to the shuffle service, which retains
// them.
type vecPlane struct{}

func (vecPlane) load(recs []dataflow.Record) *dataflow.Batch { return dataflow.FromRecords(recs) }
func (vecPlane) rows(p *dataflow.Batch) []dataflow.Record    { return p.Records() }
func (vecPlane) release(p *dataflow.Batch)                   { p.Release() }
func (vecPlane) count(p *dataflow.Batch) int                 { return p.Len() }
func (vecPlane) size(p *dataflow.Batch) int64                { return p.EstimateSize() }

func (vecPlane) fetch(s *shuffle.Service, shuffleID, bucket int) (*dataflow.Batch, int64, error) {
	return s.FetchBatch(shuffleID, bucket)
}

func (vecPlane) compute(ds *dataflow.Dataset, part int, ins []*dataflow.Batch) *dataflow.Batch {
	out := ds.BatchCompute(part, ins)
	for _, in := range ins {
		in.Release() // kernels must not retain inputs; see batch.go
	}
	return out
}

func (vecPlane) writeMapOutput(s *shuffle.Service, st *Stage, part, executor int, out *dataflow.Batch) (int64, error) {
	dep := st.ShuffleDep
	batches := make([]*dataflow.Batch, st.NumBuckets)
	if dep.Broadcast {
		// Every bucket shares the one output batch; the shuffle service
		// retains it, so it is not released below.
		for b := range batches {
			batches[b] = out
		}
	} else {
		router, ok := s.Router(dep.ShuffleID)
		if !ok {
			router = dataflow.NewRouter(st.NumBuckets)
		}
		for i := 0; i < out.Len(); i++ {
			b := router.Bucket(out.Keys[i])
			bb := batches[b]
			if bb == nil {
				bb = dataflow.NewBatch(8)
				bb.NonNil = true // row routing appends, yielding non-nil buckets
				batches[b] = bb
			}
			bb.AppendFromBatch(out, i)
		}
	}
	bucketBytes := make([]int64, st.NumBuckets)
	var written int64
	for b, bb := range batches {
		if bb.Len() == 0 {
			continue // row plane skips empty buckets: size stays 0, not 24
		}
		if dep.Combine != nil {
			merged := combineBucket(bb, dep)
			bb.Release()
			batches[b] = merged
			bb = merged
		}
		bucketBytes[b] = bb.EstimateSize()
		written += bucketBytes[b]
	}
	if !dep.Broadcast {
		out.Release()
	}
	return written, s.SetMapOutputBatch(dep.ShuffleID, part, executor, batches, bucketBytes)
}

// combineBucket applies map-side combining to one routed bucket,
// unboxed when the dependency carries a float64 combiner and the bucket
// is a float64 column, boxed otherwise. Both branches preserve
// mergeByKey's first-seen key order and per-key accumulation order, so
// the merged values are bit-equal to the row plane's.
func combineBucket(bb *dataflow.Batch, dep dataflow.Dependency) *dataflow.Batch {
	if dep.CombineF64 != nil {
		if _, ok := bb.Col.(*dataflow.F64Column); ok {
			return dataflow.MergeBatchByKeyF64(bb, dep.CombineF64)
		}
	}
	return dataflow.FromRecords(dataflow.MergeByKey(bb.Records(), dep.Combine))
}
