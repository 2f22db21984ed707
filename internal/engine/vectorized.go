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
// byte-equal to the row run's.
//
// Each plane keeps its own form end to end. The block stores hold what a
// plane hands them: a columnar partition is cached as a typed batch (a
// bulk copy the store owns until the block leaves it) and comes back on a
// hit as another bulk copy, never boxed. Rows are built only for the
// driver (a collect), and a count reports the partition's length.

import (
	"sync/atomic"

	"blaze/internal/dataflow"
	"blaze/internal/shuffle"
	"blaze/internal/storage"
)

// plane is the container-dependent part of the task loop.
type plane[P any] interface {
	// load turns what a store read returned into a partition the task
	// owns.
	load(p storage.Payload) P
	// stored wraps a partition for a block store, which packs a copy;
	// the partition stays the task's.
	stored(p P) storage.Payload
	// fetch reads one reduce bucket and its byte size.
	fetch(s *shuffle.Service, shuffleID, bucket int) (P, int64, error)
	// compute runs the dataset's operator; the inputs are consumed.
	compute(ds *dataflow.Dataset, part int, ins []P) P
	count(p P) int
	size(p P) int64
	// rows boxes a partition for the driver; the partition stays valid.
	rows(p P) []dataflow.Record
	release(p P)
	// writeMapOutput routes a map task's output into the stage's reduce
	// buckets, combines map-side, hands them to the shuffle service
	// (consuming out) and returns the bytes written.
	writeMapOutput(s *shuffle.Service, st *Stage, part, executor int, out P) (int64, error)
}

// rowPlane is the reference plane every identity test compares against:
// partitions are the store's own slices, so load/stored/release are free.
type rowPlane struct{}

func (rowPlane) load(p storage.Payload) []dataflow.Record   { return p.Records() }
func (rowPlane) stored(p []dataflow.Record) storage.Payload { return storage.Fresh(p) }
func (rowPlane) rows(p []dataflow.Record) []dataflow.Record { return p }
func (rowPlane) release([]dataflow.Record)                  {}
func (rowPlane) count(p []dataflow.Record) int              { return len(p) }
func (rowPlane) size(p []dataflow.Record) int64             { return storage.EstimateRecords(p) }

func (rowPlane) fetch(s *shuffle.Service, shuffleID, bucket int) ([]dataflow.Record, int64, error) {
	return s.Fetch(shuffleID, bucket)
}

func (rowPlane) compute(ds *dataflow.Dataset, part int, ins [][]dataflow.Record) []dataflow.Record {
	return ds.Compute(part, ins)
}

func (rowPlane) writeMapOutput(s *shuffle.Service, st *Stage, part, executor int, out []dataflow.Record) (int64, error) {
	buckets, bucketBytes, written := rowPlane{}.route(st.ShuffleDep, st.NumBuckets, out)
	return written, s.SetMapOutput(st.ShuffleDep.ShuffleID, part, executor, buckets, bucketBytes)
}

// route splits a map task's output into numBuckets reduce buckets and
// combines each map-side: the reference every other route must equal.
func (rowPlane) route(dep dataflow.Dependency, numBuckets int, out []dataflow.Record) ([][]dataflow.Record, []int64, int64) {
	buckets := make([][]dataflow.Record, numBuckets)
	if dep.Broadcast {
		for b := range buckets {
			buckets[b] = out
		}
	} else {
		for _, r := range out {
			b := dataflow.HashPartition(r.Key, numBuckets)
			buckets[b] = append(buckets[b], r)
		}
	}
	bucketBytes := make([]int64, numBuckets)
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
	return buckets, bucketBytes, written
}

// vecTasksTotal counts tasks executed on the columnar plane across the
// whole process. It exists so tests and blazebench can assert the
// vectorized path actually engaged — by construction nothing in a run's
// metrics or events reveals which plane ran.
var vecTasksTotal atomic.Int64

// VecTasksExecuted returns the process-wide count of columnar tasks.
func VecTasksExecuted() int64 { return vecTasksTotal.Load() }

// vecPlane owns its batches: load copies out of the store and the store
// copies in, so a task's batch never aliases a cached one; compute
// releases its inputs, and every partition the loop is done with goes
// back to the pool — except batches handed to the shuffle service, which
// releases them when the shuffle is cleaned.
type vecPlane struct{}

func (vecPlane) load(p storage.Payload) *dataflow.Batch   { return p.Batch() }
func (vecPlane) stored(p *dataflow.Batch) storage.Payload { return storage.FreshBatch(p) }
func (vecPlane) rows(p *dataflow.Batch) []dataflow.Record { return p.Records() }
func (vecPlane) release(p *dataflow.Batch)                { p.Release() }
func (vecPlane) count(p *dataflow.Batch) int              { return p.Len() }
func (vecPlane) size(p *dataflow.Batch) int64             { return p.EstimateSize() }

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
	router, ok := s.Router(dep.ShuffleID)
	if !ok {
		router = dataflow.NewRouter(st.NumBuckets)
	}
	batches, bucketBytes, written := vecPlane{}.route(dep, router, out)
	return written, s.SetMapOutputBatch(dep.ShuffleID, part, executor, batches, bucketBytes)
}

// route is rowPlane.route over a batch. It consumes out, and every
// bucket it returns sits on arrays of exactly its size, as the shuffle
// service keeps it until the shuffle is cleaned (see Router.Split).
func (vecPlane) route(dep dataflow.Dependency, router dataflow.Router, out *dataflow.Batch) ([]*dataflow.Batch, []int64, int64) {
	var batches []*dataflow.Batch
	_, f64 := out.Col.(*dataflow.F64Column)
	switch {
	case dep.Broadcast:
		// Every bucket shares one copy of the output, released once.
		kept := out.CloneExact()
		batches = make([]*dataflow.Batch, router.Parts())
		for b := range batches {
			batches[b] = kept
		}
	case f64 && dep.CombineF64 != nil:
		// Combine the whole output once, then route. Every key lands in
		// exactly one bucket, so each bucket's first-seen key order and
		// each key's accumulation order are those of the row plane's
		// route-then-combine, bit for bit.
		merged := dataflow.MergeBatchByKeyF64(out, dep.CombineF64)
		batches = router.Split(merged)
		merged.Release()
	default:
		batches = router.Split(out)
		for b, bb := range batches {
			if bb != nil && dep.Combine != nil {
				// Any other combiner runs per bucket, boxed, exactly as the
				// row plane does.
				merged := dataflow.FromRecords(dataflow.MergeByKey(bb.Records(), dep.Combine))
				batches[b] = merged.CloneExact()
				merged.Release()
				bb.Release()
			}
		}
	}
	out.Release()
	bucketBytes := make([]int64, len(batches))
	var written int64
	for b, bb := range batches {
		if bb.Len() > 0 { // the row plane skips empty buckets: size stays 0, not 24
			bucketBytes[b] = bb.EstimateSize()
			written += bucketBytes[b]
		}
	}
	return batches, bucketBytes, written
}
