// Package shuffle implements the shuffle service: map tasks write
// hash-partitioned (optionally map-side-combined) buckets, reduce tasks
// fetch them. Shuffle outputs persist across jobs like Spark's shuffle
// files — iterative jobs skip already-computed map stages — until the
// producing dataset is released by the driver, at which point the outputs
// are cleaned (Spark's ContextCleaner). A reduce task that finds its
// shuffle cleaned triggers parent-stage regeneration in the engine, which
// is how long recomputation lineages arise across iterations (Fig. 5).
//
// Outputs are tracked per map task, mirroring Spark's map-output files:
// each map partition owns one set of reduce buckets, tagged with the
// executor that produced it. That granularity is what enables partial
// recovery — losing a single bucket (or every output of a dead executor)
// invalidates only the producing map tasks, and the engine re-runs
// exactly those instead of the whole map stage.
package shuffle

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"blaze/internal/dataflow"
)

// mapOutput is one map task's contribution: one batch (nil when empty)
// and a byte count per reduce bucket, tagged with the producing executor.
// A bucket keeps the form its map task gave it, columnar or row form.
// The service owns the output as one unit: every fetch copies out of its
// buckets, and the batches in owned, which hold the buckets' storage, go
// back to the pool when the output leaves the service (release). A split
// output's buckets are views on its one container, a broadcast's are
// its one batch; any other output owns each bucket.
type mapOutput struct {
	batches  []*dataflow.Batch
	owned    []*dataflow.Batch
	bytes    []int64
	executor int
}

// release returns the output's storage to the pool once it has left the
// service.
func (m *mapOutput) release() {
	if m == nil {
		return
	}
	for _, bb := range m.owned {
		bb.Release()
	}
}

type output struct {
	numBuckets int
	// router is the memoized bucket router for this shuffle's reduce
	// side, built once in Ensure.
	router dataflow.Router
	// maps is indexed by map partition; nil entries are missing (never
	// written, or invalidated by a fault).
	maps []*mapOutput
	// sealed is set by MarkComplete once every map output is present and
	// cleared again when any of them is invalidated.
	sealed bool
}

func (o *output) allPresent() bool {
	for _, m := range o.maps {
		if m == nil {
			return false
		}
	}
	return true
}

// Service stores shuffle outputs keyed by shuffle id. All methods are
// safe for concurrent use: map tasks of a parallel stage write their
// outputs (SetMapOutput) and reduce tasks fetch completed buckets
// concurrently. Structural transitions — Ensure, MarkComplete, Clean and
// the fault-loss operations — are only ever issued from the driver
// between tasks, so a shuffle's completeness is stable while a stage's
// tasks are in flight.
type Service struct {
	mu      sync.Mutex
	outputs map[int]*output
	// totalWritten accumulates bytes ever written, for reporting.
	totalWritten int64
	// sealEpoch counts the transitions that can flip some shuffle's
	// completeness. Whoever caches a conclusion drawn from Complete
	// records the count and revalidates when it has moved; atomic so that
	// check costs no lock on the task path.
	sealEpoch atomic.Uint64
}

// NewService creates an empty shuffle service.
func NewService() *Service {
	return &Service{outputs: make(map[int]*output)}
}

// Ensure prepares storage for a shuffle with the given reduce-side bucket
// count and map-side task count. Calling it again with the same id is a
// no-op.
func (s *Service) Ensure(shuffleID, buckets, maps int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.outputs[shuffleID]; ok {
		return
	}
	s.outputs[shuffleID] = &output{
		numBuckets: buckets,
		router:     dataflow.NewRouter(buckets),
		maps:       make([]*mapOutput, maps),
	}
}

// checkSet validates a map-output write under s.mu.
func (s *Service) checkSet(shuffleID, mapPart, nBuckets, nBytes int) (*output, error) {
	o, ok := s.outputs[shuffleID]
	if !ok {
		return nil, fmt.Errorf("shuffle: shuffle %d not prepared", shuffleID)
	}
	if mapPart < 0 || mapPart >= len(o.maps) {
		return nil, fmt.Errorf("shuffle: shuffle %d has no map partition %d", shuffleID, mapPart)
	}
	if o.sealed {
		return nil, fmt.Errorf("shuffle: shuffle %d already complete", shuffleID)
	}
	if o.maps[mapPart] != nil {
		return nil, fmt.Errorf("shuffle: shuffle %d map output %d already present", shuffleID, mapPart)
	}
	if nBuckets != o.numBuckets || nBytes != o.numBuckets {
		return nil, fmt.Errorf("shuffle: shuffle %d expects %d buckets, got %d", shuffleID, o.numBuckets, nBuckets)
	}
	return o, nil
}

// SetMapOutput is SetMapOutputBatch of row-form buckets.
func (s *Service) SetMapOutput(shuffleID, mapPart, executor int, buckets [][]dataflow.Record, bytes []int64) error {
	return s.SetMapOutputBatch(shuffleID, mapPart, executor, dataflow.RowsEach(buckets), bytes)
}

// SetMapOutputBatch stores one map task's complete bucket set, replacing
// nothing: the map output must be currently missing (fresh or
// invalidated), which is exactly the set of tasks the engine re-runs. The
// caller hands over ownership: the service releases the batches when the
// output is cleaned or lost.
func (s *Service) SetMapOutputBatch(shuffleID, mapPart, executor int, batches []*dataflow.Batch, bytes []int64) error {
	return s.SetMapOutputViews(shuffleID, mapPart, executor, batches, batches, bytes)
}

// SetMapOutputViews is SetMapOutputBatch of buckets that are views on
// the batches in owned (a Router.Split's container, or one batch every
// bucket of a broadcast shares). The service owns them instead, and
// releases each once.
func (s *Service) SetMapOutputViews(shuffleID, mapPart, executor int, views, owned []*dataflow.Batch, bytes []int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.checkSet(shuffleID, mapPart, len(views), len(bytes))
	if err != nil {
		return err
	}
	o.maps[mapPart] = &mapOutput{batches: views, owned: owned, bytes: bytes, executor: executor}
	for _, b := range bytes {
		s.totalWritten += b
	}
	return nil
}

// MarkComplete seals the shuffle after its map stage finishes. It is a
// no-op while map outputs are still missing.
func (s *Service) MarkComplete(shuffleID int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o, ok := s.outputs[shuffleID]; ok && o.allPresent() {
		o.sealed = true
		s.sealEpoch.Add(1)
	}
}

// SealEpoch returns a counter that moves whenever any shuffle's
// completeness may have changed (sealed, cleaned, partially lost or
// restored). Equal readings mean every Complete answer is unchanged.
func (s *Service) SealEpoch() uint64 { return s.sealEpoch.Load() }

// Complete reports whether the shuffle's outputs are all available.
func (s *Service) Complete(shuffleID int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.outputs[shuffleID]
	return ok && o.sealed
}

// MissingMaps lists the map partitions whose outputs are absent, in
// ascending order — the exact task set a (re-)run of the map stage must
// execute. An unknown shuffle has no entry; Ensure it first.
func (s *Service) MissingMaps(shuffleID int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.outputs[shuffleID]
	if !ok {
		return nil
	}
	var out []int
	for m, mo := range o.maps {
		if mo == nil {
			out = append(out, m)
		}
	}
	return out
}

// Fetch is FetchBatch as rows.
func (s *Service) Fetch(shuffleID, bucket int) ([]dataflow.Record, int64, error) {
	b, bytes, err := s.FetchBatch(shuffleID, bucket)
	if err != nil {
		return nil, 0, err
	}
	recs := b.Records()
	b.Release()
	return recs, bytes, nil
}

// FetchBatch returns the records and byte size of one reduce bucket,
// concatenating map outputs in map-partition order (the order the
// original sequential task execution produced). The bucket is columnar
// when every map output that holds some of its records holds them in one
// flat column type: one bulk append per array (Batch.AppendBatch), fresh
// and exactly sized. Otherwise it is in row form, a columnar bucket boxed
// in (or, when one row-form output holds all of them, its batch itself).
// The caller owns the returned batch; its rows are nil only when no
// records were appended.
func (s *Service) FetchBatch(shuffleID, bucket int) (*dataflow.Batch, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.outputs[shuffleID]
	if !ok || !o.sealed {
		return nil, 0, fmt.Errorf("shuffle: shuffle %d not complete", shuffleID)
	}
	total, holders, rows := 0, 0, false
	var bytes int64
	var last *dataflow.Batch
	for _, mo := range o.maps {
		if bb := mo.batches[bucket]; bb.Len() > 0 {
			total += bb.Len()
			holders++
			rows = rows || bb.RowForm() || last != nil && reflect.TypeOf(bb.Col) != reflect.TypeOf(last.Col)
			last = bb
		}
		bytes += mo.bytes[bucket]
	}
	switch {
	case rows && holders == 1:
		return last, bytes, nil // a row-form batch never changes: share it
	case rows:
		recs := make([]dataflow.Record, 0, total)
		for _, mo := range o.maps {
			recs = append(recs, mo.batches[bucket].Records()...)
		}
		return dataflow.Rows(recs), bytes, nil
	}
	out := dataflow.NewBatch(total)
	for _, mo := range o.maps {
		out.AppendBatch(mo.batches[bucket])
	}
	out.NonNil = out.Len() > 0
	return out, bytes, nil
}

// Router returns the memoized key router for a prepared shuffle, so the
// per-record route loop skips both construction and the modulo divide.
func (s *Service) Router(shuffleID int) (dataflow.Router, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.outputs[shuffleID]
	if !ok {
		return dataflow.Router{}, false
	}
	return o.router, true
}

// Clean removes a shuffle's outputs entirely; subsequent fetches force
// regeneration of every map task.
func (s *Service) Clean(shuffleID int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o, ok := s.outputs[shuffleID]; ok {
		o.release()
	}
	delete(s.outputs, shuffleID)
	s.sealEpoch.Add(1)
}

// ReleaseAll removes every shuffle's outputs at once, returning each map
// output's storage to the pool once: what the owner of a finished
// session's cluster calls, so the outputs its last jobs left registered
// go back to the pools instead of to the garbage collector.
func (s *Service) ReleaseAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range s.outputs {
		o.release()
	}
	clear(s.outputs)
	s.sealEpoch.Add(1)
}

// Held reports how many shuffles the service holds outputs for.
func (s *Service) Held() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.outputs)
}

// release returns every retained batch of the shuffle to the pool.
func (o *output) release() {
	for _, m := range o.maps {
		m.release()
	}
}

// LostMapOutput identifies one invalidated map output and the bytes it
// held across all buckets.
type LostMapOutput struct {
	Shuffle int
	MapPart int
	Bytes   int64
}

// LoseBucket invalidates a single map-output bucket (the analogue of one
// lost shuffle file, shuffle_mapPart_bucket). The producing map task must
// re-run — a re-run rewrites all of its buckets — so the whole map output
// is marked missing; the returned bytes are the lost bucket's alone.
func (s *Service) LoseBucket(shuffleID, mapPart, bucket int) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.outputs[shuffleID]
	if !ok || mapPart < 0 || mapPart >= len(o.maps) || o.maps[mapPart] == nil {
		return 0, false
	}
	if bucket < 0 || bucket >= o.numBuckets {
		return 0, false
	}
	bytes := o.maps[mapPart].bytes[bucket]
	o.maps[mapPart].release()
	o.maps[mapPart] = nil
	o.sealed = false
	s.sealEpoch.Add(1)
	return bytes, true
}

// LoseExecutorOutputs invalidates every map output the executor produced
// — its map-output files die with it — and returns what was lost, in
// (shuffle, map partition) ascending order.
func (s *Service) LoseExecutorOutputs(executor int) []LostMapOutput {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]int, 0, len(s.outputs))
	for id := range s.outputs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var lost []LostMapOutput
	for _, id := range ids {
		o := s.outputs[id]
		for m, mo := range o.maps {
			if mo == nil || mo.executor != executor {
				continue
			}
			var bytes int64
			for _, b := range mo.bytes {
				bytes += b
			}
			mo.release()
			o.maps[m] = nil
			o.sealed = false
			s.sealEpoch.Add(1)
			lost = append(lost, LostMapOutput{Shuffle: id, MapPart: m, Bytes: bytes})
		}
	}
	return lost
}

// BucketRef names one present map-output bucket.
type BucketRef struct {
	MapPart int
	Bucket  int
	Bytes   int64
}

// BucketRefs lists the present non-empty map-output buckets of a shuffle
// in (map partition, bucket) ascending order — the candidate set for
// bucket-loss injection.
func (s *Service) BucketRefs(shuffleID int) []BucketRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.outputs[shuffleID]
	if !ok {
		return nil
	}
	var refs []BucketRef
	for m, mo := range o.maps {
		if mo == nil {
			continue
		}
		for b, bytes := range mo.bytes {
			if bytes > 0 {
				refs = append(refs, BucketRef{MapPart: m, Bucket: b, Bytes: bytes})
			}
		}
	}
	return refs
}

// CompleteIDs lists the ids of all complete shuffles in ascending order,
// for deterministic enumeration by the fault injector.
func (s *Service) CompleteIDs() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []int
	for id, o := range s.outputs {
		if o.sealed {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}
