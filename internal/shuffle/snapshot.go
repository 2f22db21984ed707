package shuffle

// Checkpoint support: Snapshot captures the complete shuffle state —
// every output's bucket contents, byte counts, producing executors and
// seal status — and Restore rebuilds a Service from one. Bucket contents
// are carried as encoded blocks (storage.EncodeBatch / EncodeRecords, the
// format of every other at-rest partition), written straight from the
// retained batch or row slice, so a snapshot shares nothing with the live
// service.

import (
	"fmt"
	"sort"

	"blaze/internal/dataflow"
	"blaze/internal/storage"
)

// MapSnapshot is one map task's output in a Snapshot. Present
// distinguishes a recorded output from a missing (nil) entry. Buckets
// holds one encoded block per reduce bucket, nil for an empty bucket.
type MapSnapshot struct {
	Present  bool
	Executor int
	Buckets  [][]byte
	Bytes    []int64
}

// encodeBuckets encodes every non-empty bucket of a map output from the
// representation it is retained in.
func (m *mapOutput) encodeBuckets() ([][]byte, error) {
	out := make([][]byte, len(m.bytes))
	for b := range out {
		var err error
		switch {
		case m.batches != nil && m.batches[b].Len() > 0:
			out[b], err = storage.EncodeBatch(m.batches[b])
		case m.batches == nil && len(m.buckets[b]) > 0:
			out[b], err = storage.EncodeRecords(m.buckets[b])
		}
		if err != nil {
			return nil, fmt.Errorf("bucket %d: %w", b, err)
		}
	}
	return out, nil
}

// OutputSnapshot is one shuffle's state in a Snapshot.
type OutputSnapshot struct {
	ID         int
	NumBuckets int
	Sealed     bool
	Maps       []MapSnapshot
}

// Snapshot is the serializable state of a shuffle Service.
type Snapshot struct {
	TotalWritten int64
	Outputs      []OutputSnapshot
}

// Snapshot captures the service's current state, outputs sorted by id
// for determinism.
func (s *Service) Snapshot() (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := &Snapshot{TotalWritten: s.totalWritten}
	ids := make([]int, 0, len(s.outputs))
	for id := range s.outputs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		o := s.outputs[id]
		os := OutputSnapshot{ID: id, NumBuckets: o.numBuckets, Sealed: o.sealed, Maps: make([]MapSnapshot, len(o.maps))}
		for i, m := range o.maps {
			if m == nil {
				continue
			}
			buckets, err := m.encodeBuckets()
			if err != nil {
				return nil, fmt.Errorf("shuffle: snapshot: shuffle %d map output %d: %w", id, i, err)
			}
			os.Maps[i] = MapSnapshot{Present: true, Executor: m.executor, Buckets: buckets, Bytes: m.bytes}
		}
		snap.Outputs = append(snap.Outputs, os)
	}
	return snap, nil
}

// Restore replaces the service's state with the snapshot's; restored map
// outputs are held in columnar form. On error the service is unchanged.
func (s *Service) Restore(snap *Snapshot) error {
	outputs := make(map[int]*output, len(snap.Outputs))
	for _, os := range snap.Outputs {
		if os.NumBuckets <= 0 {
			return fmt.Errorf("shuffle: restore: shuffle %d has %d buckets", os.ID, os.NumBuckets)
		}
		// The router is rebuilt like Ensure's: a map task re-run after the
		// restore (its output was missing at the boundary) routes with it.
		o := &output{numBuckets: os.NumBuckets, router: dataflow.NewRouter(os.NumBuckets),
			sealed: os.Sealed, maps: make([]*mapOutput, len(os.Maps))}
		for i, m := range os.Maps {
			if !m.Present {
				continue
			}
			if len(m.Buckets) != os.NumBuckets || len(m.Bytes) != os.NumBuckets {
				return fmt.Errorf("shuffle: restore: shuffle %d map output %d has %d buckets and %d sizes, want %d",
					os.ID, i, len(m.Buckets), len(m.Bytes), os.NumBuckets)
			}
			batches := make([]*dataflow.Batch, len(m.Buckets))
			for b, data := range m.Buckets {
				if len(data) == 0 {
					continue
				}
				var err error
				if batches[b], err = storage.DecodeBatch(data); err != nil {
					return fmt.Errorf("shuffle: restore: shuffle %d map output %d bucket %d: %w", os.ID, i, b, err)
				}
			}
			o.maps[i] = &mapOutput{batches: batches, bytes: m.Bytes, executor: m.Executor}
		}
		outputs[os.ID] = o
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.totalWritten = snap.TotalWritten
	s.sealEpoch.Add(1)
	s.outputs = outputs
	return nil
}
