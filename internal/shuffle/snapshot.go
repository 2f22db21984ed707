package shuffle

// Checkpoint support: Snapshot captures the complete shuffle state —
// every output's bucket contents, byte counts, producing executors and
// seal status — and Restore rebuilds a Service from one. Record slices
// are shared, not deep-copied: snapshots are taken at window boundaries
// in driver context and serialized immediately, and restored services
// never mutate bucket contents in place (invalidation nils whole map
// entries).

import (
	"sort"

	"blaze/internal/dataflow"
)

// MapSnapshot is one map task's output in a Snapshot. Present
// distinguishes a recorded output from a missing (nil) entry.
type MapSnapshot struct {
	Present  bool
	Executor int
	Buckets  [][]dataflow.Record
	Bytes    []int64
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
func (s *Service) Snapshot() *Snapshot {
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
			os.Maps[i] = MapSnapshot{Present: true, Executor: m.executor, Buckets: m.allBuckets(), Bytes: m.bytes}
		}
		snap.Outputs = append(snap.Outputs, os)
	}
	return snap
}

// Restore replaces the service's state with the snapshot's.
func (s *Service) Restore(snap *Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.totalWritten = snap.TotalWritten
	s.sealEpoch.Add(1)
	s.outputs = make(map[int]*output, len(snap.Outputs))
	for _, os := range snap.Outputs {
		o := &output{numBuckets: os.NumBuckets, sealed: os.Sealed, maps: make([]*mapOutput, len(os.Maps))}
		for i, m := range os.Maps {
			if !m.Present {
				continue
			}
			o.maps[i] = &mapOutput{buckets: m.Buckets, bytes: m.Bytes, executor: m.Executor}
		}
		s.outputs[os.ID] = o
	}
}
