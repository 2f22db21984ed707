package shuffle

// Checkpoint support: Snapshot captures the complete shuffle state —
// every output's buckets, byte counts, producing executors and seal
// status — and Restore rebuilds a Service from one. Capture encodes
// nothing: it takes one more share of every batch a map output owns, so
// the buckets stay intact however the service changes afterwards (a
// clean, a lost output), and Encode later turns them into encoded blocks
// (storage.EncodeBatch, the format of every other at-rest partition) on
// whatever goroutine the checkpoint writes from.

import (
	"fmt"
	"slices"
	"sort"

	"blaze/internal/dataflow"
	"blaze/internal/storage"
)

// MapSnapshot is one map task's output in a Snapshot. Present
// distinguishes a recorded output from a missing (nil) entry. Buckets
// holds one encoded block per reduce bucket, nil for an empty bucket,
// once the snapshot is encoded (or as loaded).
type MapSnapshot struct {
	Present  bool
	Executor int
	Buckets  [][]byte
	Bytes    []int64

	// views are the captured output's buckets until Release: views on
	// the batches the snapshot holds shares of.
	views []*dataflow.Batch
}

// encodeBuckets encodes every non-empty captured bucket, appending to
// buf. A view on a split's container encodes its own range, exactly as a
// bucket on arrays of its own.
func (m *MapSnapshot) encodeBuckets(buf []byte) ([]byte, error) {
	m.Buckets = make([][]byte, len(m.Bytes))
	for b, bb := range m.views {
		if bb.Len() == 0 {
			continue
		}
		start := len(buf)
		var err error
		if buf, err = storage.AppendBatch(buf, bb); err != nil {
			return buf, fmt.Errorf("bucket %d: %w", b, err)
		}
		m.Buckets[b] = buf[start:len(buf):len(buf)]
	}
	return buf, nil
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

	// shares are the batches the capture took a share of, released once
	// by Release.
	shares []*dataflow.Batch
}

// Snapshot captures the service's current state, outputs sorted by id
// for determinism: every map output's buckets as they are, held by one
// more share of each batch the output owns, and a copy of its byte
// counts. Nothing is encoded; call Encode, and Release once the
// encoding is done or will not be made.
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
			for _, bb := range m.owned {
				snap.shares = append(snap.shares, bb.Share())
			}
			os.Maps[i] = MapSnapshot{Present: true, Executor: m.executor, Bytes: slices.Clone(m.bytes), views: m.batches}
		}
		snap.Outputs = append(snap.Outputs, os)
	}
	return snap
}

// Encode encodes every captured bucket into Buckets, appending the
// encodings to buf (storage.AppendBatch), and returns buf as extended;
// the buckets alias its array. It may run on any goroutine, concurrently
// with the service, once; the capture's shares stay held until Release.
// A snapshot that holds no capture (released or loaded) is left as it
// is.
func (snap *Snapshot) Encode(buf []byte) ([]byte, error) {
	for oi := range snap.Outputs {
		o := &snap.Outputs[oi]
		for i := range o.Maps {
			if m := &o.Maps[i]; m.views != nil {
				var err error
				if buf, err = m.encodeBuckets(buf); err != nil {
					return buf, fmt.Errorf("shuffle: snapshot: shuffle %d map output %d: %w", o.ID, i, err)
				}
			}
		}
	}
	return buf, nil
}

// EncodedSize is how many bytes Encode appends, as far as it is known
// without encoding (storage.BatchSize).
func (snap *Snapshot) EncodedSize() int {
	if snap == nil {
		return 0
	}
	n := 0
	for oi := range snap.Outputs {
		for _, m := range snap.Outputs[oi].Maps {
			for _, bb := range m.views {
				if bb.Len() > 0 { // as encodeBuckets skips them
					n += storage.BatchSize(bb)
				}
			}
		}
	}
	return n
}

// Release gives up the capture's shares, after Encode or instead of it.
// Encoded buckets stay. Safe to call more than once and on a nil
// snapshot.
func (snap *Snapshot) Release() {
	if snap == nil {
		return
	}
	for _, bb := range snap.shares {
		bb.Release()
	}
	snap.shares = nil
	for oi := range snap.Outputs {
		for i := range snap.Outputs[oi].Maps {
			snap.Outputs[oi].Maps[i].views = nil
		}
	}
}

// Restore replaces the service's state with the snapshot's; restored map
// outputs hold their buckets as storage.DecodeBatch returns them. On
// error the service is unchanged.
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
			o.maps[i] = &mapOutput{batches: batches, owned: batches, bytes: m.Bytes, executor: m.Executor}
		}
		outputs[os.ID] = o
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range s.outputs {
		o.release()
	}
	s.totalWritten = snap.TotalWritten
	s.sealEpoch.Add(1)
	s.outputs = outputs
	return nil
}
