package storage

// Checkpoint-restore entry points: a resumed session re-inserts its
// checkpointed blocks with the exact metadata (access stats, insert
// sequence, stamped recovery cost) of the crashed run, then pins the
// internal counters (insert sequence, peaks, cumulative writes) so
// later behavior — FIFO ordering, peak reporting — is bit-identical to
// a run that never crashed. Restored admissions still pass through the
// quota controller: re-admitting a tenant's surviving blocks is what
// re-balances the ledger after the crash zeroed it.

import (
	"fmt"

	"blaze/internal/dataflow"
)

// Restore inserts a checkpointed block with its original metadata. The
// store must not already hold the block; capacity and tenant quota are
// enforced exactly as at first admission.
func (m *MemoryStore) Restore(meta BlockMeta, recs []dataflow.Record) error {
	return m.admit(&meta, Fresh(recs))
}

// Records returns a block's records without touching its access
// statistics — checkpoint capture must not perturb the LRU/LFU state it
// is snapshotting. Real-mode entries decode outside the decode cache so
// the cache's contents (and its measured hit counters) stay untouched.
func (m *MemoryStore) Records(id BlockID) ([]dataflow.Record, error) {
	e, ok := m.blocks[id]
	if !ok {
		return nil, fmt.Errorf("storage: block %v not in memory", id)
	}
	recs, err := e.p.records()
	if err != nil {
		return nil, fmt.Errorf("storage: memory block %v: %w", id, err)
	}
	return recs, nil
}

// Counters returns the store's insert sequence and peak usage for a
// checkpoint.
func (m *MemoryStore) Counters() (seq, peak int64) { return m.seq, m.peak }

// SetCounters pins the insert sequence and peak usage from a
// checkpoint, after all blocks have been Restored.
func (m *MemoryStore) SetCounters(seq, peak int64) {
	m.seq = seq
	if peak > m.peak {
		m.peak = peak
	}
}

// Restore inserts a checkpointed block with its original accounted
// size, without counting it toward TotalWritten (the crashed run
// already wrote it; SetCounters reinstates the cumulative figure).
func (d *DiskStore) Restore(id BlockID, recs []dataflow.Record, size int64) error {
	return d.store(id, Fresh(recs), size)
}

// Records returns a disk block's records without any metering — the
// checkpoint-capture counterpart of Get.
func (d *DiskStore) Records(id BlockID) ([]dataflow.Record, error) {
	e, ok := d.blocks[id]
	if !ok {
		return nil, fmt.Errorf("storage: block %v not on disk", id)
	}
	_, recs, err := d.readRecords(id, e)
	if err != nil {
		return nil, fmt.Errorf("storage: disk block %v (%s): %w", id, d.path(id), err)
	}
	return recs, nil
}

// Counters returns the disk store's peak footprint and cumulative
// written bytes for a checkpoint.
func (d *DiskStore) Counters() (peak, totalWritten int64) { return d.peak, d.totalWritten }

// SetCounters pins the peak footprint and cumulative written bytes from
// a checkpoint, after all blocks have been Restored.
func (d *DiskStore) SetCounters(peak, totalWritten int64) {
	if peak > d.peak {
		d.peak = peak
	}
	if totalWritten > d.totalWritten {
		d.totalWritten = totalWritten
	}
}
