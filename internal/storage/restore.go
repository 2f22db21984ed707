package storage

// Checkpoint entry points: capture reads every resident block in its
// encoded form, and a resumed session re-inserts its checkpointed blocks
// with the exact metadata (access stats, insert sequence, stamped
// recovery cost) of the crashed run, then pins the internal counters
// (insert sequence, peaks, cumulative writes) so later behavior — FIFO
// ordering, peak reporting — is bit-identical to a run that never
// crashed. Restored admissions still pass through the quota controller:
// re-admitting a tenant's surviving blocks is what re-balances the ledger
// after the crash zeroed it.

import (
	"bytes"
	"fmt"
)

// restored is the payload a store of the given mode holds for a
// checkpointed block: a copy of its bytes (real bytes; the checkpoint's
// buffer is not the store's), or its decoded batch (virtual, DecodeBatch).
func restored(real bool, data []byte) (Payload, error) {
	if real {
		return Payload{data: bytes.Clone(data), form: formEncoded}, nil
	}
	b, err := DecodeBatch(data)
	if err != nil {
		return Payload{}, err
	}
	return Payload{batch: b, form: formBatch}, nil
}

// Restore inserts a checkpointed block, given as the bytes Encoded
// returned, with its original metadata. The store must not already hold
// the block; capacity and tenant quota are enforced exactly as at first
// admission.
func (m *MemoryStore) Restore(meta BlockMeta, data []byte) error {
	p, err := restored(m.real, data)
	if err != nil {
		return fmt.Errorf("storage: memory block %v: %w", meta.ID, err)
	}
	return m.admit(&meta, p)
}

// Encoded returns a block's block encoding for a checkpoint without
// touching its access statistics — capture must not perturb the LRU/LFU
// state it is snapshotting: a real-bytes block's bytes as they are held,
// a live block encoded (EncodeBatch: the same bytes as its rows would
// give).
func (m *MemoryStore) Encoded(id BlockID) ([]byte, error) {
	e, ok := m.blocks[id]
	if !ok {
		return nil, fmt.Errorf("storage: block %v not in memory", id)
	}
	data, err := e.p.encoded()
	if err != nil {
		return nil, fmt.Errorf("storage: memory block %v: %w", id, err)
	}
	return data, nil
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

// Restore inserts a checkpointed block, given as the bytes Encoded
// returned, with its original accounted size, without counting it toward
// TotalWritten (the crashed run already wrote it; SetCounters reinstates
// the cumulative figure).
func (d *DiskStore) Restore(id BlockID, data []byte, size int64) error {
	p, err := restored(d.real, data)
	if err != nil {
		return fmt.Errorf("storage: disk block %v: %w", id, err)
	}
	return d.store(id, p, size)
}

// Encoded is MemoryStore.Encoded for a disk block, without any metering:
// a real-bytes block is its file's bytes, read but not decoded.
func (d *DiskStore) Encoded(id BlockID) ([]byte, error) {
	e, ok := d.blocks[id]
	if !ok {
		return nil, fmt.Errorf("storage: block %v not on disk", id)
	}
	if e.p.form != formEncoded {
		return e.p.encoded()
	}
	data, err := d.readFile(id, e, nil)
	if err != nil {
		return nil, fmt.Errorf("storage: disk block %v (%s): %w", id, d.path(id), err)
	}
	return data, nil
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
