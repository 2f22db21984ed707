package storage

import (
	"sync"
	"time"
)

// OpCategory names one class of real storage work the meter aggregates.
// The categories are aligned with the virtual cost model's charges so a
// measured-vs-modeled ratio is meaningful per category:
//
//	MemEncode — serializing a partition into the byte-backed memory
//	            store (modeled counterpart: the AlluxioMode admission
//	            serialization charge; zero outside AlluxioMode, where
//	            the model treats memory caching as free).
//	MemDecode — deserializing a partition on a memory-store read
//	            (modeled counterpart: the AlluxioMode per-read charge).
//	DiskWrite — serializing and writing a block file (modeled
//	            counterpart: Params.DiskWrite, which includes the
//	            serialization the paper folds into disk I/O time).
//	DiskRead  — reading and deserializing a block file (modeled
//	            counterpart: Params.DiskRead).
type OpCategory int

// The meter categories.
const (
	MemEncode OpCategory = iota
	MemDecode
	DiskWrite
	DiskRead
	numOpCategories
)

// OpStats aggregates one category: how many operations ran, how many
// real serialized bytes they moved, the wall-clock time they took, and
// the virtual time the cost model charged for the same operations.
type OpStats struct {
	Ops     int
	Bytes   int64
	Wall    time.Duration
	Modeled time.Duration
}

// Meter accumulates the measured storage work of one real-bytes run:
// the stores record wall-clock (de)serialization and file I/O as they
// perform it, and the engine records the virtual time it charged for
// the same operations. Virtual-mode stores carry a nil meter and record
// nothing. All methods are safe for concurrent use (real-bytes stages
// run sequentially, but driver-context promotions and task-context
// reads may interleave with future callers).
type Meter struct {
	mu  sync.Mutex
	ops [numOpCategories]OpStats

	filesWritten  int
	fileBytes     int64 // real bytes currently in block files
	fileBytesPeak int64
}

// NewMeter creates an empty meter.
func NewMeter() *Meter { return &Meter{} }

// addMeasured records one real operation's bytes and wall time.
func (m *Meter) addMeasured(cat OpCategory, bytes int64, wall time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.ops[cat].Ops++
	m.ops[cat].Bytes += bytes
	m.ops[cat].Wall += wall
	m.mu.Unlock()
}

// AddModeled records the virtual time the cost model charged for
// operations in the category. The engine calls it next to each clock
// advance so measured and modeled stay aligned per category.
func (m *Meter) AddModeled(cat OpCategory, virtual time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.ops[cat].Modeled += virtual
	m.mu.Unlock()
}

// addFile tracks the real on-disk footprint as block files are written
// (delta > 0) and removed (delta < 0).
func (m *Meter) addFile(delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if delta > 0 {
		m.filesWritten++
	}
	m.fileBytes += delta
	if m.fileBytes > m.fileBytesPeak {
		m.fileBytesPeak = m.fileBytes
	}
	m.mu.Unlock()
}

// MeterSnapshot is a plain copy of a meter's counters, safe to embed in
// reports after a run finishes.
type MeterSnapshot struct {
	MemEncode OpStats
	MemDecode OpStats
	DiskWrite OpStats
	DiskRead  OpStats

	// DecodeCacheHits is always 0: every real-bytes memory read decodes
	// (one MemDecode each).
	//
	// Deprecated: the decode cache it counted no longer exists.
	DecodeCacheHits int
	// FilesWritten counts block files written; FileBytesPeak is the peak
	// real (serialized) on-disk footprint across all stores sharing the
	// meter. Both refer to real encoded bytes, unlike the estimated
	// sizes the virtual accounting reports.
	FilesWritten  int
	FileBytesPeak int64
}

// Snapshot copies the current counters.
func (m *Meter) Snapshot() MeterSnapshot {
	if m == nil {
		return MeterSnapshot{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return MeterSnapshot{
		MemEncode:     m.ops[MemEncode],
		MemDecode:     m.ops[MemDecode],
		DiskWrite:     m.ops[DiskWrite],
		DiskRead:      m.ops[DiskRead],
		FilesWritten:  m.filesWritten,
		FileBytesPeak: m.fileBytesPeak,
	}
}

// Categories lists the snapshot's per-category stats in declaration
// order, for report tables.
func (s MeterSnapshot) Categories() []struct {
	Category OpCategory
	Stats    OpStats
} {
	return []struct {
		Category OpCategory
		Stats    OpStats
	}{
		{MemEncode, s.MemEncode},
		{MemDecode, s.MemDecode},
		{DiskWrite, s.DiskWrite},
		{DiskRead, s.DiskRead},
	}
}
