// Package storage provides the per-executor block stores that back the
// caching mechanism: a capacity-bounded MemoryStore and a DiskStore, the
// analogues of Spark's MemoryStore and DiskStore (§6). Partition data is
// stored in units of blocks, identified by (dataset, partition).
//
// The stores are mechanism only: which blocks to admit, evict, spill or
// unpersist is decided by a cache controller in internal/engine or
// internal/core. Each store runs in one of two modes:
//
//   - Virtual (the default): a block is retained as a live batch — a
//     share of the batch the task computed (dataflow.Batch.Keep), which a
//     hit shares again rather than copies — and the cost model charges
//     modeled serialization and device time. This mode is deterministic
//     and bit-identical at any parallelism.
//   - Real bytes: the memory store holds encoded blocks (EncodeBatch,
//     decoded on every read) and the disk store writes one file per block
//     under a run-scoped directory. The stores measure the wall-clock
//     (de)serialization and file I/O they perform into a Meter, alongside
//     the virtual charges, so modeled and measured costs can be compared
//     per category.
//
// In both modes capacity accounting uses the analytic size estimates the
// engine passes in, so controller decisions (admission, eviction,
// spilling) are identical across modes; real encoded byte counts are
// tracked separately by the Meter.
//
// Which mode a store runs in is fixed by whoever constructs it (the
// engine's executor pool); how a resident block is held is known only
// here. Callers hand records or a batch in and read either form back,
// and move a block between the tiers of one executor as an opaque
// Payload.
package storage

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"blaze/internal/dataflow"
)

// BlockID identifies one cached partition.
type BlockID struct {
	Dataset   int
	Partition int
}

// String renders the block id like "rdd_12_3", following Spark's naming.
func (b BlockID) String() string { return fmt.Sprintf("rdd_%d_%d", b.Dataset, b.Partition) }

// Compare orders block ids by (dataset, partition) — the deterministic
// listing order of both stores and the final tie-break of every eviction
// policy.
func (b BlockID) Compare(o BlockID) int {
	if b.Dataset != o.Dataset {
		return cmp.Compare(b.Dataset, o.Dataset)
	}
	return cmp.Compare(b.Partition, o.Partition)
}

// columnVersions counts, per partition index, how many times a store's
// residency changed for that index (a block of any dataset inserted or
// removed). Cost estimates cached by a controller record the count they
// were computed at and are reused only while it is unchanged. A column is
// written only through its store, which only its executor's worker (or
// the driver between stages) mutates.
type columnVersions []uint64

func (v *columnVersions) bump(part int) {
	if part >= len(*v) {
		*v = append(*v, make([]uint64, part+1-len(*v))...)
	}
	(*v)[part]++
}

func (v columnVersions) at(part int) uint64 {
	if part < len(v) {
		return v[part]
	}
	return 0
}

// Sized lets workload value types report their in-memory footprint so the
// cache sees realistic, skewed partition sizes (§2.2). The sizing rules
// themselves live in dataflow so columnar batches can report exact
// per-element sizes; these wrappers keep the historical storage API.
type Sized = dataflow.Sized

// EstimateRecords estimates the footprint of a whole partition.
func EstimateRecords(recs []dataflow.Record) int64 { return dataflow.EstimateRecords(recs) }

// BlockMeta carries the per-block bookkeeping used by eviction policies
// and by Blaze's cost estimator.
type BlockMeta struct {
	ID   BlockID
	Size int64
	// Executor is the executor the block lives on (blocks are cached
	// where their task ran, §6).
	Executor int

	// LastAccess and AccessCount feed LRU/LFU.
	LastAccess  time.Duration
	AccessCount int
	// InsertSeq feeds FIFO.
	InsertSeq int64
	// RefCount is the number of remaining references in the current job
	// (LRC, Yu et al.).
	RefCount int
	// RefDistance is the number of stages until the next reference
	// (MRD, Perez et al.); large means far in the future.
	RefDistance int
	// Cost is the potential recovery cost in seconds attached by
	// cost-aware controllers.
	Cost float64
}

// Payload is a block's contents in the representation of the store that
// packed it: a batch from a virtual store, an encoded block from a
// real-bytes one. It is opaque outside this package, so a tier move hands
// what one store released to the other store of the same executor
// without the caller knowing, or converting, the representation. Fresh
// and FreshBatch wrap a partition no store has packed — what a task
// computed or a read returned — and a packed payload is only accepted by
// a store of the mode that packed it.
type Payload struct {
	batch *dataflow.Batch
	data  []byte
	form  payloadForm
	// owned marks a read's fresh decode, which no store keeps: Batch
	// hands it over instead of copying it.
	owned bool
}

type payloadForm uint8

const (
	formFresh   payloadForm = iota // a batch from a task or a read, unpacked and not the store's
	formBatch                      // packed by a virtual store: a batch the store owns
	formEncoded                    // packed by a real-bytes store: data, or the block's file
)

// Fresh wraps records for admission: FreshBatch of their row form.
func Fresh(recs []dataflow.Record) Payload { return FreshBatch(dataflow.Rows(recs)) }

// FreshBatch wraps a batch for admission. The caller keeps its own share:
// a virtual store adopts the batch with a share of its own
// (dataflow.Batch.Keep, which copies only a batch on loose arrays), a
// real-bytes store keeps its encoding.
func FreshBatch(b *dataflow.Batch) Payload { return Payload{batch: b} }

// pack brings a payload into the representation of a store in the given
// mode: a fresh batch is adopted (virtual) or serialized (real bytes); a
// packed payload passes only if a store of the same mode packed it.
func pack(real bool, id BlockID, p Payload) (Payload, error) {
	switch {
	case p.form == formFresh && !real:
		return Payload{batch: p.batch.Keep(), form: formBatch}, nil
	case p.form == formFresh:
		data, err := p.Encode()
		if err != nil {
			return Payload{}, fmt.Errorf("storage: block %v failed to encode: %w", id, err)
		}
		return Payload{data: data, form: formEncoded}, nil
	case (p.form == formEncoded) != real:
		return Payload{}, fmt.Errorf("storage: block %v was packed by a store of the other mode", id)
	}
	return p, nil
}

// Encode returns the payload's block encoding: the bytes a real-bytes
// store holds as they are, or the batch encoded (EncodeBatch: the same
// bytes as its rows would give).
func (p Payload) Encode() ([]byte, error) {
	if p.form == formEncoded {
		return p.data, nil
	}
	return EncodeBatch(p.batch)
}

// AppendEncode is Encode into buf's spare capacity: it returns the
// encoding and buf extended by it (AppendBatch), the encoding aliasing
// buf's array. A real-bytes store's bytes are returned as they are held
// and buf as it was.
func (p Payload) AppendEncode(buf []byte) (enc, grown []byte, err error) {
	if p.form == formEncoded {
		return p.data, buf, nil
	}
	start := len(buf)
	if buf, err = AppendBatch(buf, p.batch); err != nil {
		return nil, buf, err
	}
	return buf[start:len(buf):len(buf)], buf, nil
}

// EncodedSize is how many bytes AppendEncode appends to buf, where that
// is known without encoding (BatchSize); 0 for bytes held as they are.
func (p Payload) EncodedSize() int {
	if p.form == formEncoded {
		return 0
	}
	return BatchSize(p.batch)
}

// shared is a stored payload for one more holder (a promotion, a
// checkpoint's capture): the same bytes, or one more share of the batch.
func (p Payload) shared() Payload {
	if p.form == formBatch {
		return Payload{batch: p.batch.Share(), form: formBatch}
	}
	return p
}

// view is what a read of a block returns: its batch, unpacked and
// borrowed until the block leaves the store (Batch takes a share).
func (p Payload) view() Payload { return Payload{batch: p.batch} }

// Batch returns the partition of a payload a read returned as a batch the
// caller holds and releases, once per read: a fresh decode as it is,
// anything a store keeps as one more share of it (dataflow.Batch.Share),
// which stays valid after the block leaves the store and which the
// caller must not modify.
func (p Payload) Batch() *dataflow.Batch {
	if p.owned {
		return p.batch
	}
	return p.batch.Share()
}

// Release discards a payload a store handed over (MemoryStore.Remove,
// DiskStore.Load, Capture) that no store will take: the share of its
// batch it carries is released.
func (p Payload) Release() {
	if p.form == formBatch {
		p.batch.Release()
	}
}

type memEntry struct {
	p    Payload
	meta *BlockMeta
}

// MemoryStore is a capacity-bounded in-memory block store. In real-bytes
// mode it holds serialized buffers and decodes on every read.
type MemoryStore struct {
	capacity int64
	used     int64
	peak     int64
	blocks   map[BlockID]*memEntry
	// sorted lists the resident metadata in BlockID order, maintained on
	// every insert and removal so listing never sorts.
	sorted []*BlockMeta
	colVer columnVersions
	seq    int64

	real  bool
	meter *Meter

	// quota, when set, charges every admission to the owning tenant's
	// account and refuses admissions past the tenant's limit (shared-pool
	// multi-tenancy). Nil leaves admission behavior exactly as before.
	quota QuotaController
}

// NewMemoryStore creates a virtual-mode store with the given capacity in
// bytes.
func NewMemoryStore(capacity int64) *MemoryStore {
	return &MemoryStore{capacity: capacity, blocks: make(map[BlockID]*memEntry)}
}

// NewMemoryStoreReal creates a real-bytes store: admission encodes a
// block into a byte buffer, every read decodes it. Measured work is
// recorded into the meter (which may be nil).
//
// Deprecated: the third parameter sized a decode cache that no longer
// exists; it is ignored.
func NewMemoryStoreReal(capacity int64, meter *Meter, _ int) *MemoryStore {
	m := NewMemoryStore(capacity)
	m.real = true
	m.meter = meter
	return m
}

// SetQuota attaches a per-tenant quota controller; admissions charge the
// owning tenant and fail past its limit. Call before any block is stored.
func (m *MemoryStore) SetQuota(q QuotaController) { m.quota = q }

// Capacity returns the configured capacity.
func (m *MemoryStore) Capacity() int64 { return m.capacity }

// Free returns the bytes available.
func (m *MemoryStore) Free() int64 { return m.capacity - m.used }

// Contains reports whether a block is resident.
func (m *MemoryStore) Contains(id BlockID) bool {
	_, ok := m.blocks[id]
	return ok
}

// Get is Read as rows.
func (m *MemoryStore) Get(id BlockID, now time.Duration) ([]dataflow.Record, *BlockMeta, bool) {
	p, meta, ok := m.Read(id, now)
	return p.batch.Records(), meta, ok
}

// Read returns the block's contents and metadata, updating access stats.
// A virtual block is returned as it is held, borrowed: the caller takes a
// share of what it keeps (Payload.Batch) before the block can leave the
// store. A
// real-bytes block is decoded on every read (DecodeBatch), onto pooled
// arrays, to a batch the caller owns — one read path for every memory
// hit, as for every disk hit.
func (m *MemoryStore) Read(id BlockID, now time.Duration) (Payload, *BlockMeta, bool) {
	e, ok := m.blocks[id]
	if !ok {
		return Payload{}, nil, false
	}
	e.meta.LastAccess = now
	e.meta.AccessCount++
	if e.p.form != formEncoded {
		return e.p.view(), e.meta, true
	}
	start := time.Now()
	b, err := decodeBatch(e.p.data, true)
	if err != nil {
		panic(fmt.Errorf("storage: memory block %v failed to decode: %w", id, err))
	}
	m.meter.addMeasured(MemDecode, int64(len(e.p.data)), time.Since(start))
	return Payload{batch: b, owned: true}, e.meta, true
}

// Peek returns metadata without touching access stats.
func (m *MemoryStore) Peek(id BlockID) (*BlockMeta, bool) {
	e, ok := m.blocks[id]
	if !ok {
		return nil, false
	}
	return e.meta, true
}

// Put admits freshly computed records: Admit of Fresh(recs).
func (m *MemoryStore) Put(id BlockID, recs []dataflow.Record, size int64, executor int, now time.Duration) (*BlockMeta, error) {
	return m.Admit(id, Fresh(recs), size, executor, now)
}

// Admit inserts a block. It returns an error if the block would exceed
// the remaining capacity — the caller must evict first, which keeps
// eviction decisions in the controller where they belong. A fresh payload
// is packed here (a real-bytes store serializes it, measured as
// MemEncode); one a disk store of the same mode loaded is admitted as it
// is, so a promotion pays no decode/encode round trip. size is the
// caller's analytic estimate, so capacity accounting is identical across
// modes.
func (m *MemoryStore) Admit(id BlockID, p Payload, size int64, executor int, now time.Duration) (*BlockMeta, error) {
	meta := &BlockMeta{ID: id, Size: size, Executor: executor, LastAccess: now, InsertSeq: m.seq + 1}
	if err := m.admit(meta, p); err != nil {
		return nil, err
	}
	m.seq++
	return meta, nil
}

// admit is the one admission path, shared with Restore: capacity, pack
// (the one encode-and-meter site), tenant quota, insert.
func (m *MemoryStore) admit(meta *BlockMeta, p Payload) error {
	id := meta.ID
	if _, exists := m.blocks[id]; exists {
		return fmt.Errorf("storage: block %v already in memory", id)
	}
	if meta.Size > m.Free() {
		return fmt.Errorf("storage: block %v (%d bytes) exceeds free memory (%d bytes)", id, meta.Size, m.Free())
	}
	start := time.Now()
	packed, err := pack(m.real, id, p)
	if err != nil {
		return err
	}
	if p.form == formFresh && packed.form == formEncoded {
		m.meter.addMeasured(MemEncode, int64(len(packed.data)), time.Since(start))
	}
	if m.quota != nil && !m.quota.Admit(id, meta.Size) {
		// Backstop: the engine prechecks quotas before charging I/O, so a
		// refusal here means a caller bypassed the precheck.
		if p.form == formFresh {
			packed.Release() // the share pack took; a packed payload stays the caller's
		}
		return fmt.Errorf("storage: block %v (%d bytes) exceeds tenant %q memory quota", id, meta.Size, m.quota.Owner(id))
	}
	m.insert(&memEntry{p: packed, meta: meta})
	return nil
}

// insert makes an entry resident: the one place (with Remove) the
// block map, the sorted listing and the column version are written.
func (m *MemoryStore) insert(e *memEntry) {
	id := e.meta.ID
	m.blocks[id] = e
	m.sorted = slices.Insert(m.sorted, m.sortedIndex(id), e.meta)
	m.colVer.bump(id.Partition)
	m.used += e.meta.Size
	if m.used > m.peak {
		m.peak = m.used
	}
}

// sortedIndex is the position of id in the sorted listing, or where it
// would be inserted.
func (m *MemoryStore) sortedIndex(id BlockID) int {
	at, _ := slices.BinarySearchFunc(m.sorted, id, func(b *BlockMeta, id BlockID) int { return b.ID.Compare(id) })
	return at
}

// PeakUsed returns the maximum bytes ever resident, used to calibrate
// memory-store capacities the way the paper does empirically (§7.1).
func (m *MemoryStore) PeakUsed() int64 { return m.peak }

// Drop removes a block and discards its payload: the store's share of a
// batch is released, so a reader holding another share keeps it. Every
// removal except a spill is a Drop.
func (m *MemoryStore) Drop(id BlockID) (int64, bool) {
	p, size, ok := m.Remove(id)
	p.Release()
	return size, ok
}

// Remove takes a block out of the store and hands its payload as stored
// to the caller (for spilling: a real-bytes block moves to disk without a
// decode, the store's share of a batch without a copy) with its size.
func (m *MemoryStore) Remove(id BlockID) (Payload, int64, bool) {
	e, ok := m.blocks[id]
	if !ok {
		return Payload{}, 0, false
	}
	delete(m.blocks, id)
	at := m.sortedIndex(id)
	m.sorted = slices.Delete(m.sorted, at, at+1)
	m.colVer.bump(id.Partition)
	m.used -= e.meta.Size
	if m.quota != nil {
		m.quota.Release(id, e.meta.Size)
	}
	return e.p, e.meta.Size, true
}

// Blocks returns the metadata of all resident blocks in deterministic
// (dataset, partition) order. The slice is the caller's: it stays valid
// while the caller removes or admits blocks.
func (m *MemoryStore) Blocks() []*BlockMeta { return slices.Clone(m.sorted) }

// BlocksView is Blocks without the copy: the store's own listing, to be
// read only, and only until the next admission or removal.
func (m *MemoryStore) BlocksView() []*BlockMeta { return m.sorted }

// ColumnVersion counts the residency changes of partition index part in
// this store (see columnVersions).
func (m *MemoryStore) ColumnVersion(part int) uint64 { return m.colVer.at(part) }

type diskEntry struct {
	p         Payload // an encoded payload's bytes live in the block's file, not here
	size      int64   // accounted (estimated) size
	fileBytes int64   // real mode: encoded bytes on disk
}

// DiskStore is the secondary block store used by MEM_AND_DISK storage
// levels. It tracks cumulative written bytes and the peak footprint,
// which the evaluation reports (§7.2: "the average total size of data on
// disk reaches 306 GB (peak 427 GB)"). In real-bytes mode each block is
// one file named after its BlockID under the store's directory.
type DiskStore struct {
	blocks       map[BlockID]diskEntry
	colVer       columnVersions
	current      int64
	peak         int64
	totalWritten int64

	real    bool
	dir     string
	meter   *Meter
	readBuf []byte // see Read
}

// NewDiskStore creates an empty virtual-mode disk store.
func NewDiskStore() *DiskStore {
	return &DiskStore{blocks: make(map[BlockID]diskEntry)}
}

// NewDiskStoreReal creates a file-backed disk store rooted at dir (which
// must exist). Measured write/read work is recorded into the meter
// (which may be nil).
func NewDiskStoreReal(dir string, meter *Meter) *DiskStore {
	d := NewDiskStore()
	d.real = true
	d.dir = dir
	d.meter = meter
	return d
}

// Dir returns the store's directory ("" in virtual mode).
func (d *DiskStore) Dir() string { return d.dir }

// path returns the block's file path, e.g. dir/rdd_12_3.blk.
func (d *DiskStore) path(id BlockID) string {
	return filepath.Join(d.dir, id.String()+".blk")
}

// Contains reports whether a block is on disk.
func (d *DiskStore) Contains(id BlockID) bool {
	_, ok := d.blocks[id]
	return ok
}

// Put writes a block to disk: a payload a memory store of the same mode
// released (a spill: real bytes go to the block's file as they are, a
// batch is taken over), or a fresh partition, which a real-bytes store
// serializes first and a virtual one adopts (Batch.Keep). The
// wall-clock time of both is measured as DiskWrite (the cost model
// likewise folds serialization into its DiskWrite charge).
func (d *DiskStore) Put(id BlockID, p Payload, size int64) error {
	if err := d.store(id, p, size); err != nil {
		return err
	}
	d.totalWritten += size
	return nil
}

// store packs a payload and makes it resident; shared with Restore. The
// one place (with Remove) the block map and the column version are
// written, and the one place a block file is.
func (d *DiskStore) store(id BlockID, p Payload, size int64) error {
	if _, exists := d.blocks[id]; exists {
		return fmt.Errorf("storage: block %v already on disk", id)
	}
	start := time.Now()
	p, err := pack(d.real, id, p)
	if err != nil {
		return err
	}
	e := diskEntry{p: p, size: size}
	if p.form == formEncoded {
		if err := os.WriteFile(d.path(id), p.data, 0o644); err != nil {
			return fmt.Errorf("storage: block %v: %w", id, err)
		}
		e.fileBytes = int64(len(p.data))
		e.p.data = nil
		d.meter.addMeasured(DiskWrite, e.fileBytes, time.Since(start))
		d.meter.addFile(e.fileBytes)
	}
	d.blocks[id] = e
	d.colVer.bump(id.Partition)
	d.current += e.size
	if d.current > d.peak {
		d.peak = d.current
	}
	return nil
}

// ColumnVersion counts the residency changes of partition index part in
// this store (see columnVersions).
func (d *DiskStore) ColumnVersion(part int) uint64 { return d.colVer.at(part) }

// readFile reads a real-bytes block's file into buf, which it grows to
// the file's size; a file shorter than the block is io.ErrUnexpectedEOF.
func (d *DiskStore) readFile(id BlockID, e diskEntry, buf []byte) ([]byte, error) {
	f, err := os.Open(d.path(id))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if int64(cap(buf)) < e.fileBytes {
		buf = make([]byte, e.fileBytes)
	}
	buf = buf[:e.fileBytes]
	_, err = io.ReadFull(f, buf)
	return buf, err
}

// readDone finishes an engine-path read of n file bytes begun at start:
// a failure is fatal, and the read is measured as DiskRead.
func (d *DiskStore) readDone(id BlockID, n int, start time.Time, err error) {
	if err != nil {
		panic(fmt.Errorf("storage: disk block %v unreadable: %w", id, err))
	}
	d.meter.addMeasured(DiskRead, int64(n), time.Since(start))
}

// Read returns a block's contents like MemoryStore.Read: a virtual block
// as it is held, borrowed until the caller takes a share; a real-bytes
// block's file read and decoded, onto pooled arrays, to a batch the
// caller owns, the combined wall-clock time measured as DiskRead. The file's
// bytes are decoded at once and none of them kept, so they pass through
// the store's own read buffer instead of costing one more block-sized
// allocation per disk hit.
func (d *DiskStore) Read(id BlockID) (Payload, int64, bool) {
	e, ok := d.blocks[id]
	if !ok {
		return Payload{}, 0, false
	}
	if e.p.form != formEncoded {
		return e.p.view(), e.size, true
	}
	start := time.Now()
	data, err := d.readFile(id, e, d.readBuf)
	d.readBuf = data
	var b *dataflow.Batch
	if err == nil {
		b, err = decodeBatch(data, true)
	}
	d.readDone(id, len(data), start, err)
	return Payload{batch: b, owned: true}, e.size, true
}

// Load reads a block's payload without unpacking it, for promotion into
// the memory store of the same executor (no decode/encode round trip in
// real-bytes mode; the read is measured as DiskRead). The disk keeps its
// share of a batch, and the payload carries another (Batch.Share).
func (d *DiskStore) Load(id BlockID) (Payload, int64, bool) {
	e, ok := d.blocks[id]
	if !ok {
		return Payload{}, 0, false
	}
	if e.p.form == formBatch {
		return e.p.shared(), e.size, true
	}
	start := time.Now()
	data, err := d.readFile(id, e, nil)
	d.readDone(id, len(data), start, err)
	return Payload{data: data, form: formEncoded}, e.size, true
}

// Size returns a block's accounted size without touching its payload
// (no file I/O in real-bytes mode).
func (d *DiskStore) Size(id BlockID) (int64, bool) {
	e, ok := d.blocks[id]
	if !ok {
		return 0, false
	}
	return e.size, true
}

// Remove deletes a block from disk (and its file, in real-bytes mode),
// releasing the store's share of a batch.
func (d *DiskStore) Remove(id BlockID) (int64, bool) {
	e, ok := d.blocks[id]
	if !ok {
		return 0, false
	}
	delete(d.blocks, id)
	d.colVer.bump(id.Partition)
	d.current -= e.size
	e.p.Release()
	if e.p.form == formEncoded {
		if err := os.Remove(d.path(id)); err != nil && !os.IsNotExist(err) {
			panic(fmt.Errorf("storage: disk block %v: %w", id, err))
		}
		d.meter.addFile(-e.fileBytes)
	}
	return e.size, true
}

// CurrentBytes returns the live disk footprint.
func (d *DiskStore) CurrentBytes() int64 { return d.current }

// PeakBytes returns the maximum footprint ever reached.
func (d *DiskStore) PeakBytes() int64 { return d.peak }

// TotalWritten returns cumulative bytes ever written.
func (d *DiskStore) TotalWritten() int64 { return d.totalWritten }

// Blocks returns the ids of all on-disk blocks in deterministic order.
func (d *DiskStore) Blocks() []BlockID {
	out := make([]BlockID, 0, len(d.blocks))
	for id := range d.blocks {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// AnyBlock reports whether pred holds for the id of some on-disk block,
// trying them in no particular order and stopping at the first that
// does: Blocks without the copy and the sort, for an unordered question.
func (d *DiskStore) AnyBlock(pred func(BlockID) bool) bool {
	for id := range d.blocks {
		if pred(id) {
			return true
		}
	}
	return false
}

// gobRecord mirrors dataflow.Record for the fallback encoding.
type gobRecord struct {
	Key   int64
	Value any
}

// gobPartition is the wire format of a fallback-encoded partition. NonNil
// distinguishes an empty partition from a nil one so the round trip is
// exact: gob itself encodes both as zero-length, which would otherwise
// turn empty slices into nil on decode.
type gobPartition struct {
	NonNil bool
	Recs   []gobRecord
}

// RegisterValueType registers a concrete value type with the fallback gob
// codec; workloads call this for payload types that have no flat column
// (dataflow.RegisterKind) before using the codec.
func RegisterValueType(v any) { gob.Register(v) }

// EncodeRecords serializes a partition into the block format of
// dataflow/blockcodec.go: the typed columnar form when every value shares
// one type that has a flat column, whole-block gob behind the BlockGob
// marker otherwise. Real-bytes stores use it for every cached block, the
// checkpoint for every carried block; virtual mode uses it to validate the
// analytic size estimator and to exercise a real serialization code path
// in tests.
func EncodeRecords(recs []dataflow.Record) ([]byte, error) {
	b := dataflow.FromRecords(recs)
	data, typed := dataflow.EncodeBlock(b)
	b.Release()
	if typed {
		return data, nil
	}
	return encodeGob(recs)
}

// EncodeBatch is EncodeRecords for a partition held as a batch (a cached
// block, a retained shuffle bucket): exactly the bytes of
// EncodeRecords(b.Records()), without boxing the rows of a flat column.
// A row-form or empty batch, or one without a flat column, goes through
// the rows, since which column it carries is not part of the canonical
// encoding.
func EncodeBatch(b *dataflow.Batch) ([]byte, error) { return AppendBatch(nil, b) }

// AppendBatch is EncodeBatch appending to dst: it returns dst extended by
// exactly the bytes EncodeBatch(b) returns. A typed block is written in
// place (dataflow.AppendBlock); the rows' encoding is appended as a copy.
func AppendBatch(dst []byte, b *dataflow.Batch) ([]byte, error) {
	if _, flat := b.Col.(dataflow.FlatColumn); flat && b.Len() > 0 {
		start := len(dst)
		dst, _ = dataflow.AppendBlock(dst, b)
		dst[start+1] = 1 // NonNil: the rows of a non-empty batch are never nil
		return dst, nil
	}
	data, err := EncodeRecords(b.Records())
	if err != nil {
		return dst, err
	}
	if dst == nil {
		return data, nil
	}
	return append(dst, data...), nil
}

// BatchSize is the length of EncodeBatch(b) where it is known without
// encoding (a typed block, dataflow.BlockSize), 0 otherwise.
func BatchSize(b *dataflow.Batch) int {
	if _, flat := b.Col.(dataflow.FlatColumn); flat && b.Len() > 0 {
		n, _ := dataflow.BlockSize(b)
		return n
	}
	return 0
}

// DecodeRecords deserializes a partition written by EncodeRecords or
// EncodeBatch. The round trip is exact for empty partitions: an empty
// (non-nil) slice decodes as empty, a nil slice as nil. The values of a
// typed block share backing arrays (dataflow.DecodeBlockRecords) and must
// not be mutated.
func DecodeRecords(data []byte) ([]dataflow.Record, error) {
	if len(data) > 0 && data[0] == dataflow.BlockGob {
		return decodeGob(data[1:])
	}
	return dataflow.DecodeBlockRecords(data)
}

// DecodeBatch is DecodeRecords into a batch: a typed block columnar, on
// fresh unpooled arrays the batch owns; a gob block in row form.
func DecodeBatch(data []byte) (*dataflow.Batch, error) { return decodeBatch(data, false) }

// decodeBatch is DecodeBatch, with a typed block's arrays drawn from the
// slice pools when pooled: for a decode handed to a task, which releases
// it, rather than kept.
func decodeBatch(data []byte, pooled bool) (*dataflow.Batch, error) {
	if len(data) > 0 && data[0] == dataflow.BlockGob {
		recs, err := decodeGob(data[1:])
		if err != nil {
			return nil, err
		}
		return dataflow.Rows(recs), nil
	}
	if pooled {
		return dataflow.DecodeBlockPooled(data)
	}
	return dataflow.DecodeBlock(data)
}

// encodeGob is the fallback block encoding: the BlockGob marker, then
// the partition as one gob value. A fresh gob.Encoder per call re-emits
// the type definitions, so equal partitions always encode to equal
// bytes.
func encodeGob(recs []dataflow.Record) ([]byte, error) {
	p := gobPartition{NonNil: recs != nil, Recs: make([]gobRecord, len(recs))}
	for i, r := range recs {
		p.Recs[i] = gobRecord{Key: r.Key, Value: r.Value}
	}
	var buf bytes.Buffer
	buf.WriteByte(dataflow.BlockGob)
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, fmt.Errorf("storage: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeGob reads the gob stream of a fallback block (marker stripped).
func decodeGob(data []byte) ([]dataflow.Record, error) {
	var p gobPartition
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&p); err != nil {
		return nil, fmt.Errorf("storage: decode: %w", err)
	}
	if !p.NonNil {
		return nil, nil
	}
	out := make([]dataflow.Record, len(p.Recs))
	for i, r := range p.Recs {
		out[i] = dataflow.Record{Key: r.Key, Value: r.Value}
	}
	return out, nil
}
