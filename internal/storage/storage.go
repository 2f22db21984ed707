// Package storage provides the per-executor block stores that back the
// caching mechanism: a capacity-bounded MemoryStore and a DiskStore, the
// analogues of Spark's MemoryStore and DiskStore (§6). Partition data is
// stored in units of blocks, identified by (dataset, partition).
//
// The stores are mechanism only: which blocks to admit, evict, spill or
// unpersist is decided by a cache controller in internal/engine or
// internal/core. Each store runs in one of two modes:
//
//   - Virtual (the default): records are retained as live Go objects and
//     the cost model charges modeled serialization and device time. This
//     mode is deterministic and bit-identical at any parallelism.
//   - Real bytes: the memory store holds encoded blocks (EncodeRecords)
//     (with a bounded decode cache for hot reads) and the disk store
//     writes one file per block under a run-scoped directory. The stores
//     measure the wall-clock (de)serialization and file I/O they perform
//     into a Meter, alongside the virtual charges, so modeled and
//     measured costs can be compared per category.
//
// In both modes capacity accounting uses the analytic size estimates the
// engine passes in, so controller decisions (admission, eviction,
// spilling) are identical across modes; real encoded byte counts are
// tracked separately by the Meter.
//
// Which mode a store runs in is fixed by whoever constructs it (the
// engine's executor pool); how a resident block is held is known only
// here. Callers hand records in and get records out, and move a block
// between the tiers of one executor as an opaque Payload.
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
	"sync"
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

// ValueSize estimates the in-memory footprint of a record value.
func ValueSize(v any) int64 { return dataflow.ValueSize(v) }

// RecordSize estimates the footprint of one record (16 bytes of header
// plus the value).
func RecordSize(r dataflow.Record) int64 { return dataflow.RecordSize(r) }

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
// packed it: live records from a virtual store, an encoded block from a
// real-bytes one. It is opaque outside this package, so a tier move hands
// what one store released to the other store of the same executor without
// the caller knowing, or converting, the representation. Fresh wraps
// records no store has packed yet; a packed payload is only accepted by a
// store of the mode that packed it.
type Payload struct {
	recs []dataflow.Record
	data []byte
	form payloadForm
}

type payloadForm uint8

const (
	formFresh   payloadForm = iota // records straight from a task, unpacked
	formLive                       // packed by a virtual store: the records themselves
	formEncoded                    // packed by a real-bytes store: data, or the block's file
)

// Fresh wraps freshly computed records for admission; the admitting store
// packs them into its own representation.
func Fresh(recs []dataflow.Record) Payload { return Payload{recs: recs} }

// pack brings a payload into the representation of a store in the given
// mode: fresh records are kept (virtual) or serialized (real bytes), a
// packed payload passes only if a store of the same mode packed it.
func pack(real bool, id BlockID, p Payload) (Payload, error) {
	switch {
	case p.form == formFresh && !real:
		return Payload{recs: p.recs, form: formLive}, nil
	case p.form == formFresh:
		data, err := EncodeRecords(p.recs)
		if err != nil {
			return Payload{}, fmt.Errorf("storage: block %v failed to encode: %w", id, err)
		}
		return Payload{data: data, form: formEncoded}, nil
	case (p.form == formEncoded) != real:
		return Payload{}, fmt.Errorf("storage: block %v was packed by a store of the other mode", id)
	}
	return p, nil
}

// records unpacks the payload, deserializing encoded bytes.
func (p Payload) records() ([]dataflow.Record, error) {
	if p.form != formEncoded {
		return p.recs, nil
	}
	return DecodeRecords(p.data)
}

type memEntry struct {
	p    Payload
	meta *BlockMeta
}

// MemoryStore is a capacity-bounded in-memory block store. In real-bytes
// mode it holds serialized buffers and decodes on read through a bounded
// decode cache.
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
	// decode cache: most-recently-read decoded partitions, bounded by
	// cacheCap blocks (0 disables caching, so every read deserializes).
	cacheCap int
	cache    map[BlockID][]dataflow.Record
	cacheLRU []BlockID // oldest first

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

// NewMemoryStoreReal creates a real-bytes store: Put serializes records
// into a byte buffer, Get deserializes through a decode cache holding at
// most decodeCacheBlocks partitions. Measured work is recorded into the
// meter (which may be nil).
func NewMemoryStoreReal(capacity int64, meter *Meter, decodeCacheBlocks int) *MemoryStore {
	m := NewMemoryStore(capacity)
	m.real = true
	m.meter = meter
	m.cacheCap = decodeCacheBlocks
	if m.cacheCap > 0 {
		m.cache = make(map[BlockID][]dataflow.Record, m.cacheCap)
	}
	return m
}

// SetQuota attaches a per-tenant quota controller; admissions charge the
// owning tenant and fail past its limit. Call before any block is stored.
func (m *MemoryStore) SetQuota(q QuotaController) { m.quota = q }

// Quota returns the attached quota controller (nil when none).
func (m *MemoryStore) Quota() QuotaController { return m.quota }

// Capacity returns the configured capacity.
func (m *MemoryStore) Capacity() int64 { return m.capacity }

// Used returns the bytes currently occupied.
func (m *MemoryStore) Used() int64 { return m.used }

// Free returns the bytes available.
func (m *MemoryStore) Free() int64 { return m.capacity - m.used }

// Contains reports whether a block is resident.
func (m *MemoryStore) Contains(id BlockID) bool {
	_, ok := m.blocks[id]
	return ok
}

// Get is Read through the decode cache.
func (m *MemoryStore) Get(id BlockID, now time.Duration) ([]dataflow.Record, *BlockMeta, bool) {
	return m.Read(id, now, false)
}

// Read returns the block's records and metadata, updating access stats.
// A real-bytes block is deserialized from its buffer unless the decode
// cache holds it; uncached makes this read deserialize regardless and
// leave the cache alone — how a reader whose store serves serialized
// bytes even from memory (Spark+Alluxio) pays for every read.
func (m *MemoryStore) Read(id BlockID, now time.Duration, uncached bool) ([]dataflow.Record, *BlockMeta, bool) {
	e, ok := m.blocks[id]
	if !ok {
		return nil, nil, false
	}
	e.meta.LastAccess = now
	e.meta.AccessCount++
	if e.p.form != formEncoded {
		return e.p.recs, e.meta, true
	}
	if recs, hit := m.cache[id]; hit && !uncached {
		m.meter.addDecodeCacheHit()
		m.cacheTouch(id)
		return recs, e.meta, true
	}
	start := time.Now()
	recs, err := e.p.records()
	if err != nil {
		panic(fmt.Sprintf("storage: memory block %v failed to decode: %v", id, err))
	}
	m.meter.addMeasured(MemDecode, int64(len(e.p.data)), time.Since(start))
	if !uncached {
		m.cacheInsert(id, recs)
	}
	return recs, e.meta, true
}

func (m *MemoryStore) cacheTouch(id BlockID) {
	for i, c := range m.cacheLRU {
		if c == id {
			m.cacheLRU = append(append(m.cacheLRU[:i:i], m.cacheLRU[i+1:]...), id)
			return
		}
	}
}

func (m *MemoryStore) cacheInsert(id BlockID, recs []dataflow.Record) {
	if m.cacheCap <= 0 {
		return
	}
	if len(m.cacheLRU) >= m.cacheCap {
		oldest := m.cacheLRU[0]
		m.cacheLRU = m.cacheLRU[1:]
		delete(m.cache, oldest)
	}
	m.cache[id] = recs
	m.cacheLRU = append(m.cacheLRU, id)
}

func (m *MemoryStore) cacheDrop(id BlockID) {
	if _, ok := m.cache[id]; !ok {
		return
	}
	delete(m.cache, id)
	for i, c := range m.cacheLRU {
		if c == id {
			m.cacheLRU = append(m.cacheLRU[:i:i], m.cacheLRU[i+1:]...)
			break
		}
	}
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

// Remove drops a block and returns its payload as stored (for spilling:
// a real-bytes block moves to disk without a decode) and its size.
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
	m.cacheDrop(id)
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
	readBuf []byte // see readRecords
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
// released (a spill: real bytes go to the block's file as they are), or
// Fresh records, which a real-bytes store serializes first. The
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

// read returns a resident block's payload as stored — for a real-bytes
// block, the contents of its file, in a buffer the caller may keep.
func (d *DiskStore) read(id BlockID, e diskEntry) (Payload, error) {
	p := e.p
	if p.form == formEncoded {
		data, err := os.ReadFile(d.path(id))
		if err != nil {
			return p, err
		}
		p.data = data
	}
	return p, nil
}

// readRecords reads and unpacks a resident block. A block file's bytes
// are decoded at once and none of them kept, so they pass through the
// store's own read buffer instead of costing one more block-sized
// allocation per disk hit; the returned payload's data is valid only
// until the next call.
func (d *DiskStore) readRecords(id BlockID, e diskEntry) (Payload, []dataflow.Record, error) {
	p := e.p
	if p.form == formEncoded {
		f, err := os.Open(d.path(id))
		if err != nil {
			return p, nil, err
		}
		defer f.Close()
		if int64(cap(d.readBuf)) < e.fileBytes {
			d.readBuf = make([]byte, e.fileBytes)
		}
		p.data = d.readBuf[:e.fileBytes]
		if _, err := io.ReadFull(f, p.data); err != nil {
			return p, nil, err
		}
	}
	recs, err := p.records()
	return p, recs, err
}

// readDone finishes an engine-path read begun at start: a failure is
// fatal, and a real-bytes read is measured as DiskRead.
func (d *DiskStore) readDone(id BlockID, p Payload, start time.Time, err error) {
	if err != nil {
		panic(fmt.Sprintf("storage: disk block %v unreadable: %v", id, err))
	}
	if p.form == formEncoded {
		d.meter.addMeasured(DiskRead, int64(len(p.data)), time.Since(start))
	}
}

// Get reads a block's records from disk. In real-bytes mode the block's
// file is read and deserialized, with the combined wall-clock time
// measured as DiskRead.
func (d *DiskStore) Get(id BlockID) ([]dataflow.Record, int64, bool) {
	e, ok := d.blocks[id]
	if !ok {
		return nil, 0, false
	}
	start := time.Now()
	p, recs, err := d.readRecords(id, e)
	d.readDone(id, p, start, err)
	return recs, e.size, true
}

// Load reads a block's payload without unpacking it, for promotion into
// the memory store of the same executor (no decode/encode round trip in
// real-bytes mode). The read is measured as DiskRead.
func (d *DiskStore) Load(id BlockID) (Payload, int64, bool) {
	e, ok := d.blocks[id]
	if !ok {
		return Payload{}, 0, false
	}
	start := time.Now()
	p, err := d.read(id, e)
	d.readDone(id, p, start, err)
	return p, e.size, true
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

// Remove deletes a block from disk (and its file, in real-bytes mode).
func (d *DiskStore) Remove(id BlockID) (int64, bool) {
	e, ok := d.blocks[id]
	if !ok {
		return 0, false
	}
	delete(d.blocks, id)
	d.colVer.bump(id.Partition)
	d.current -= e.size
	if e.p.form == formEncoded {
		if err := os.Remove(d.path(id)); err != nil && !os.IsNotExist(err) {
			panic(fmt.Sprintf("storage: disk block %v: %v", id, err))
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
// (dataflow.RegisterColumnType) before using the codec.
func RegisterValueType(v any) { gob.Register(v) }

// Fallback codec scratch pools. Every gob encode used to allocate a fresh
// bytes.Buffer and []gobRecord staging slice, and every gob decode a
// fresh staging slice; on the real-bytes hot path that churn dominated
// allocation profiles. The pools recycle only intermediate scratch: the
// returned []byte and []dataflow.Record are always freshly allocated,
// because callers (the decode cache in particular) retain them. A fresh
// gob.Encoder is created per call either way, so type definitions are
// re-emitted identically and pooling cannot change the encoded bytes
// (TestEncodeRecordsPoolingByteIdentical pins that).
var (
	encBufPool sync.Pool // *bytes.Buffer
	gobRecPool sync.Pool // *[]gobRecord
)

func getGobRecs(n int) []gobRecord {
	if v := gobRecPool.Get(); v != nil {
		s := *(v.(*[]gobRecord))
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]gobRecord, n)
}

func putGobRecs(s []gobRecord) {
	const maxPooled = 1 << 18 // don't pin giant staging arrays
	if cap(s) == 0 || cap(s) > maxPooled {
		return
	}
	// Zero the full capacity, not just the payload references: gob omits
	// zero-valued fields on the wire and does not clear the destination
	// on decode, so a stale Key surviving in reused staging storage would
	// silently corrupt any decoded record whose true Key is 0
	// (TestDecodeRecordsZeroFieldsAfterPollution pins this).
	s = s[:cap(s)]
	clear(s)
	p := new([]gobRecord)
	*p = s[:0]
	gobRecPool.Put(p)
}

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

// EncodeBatch is EncodeRecords for a partition already in columnar form
// (a retained shuffle bucket): the same bytes, without boxing the rows.
func EncodeBatch(b *dataflow.Batch) ([]byte, error) {
	if data, typed := dataflow.EncodeBlock(b); typed {
		return data, nil
	}
	return encodeGob(b.Records())
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

// DecodeBatch is DecodeRecords into columnar form; the batch owns fresh,
// unpooled arrays.
func DecodeBatch(data []byte) (*dataflow.Batch, error) {
	if len(data) > 0 && data[0] == dataflow.BlockGob {
		recs, err := decodeGob(data[1:])
		if err != nil {
			return nil, err
		}
		return dataflow.FromRecords(recs), nil
	}
	return dataflow.DecodeBlock(data)
}

// encodeGob is the fallback block encoding: the BlockGob marker, then
// the partition as one gob value.
func encodeGob(recs []dataflow.Record) ([]byte, error) {
	staged := getGobRecs(len(recs))
	p := gobPartition{NonNil: recs != nil, Recs: staged}
	for i, r := range recs {
		p.Recs[i] = gobRecord{Key: r.Key, Value: r.Value}
	}
	var buf *bytes.Buffer
	if v := encBufPool.Get(); v != nil {
		buf = v.(*bytes.Buffer)
		buf.Reset()
	} else {
		buf = new(bytes.Buffer)
	}
	buf.WriteByte(dataflow.BlockGob)
	err := gob.NewEncoder(buf).Encode(p)
	putGobRecs(staged)
	if err != nil {
		encBufPool.Put(buf)
		return nil, fmt.Errorf("storage: encode: %w", err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	encBufPool.Put(buf)
	return out, nil
}

// decodeGob reads the gob stream of a fallback block (marker stripped).
func decodeGob(data []byte) ([]dataflow.Record, error) {
	p := gobPartition{Recs: getGobRecs(0)}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&p); err != nil {
		putGobRecs(p.Recs)
		return nil, fmt.Errorf("storage: decode: %w", err)
	}
	if !p.NonNil {
		putGobRecs(p.Recs)
		return nil, nil
	}
	out := make([]dataflow.Record, len(p.Recs))
	for i, r := range p.Recs {
		out[i] = dataflow.Record{Key: r.Key, Value: r.Value}
	}
	putGobRecs(p.Recs)
	return out, nil
}
