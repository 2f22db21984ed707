package storage

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
	_ "unsafe" // go:linkname

	"blaze/internal/dataflow"
)

// poisonReleased is internal/dataflow's test-only switch: released pool
// arrays are overwritten with a sentinel, and shared batches are guarded.
//
//go:linkname poisonReleased blaze/internal/dataflow.poisonReleased
var poisonReleased bool

type sizedVal struct{ n int64 }

func (s sizedVal) SizeBytes() int64 { return s.n }

func TestValueSizeKinds(t *testing.T) {
	cases := []struct {
		v    any
		want int64
	}{
		{nil, 0},
		{int64(3), 8},
		{3.14, 8},
		{int32(1), 4},
		{true, 1},
		{"hello", 21},
		{[]float64{1, 2, 3}, 24 + 24},
		{[]int64{1, 2}, 24 + 16},
		{sizedVal{n: 1000}, 1000},
		{struct{ a, b int }{}, 48}, // fallback
	}
	for _, c := range cases {
		if got := dataflow.ValueSize(c.v); got != c.want {
			t.Errorf("dataflow.ValueSize(%#v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestEstimateRecordsAdditive(t *testing.T) {
	recs := []dataflow.Record{
		{Key: 1, Value: int64(1)},
		{Key: 2, Value: []float64{1, 2}},
	}
	want := int64(24) + (16 + 8) + (16 + 24 + 16)
	if got := EstimateRecords(recs); got != want {
		t.Fatalf("EstimateRecords = %d, want %d", got, want)
	}
}

func TestMemoryStorePutGetRemove(t *testing.T) {
	m := NewMemoryStore(1000)
	id := BlockID{Dataset: 1, Partition: 2}
	recs := []dataflow.Record{{Key: 1, Value: int64(5)}}
	meta, err := m.Put(id, recs, 400, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Executor != 3 || meta.Size != 400 {
		t.Fatalf("meta = %+v", meta)
	}
	if m.Used() != 400 || m.Free() != 600 {
		t.Fatalf("used=%d free=%d", m.Used(), m.Free())
	}
	got, gm, ok := m.Get(id, 2*time.Second)
	if !ok || len(got) != 1 || gm.AccessCount != 1 || gm.LastAccess != 2*time.Second {
		t.Fatalf("get: ok=%v meta=%+v", ok, gm)
	}
	if _, _, ok := m.Remove(id); !ok {
		t.Fatal("remove failed")
	}
	if m.Used() != 0 {
		t.Fatalf("used after remove = %d", m.Used())
	}
	if m.Contains(id) {
		t.Fatal("block still present after remove")
	}
}

func TestMemoryStoreRejectsOverflow(t *testing.T) {
	m := NewMemoryStore(100)
	if _, err := m.Put(BlockID{1, 0}, nil, 150, 0, 0); err == nil {
		t.Fatal("expected overflow error")
	}
	if _, err := m.Put(BlockID{1, 0}, nil, 60, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Put(BlockID{1, 1}, nil, 60, 0, 0); err == nil {
		t.Fatal("second put should overflow")
	}
}

func TestMemoryStoreRejectsDuplicate(t *testing.T) {
	m := NewMemoryStore(100)
	id := BlockID{1, 0}
	if _, err := m.Put(id, nil, 10, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Put(id, nil, 10, 0, 0); err == nil {
		t.Fatal("duplicate put should fail")
	}
}

func TestMemoryStoreBlocksDeterministicOrder(t *testing.T) {
	m := NewMemoryStore(1000)
	ids := []BlockID{{3, 1}, {1, 2}, {1, 0}, {2, 5}}
	for _, id := range ids {
		if _, err := m.Put(id, nil, 10, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	got := m.Blocks()
	want := []BlockID{{1, 0}, {1, 2}, {2, 5}, {3, 1}}
	for i, w := range want {
		if got[i].ID != w {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestDiskStoreAccounting(t *testing.T) {
	d := NewDiskStore()
	if err := d.Put(BlockID{1, 0}, Fresh(nil), 100); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(BlockID{1, 1}, Fresh(nil), 200); err != nil {
		t.Fatal(err)
	}
	if d.CurrentBytes() != 300 || d.PeakBytes() != 300 || d.TotalWritten() != 300 {
		t.Fatalf("cur=%d peak=%d total=%d", d.CurrentBytes(), d.PeakBytes(), d.TotalWritten())
	}
	if _, ok := d.Remove(BlockID{1, 0}); !ok {
		t.Fatal("remove failed")
	}
	if d.CurrentBytes() != 200 || d.PeakBytes() != 300 {
		t.Fatalf("cur=%d peak=%d after remove", d.CurrentBytes(), d.PeakBytes())
	}
	if err := d.Put(BlockID{1, 2}, Fresh(nil), 50); err != nil {
		t.Fatal(err)
	}
	if d.TotalWritten() != 350 {
		t.Fatalf("totalWritten = %d, want 350", d.TotalWritten())
	}
	if err := d.Put(BlockID{1, 2}, Fresh(nil), 50); err == nil {
		t.Fatal("duplicate disk put should fail")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	RegisterValueType([]float64{})
	recs := []dataflow.Record{
		{Key: 1, Value: int64(42)},
		{Key: -7, Value: []float64{1.5, 2.5}},
		{Key: 0, Value: "hello"},
	}
	data, err := EncodeRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip length %d != %d", len(back), len(recs))
	}
	if back[0].Value.(int64) != 42 || back[2].Value.(string) != "hello" {
		t.Fatalf("values corrupted: %+v", back)
	}
	fs := back[1].Value.([]float64)
	if fs[0] != 1.5 || fs[1] != 2.5 {
		t.Fatalf("slice corrupted: %v", fs)
	}
}

// Property: the memory store's used counter always equals the sum of its
// block sizes under arbitrary put/remove sequences.
func TestMemoryStoreAccountingInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewMemoryStore(1 << 20)
		live := map[BlockID]int64{}
		for _, op := range ops {
			id := BlockID{Dataset: int(op % 7), Partition: int(op/7) % 5}
			size := int64(op%100) + 1
			if _, ok := live[id]; ok {
				m.Remove(id)
				delete(live, id)
			} else {
				if _, err := m.Put(id, nil, size, 0, 0); err == nil {
					live[id] = size
				}
			}
			var want int64
			for _, s := range live {
				want += s
			}
			if m.Used() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the size estimator is within 4x of the real gob encoding for
// simple payloads — close enough that disk cost ordering is preserved.
func TestEstimateTracksRealEncoding(t *testing.T) {
	f := func(n uint8) bool {
		recs := make([]dataflow.Record, int(n)+1)
		for i := range recs {
			recs[i] = dataflow.Record{Key: int64(i), Value: float64(i) * 1.5}
		}
		est := EstimateRecords(recs)
		data, err := EncodeRecords(recs)
		if err != nil {
			return false
		}
		real := int64(len(data))
		return est >= real/4 && est <= real*4+512
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryStoreAccessors(t *testing.T) {
	m := NewMemoryStore(500)
	if m.Capacity() != 500 {
		t.Fatalf("capacity = %d", m.Capacity())
	}
	if _, ok := m.Peek(BlockID{9, 9}); ok {
		t.Fatal("peek of absent block should fail")
	}
	if _, err := m.Put(BlockID{1, 0}, nil, 100, 2, time.Second); err != nil {
		t.Fatal(err)
	}
	meta, ok := m.Peek(BlockID{1, 0})
	if !ok || meta.Size != 100 || meta.Executor != 2 {
		t.Fatalf("peek = %+v, %v", meta, ok)
	}
	if meta.AccessCount != 0 {
		t.Fatal("peek must not bump access stats")
	}
	if m.PeakUsed() != 100 {
		t.Fatalf("peak = %d", m.PeakUsed())
	}
	m.Remove(BlockID{1, 0})
	if m.PeakUsed() != 100 {
		t.Fatal("peak must persist after removal")
	}
	if _, _, ok := m.Get(BlockID{1, 0}, 0); ok {
		t.Fatal("get after remove should fail")
	}
	if _, _, ok := m.Remove(BlockID{1, 0}); ok {
		t.Fatal("double remove should fail")
	}
}

func TestDiskStoreAccessors(t *testing.T) {
	d := NewDiskStore()
	if d.Contains(BlockID{1, 0}) {
		t.Fatal("empty store contains nothing")
	}
	if _, _, ok := d.Read(BlockID{1, 0}); ok {
		t.Fatal("get of absent block should fail")
	}
	if _, ok := d.Remove(BlockID{1, 0}); ok {
		t.Fatal("remove of absent block should fail")
	}
	recs := []dataflow.Record{{Key: 5, Value: int64(5)}}
	if err := d.Put(BlockID{2, 1}, Fresh(recs), 64); err != nil {
		t.Fatal(err)
	}
	if !d.Contains(BlockID{2, 1}) {
		t.Fatal("contains should see the block")
	}
	p, size, ok := d.Read(BlockID{2, 1})
	if got := p.Records(); !ok || size != 64 || len(got) != 1 || got[0].Key != 5 {
		t.Fatalf("get = %v %d %v", got, size, ok)
	}
	if err := d.Put(BlockID{1, 0}, Fresh(nil), 32); err != nil {
		t.Fatal(err)
	}
	blocks := d.Blocks()
	if len(blocks) != 2 || blocks[0] != (BlockID{1, 0}) || blocks[1] != (BlockID{2, 1}) {
		t.Fatalf("blocks = %v", blocks)
	}
}

func TestValueSizeMoreKinds(t *testing.T) {
	cases := []struct {
		v    any
		want int64
	}{
		{uint8(1), 1},
		{float32(1), 4},
		{uint32(1), 4},
		{int(7), 8},
		{uint64(7), 8},
		{[]byte("abc"), 27},
		{[]any{int64(1), "ab"}, 24 + (16 + 8) + (16 + 16 + 2)},
	}
	for _, c := range cases {
		if got := dataflow.ValueSize(c.v); got != c.want {
			t.Errorf("dataflow.ValueSize(%#v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeRecords([]byte("not gob data")); err == nil {
		t.Fatal("garbage should not decode")
	}
}

// Regression: the codec round trip must be exact for degenerate
// partitions — an empty (non-nil) slice stays empty and non-nil, a nil
// slice stays nil. gob alone encodes both as zero-length, which used to
// turn empty partitions into nil on decode.
func TestCodecRoundTripEmptyAndNil(t *testing.T) {
	data, err := EncodeRecords([]dataflow.Record{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	if back == nil {
		t.Fatal("empty partition decoded as nil")
	}
	if len(back) != 0 {
		t.Fatalf("empty partition decoded with %d records", len(back))
	}

	data, err = EncodeRecords(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err = DecodeRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	if back != nil {
		t.Fatalf("nil partition decoded as non-nil: %#v", back)
	}
}

func TestValueSizeNewKinds(t *testing.T) {
	cases := []struct {
		v    any
		want int64
	}{
		{[]float32{1, 2, 3}, 24 + 12},
		{[]int32{1, 2}, 24 + 8},
		{[]int{1, 2, 3}, 24 + 24},
		{[]string{"ab", "c"}, 24 + (16 + 2) + (16 + 1)},
		{map[int64]float64{1: 1, 2: 2}, 48 + 2*(16+8+8)},
		{map[string]int64{"ab": 1}, 48 + (16 + 16 + 2 + 8)},
		{[]uint32{1, 2}, 24 + (8 + 4) + (8 + 4)}, // reflect slice fallback
		{int16(1), 2},
		{struct{ a, b int }{}, 48}, // non-collection fallback unchanged
	}
	for _, c := range cases {
		if got := dataflow.ValueSize(c.v); got != c.want {
			t.Errorf("dataflow.ValueSize(%#v) = %d, want %d", c.v, got, c.want)
		}
	}
}

// Map sizing must not depend on iteration order: summation over entries
// is commutative, so repeated calls agree.
func TestValueSizeMapDeterministic(t *testing.T) {
	m := map[int64]string{}
	for i := int64(0); i < 100; i++ {
		m[i] = "v"
	}
	first := dataflow.ValueSize(m)
	for i := 0; i < 10; i++ {
		if got := dataflow.ValueSize(m); got != first {
			t.Fatalf("map size changed across calls: %d != %d", got, first)
		}
	}
}

func TestMemoryStoreRealRoundTrip(t *testing.T) {
	RegisterValueType(float64(0))
	meter := NewMeter()
	m := NewMemoryStoreReal(1<<20, meter, 0)
	id := BlockID{Dataset: 1, Partition: 0}
	recs := []dataflow.Record{{Key: 1, Value: 1.5}, {Key: 2, Value: 2.5}}
	if _, err := m.Put(id, recs, 128, 0, 0); err != nil {
		t.Fatal(err)
	}
	snap := meter.Snapshot()
	if snap.MemEncode.Ops != 1 || snap.MemEncode.Bytes == 0 {
		t.Fatalf("put not measured as encode: %+v", snap.MemEncode)
	}
	for i := 1; i <= 2; i++ {
		got, meta, ok := m.Get(id, time.Duration(i)*time.Second)
		if !ok || len(got) != 2 || got[1].Value.(float64) != 2.5 {
			t.Fatalf("get %d decoded wrong: %+v ok=%v", i, got, ok)
		}
		if meta.AccessCount != i || meta.LastAccess != time.Duration(i)*time.Second {
			t.Fatalf("get %d: access stats %+v", i, meta)
		}
		// Every read decodes: there is no decode cache to serve a re-read.
		if snap := meter.Snapshot(); snap.MemDecode.Ops != i || snap.MemDecode.Bytes != int64(i)*snap.MemEncode.Bytes || snap.DecodeCacheHits != 0 {
			t.Fatalf("read %d must be decode %d of the encoded bytes: %+v", i, i, snap)
		}
	}
}

func TestMemoryStoreZeroCacheDecodesEveryRead(t *testing.T) {
	RegisterValueType(float64(0))
	meter := NewMeter()
	m := NewMemoryStoreReal(1<<20, meter, 0)
	id := BlockID{1, 0}
	if _, err := m.Put(id, []dataflow.Record{{Key: 1, Value: 1.0}}, 64, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		m.Get(id, 0)
	}
	snap := meter.Snapshot()
	if snap.MemDecode.Ops != 3 || snap.DecodeCacheHits != 0 {
		t.Fatalf("every read must decode: %+v hits=%d",
			snap.MemDecode, snap.DecodeCacheHits)
	}
}

// TestPayloadTierMoves walks one block put → spill → promote → read on
// real-bytes stores and requires the payload to move as packed: exactly
// one encode (the put), one file write (the spill), one file read (the
// promotion) and no decode until the first read. On virtual stores the
// task's batch itself moves: admission adopts it, a spill hands the
// memory store's share to the disk, and a promotion shares the disk's.
func TestPayloadTierMoves(t *testing.T) {
	t.Run("virtual", func(t *testing.T) {
		m, d := NewMemoryStore(1<<20), NewDiskStore()
		id := BlockID{1, 0}
		task := &dataflow.Batch{Keys: []int64{3}, Col: &dataflow.Dense[float64]{Vals: []float64{4.5}}, NonNil: true}
		want := task.Records()
		if _, err := m.Admit(id, FreshBatch(task), 64, 0, 0); err != nil {
			t.Fatal(err)
		}
		task.Release() // the task's share; the store holds its own
		p, size, _ := m.Remove(id)
		if p.batch != task {
			t.Fatal("admission copied the task's batch")
		}
		if err := d.Put(id, p, size); err != nil {
			t.Fatal(err)
		}
		if p, _, _ = d.Load(id); p.batch != task {
			t.Fatal("a promotion copied the disk's batch")
		}
		if _, err := m.Admit(id, p, size, 0, 0); err != nil {
			t.Fatal(err)
		}
		if r, _, _ := m.Read(id, 0); r.batch != task {
			t.Fatal("the promoted block is not the disk's batch")
		}
		m.Drop(id) // the memory store's share; the disk's stays
		if r, _, _ := d.Read(id); !reflect.DeepEqual(r.Records(), want) {
			t.Fatalf("disk block after the promoted share was dropped: %v, want %v", r.Records(), want)
		}
	})

	RegisterValueType(float64(0))
	meter := NewMeter()
	m := NewMemoryStoreReal(1<<20, meter, 0)
	d := NewDiskStoreReal(t.TempDir(), meter)
	id := BlockID{1, 0}
	if _, err := m.Put(id, []dataflow.Record{{Key: 3, Value: 4.5}}, 64, 0, 0); err != nil {
		t.Fatal(err)
	}
	p, size, ok := m.Remove(id)
	if !ok || size != 64 {
		t.Fatalf("Remove = size %d, ok %v", size, ok)
	}
	if m.Contains(id) || m.Used() != 0 {
		t.Fatal("block still resident after Remove")
	}
	if err := d.Put(id, p, size); err != nil {
		t.Fatal(err)
	}
	p, size, ok = d.Load(id)
	if !ok || size != 64 {
		t.Fatalf("Load = size %d, ok %v", size, ok)
	}
	if _, err := m.Admit(id, p, size, 0, 0); err != nil {
		t.Fatal(err)
	}
	snap := meter.Snapshot()
	if snap.MemEncode.Ops != 1 || snap.DiskWrite.Ops != 1 || snap.DiskRead.Ops != 1 || snap.MemDecode.Ops != 0 {
		t.Fatalf("put → spill → promote must measure 1 encode, 1 write, 1 read, 0 decodes: %+v", snap)
	}
	if snap.DiskWrite.Bytes != snap.MemEncode.Bytes || snap.DiskRead.Bytes != snap.MemEncode.Bytes {
		t.Fatalf("the same bytes must move through every tier: %+v", snap)
	}
	got, _, ok := m.Get(id, 0)
	if !ok || got[0].Value.(float64) != 4.5 {
		t.Fatalf("promoted block decoded wrong: %+v", got)
	}
	if snap := meter.Snapshot(); snap.MemDecode.Ops != 1 || snap.MemEncode.Ops != 1 {
		t.Fatalf("first read must be the one decode: %+v", snap)
	}
}

func TestDiskStoreRealFiles(t *testing.T) {
	RegisterValueType(float64(0))
	meter := NewMeter()
	d := NewDiskStoreReal(t.TempDir(), meter)
	id := BlockID{Dataset: 2, Partition: 3}
	recs := []dataflow.Record{{Key: 1, Value: 9.5}}
	if err := d.Put(id, Fresh(recs), 100); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(d.Dir(), "rdd_2_3.blk")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("block file missing: %v", err)
	}
	snap := meter.Snapshot()
	if snap.DiskWrite.Ops != 1 || snap.DiskWrite.Bytes != info.Size() {
		t.Fatalf("write not measured: %+v (file %d bytes)", snap.DiskWrite, info.Size())
	}
	if snap.FilesWritten != 1 || snap.FileBytesPeak != info.Size() {
		t.Fatalf("file accounting wrong: files=%d peak=%d", snap.FilesWritten, snap.FileBytesPeak)
	}
	if size, ok := d.Size(id); !ok || size != 100 {
		t.Fatalf("Size = %d, %v", size, ok)
	}

	p, size, ok := d.Read(id)
	if got := p.Records(); !ok || size != 100 || len(got) != 1 || got[0].Value.(float64) != 9.5 {
		t.Fatalf("get from file wrong: %+v size=%d ok=%v", got, size, ok)
	}
	if snap := meter.Snapshot(); snap.DiskRead.Ops != 1 {
		t.Fatalf("read not measured: %+v", snap.DiskRead)
	}

	if p, _, ok := d.Load(id); !ok || int64(len(p.data)) != info.Size() {
		t.Fatalf("Load = %d bytes, ok %v", len(p.data), ok)
	}

	if _, ok := d.Remove(id); !ok {
		t.Fatal("remove failed")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("remove left the file behind: %v", err)
	}
}

// TestEncodedReportsTheCause: checkpoint capture reads blocks through
// Encoded — a real-bytes block's bytes as stored, undecoded — and a
// block that cannot be read back must say why: the file and the os error
// for a torn or missing spill file, rather than a bare "unreadable".
func TestEncodedReportsTheCause(t *testing.T) {
	d := NewDiskStoreReal(t.TempDir(), nil)
	id := BlockID{Dataset: 2, Partition: 3}
	recs := []dataflow.Record{{Key: 1, Value: []float64{1, 2}}, {Key: 2, Value: []float64{3}}}
	if err := d.Put(id, Fresh(recs), 100); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(d.Dir(), "rdd_2_3.blk")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := d.Encoded(id); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("intact block: %d bytes (file %d), %v", len(got), len(data), err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err = d.Encoded(id); !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), path) {
		t.Fatalf("torn file: err = %v, want the path and an unexpected EOF", err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err = d.Encoded(id); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want it to wrap os.ErrNotExist", err)
	}
	if _, err := d.Encoded(BlockID{9, 9}); err == nil {
		t.Fatal("a block the store does not hold is not an error")
	}

	m := NewMemoryStoreReal(1<<20, nil, 0)
	if _, err := m.Encoded(id); err == nil {
		t.Fatal("a block the memory store does not hold is not an error")
	}
	if _, err := m.Put(id, recs, 100, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got, err := m.Encoded(id); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("memory block: %d bytes (file %d), %v", len(got), len(data), err)
	}
}

// TestEncodedIsTheRowEncoding: whatever form a block is held in — live
// records, a store-owned batch, real bytes in memory or in a file —
// Encoded returns exactly EncodeRecords of its rows, so a checkpoint's
// bytes do not depend on which plane cached the block.
func TestEncodedIsTheRowEncoding(t *testing.T) {
	RegisterValueType(float64(0))
	recs := sampleRecords(5)
	want, err := EncodeRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	b := dataflow.FromRecords(recs)
	b.NonNil = false // a kernel's batch need not set it when non-empty
	id := BlockID{Dataset: 1, Partition: 0}
	for _, real := range []bool{false, true} {
		for _, p := range []Payload{Fresh(recs), FreshBatch(b)} {
			m, d := NewMemoryStore(1<<20), NewDiskStore()
			if real {
				m, d = NewMemoryStoreReal(1<<20, nil, 0), NewDiskStoreReal(t.TempDir(), nil)
			}
			if _, err := m.Admit(id, p, 100, 0, 0); err != nil {
				t.Fatal(err)
			}
			if err := d.Put(id, p, 100); err != nil {
				t.Fatal(err)
			}
			for name, enc := range map[string]func(BlockID) ([]byte, error){"memory": m.Encoded, "disk": d.Encoded} {
				if got, err := enc(id); err != nil || !bytes.Equal(got, want) {
					t.Errorf("real=%v batch=%v %s: Encoded differs from EncodeRecords (err %v)", real, p.batch != nil, name, err)
				}
			}
		}
	}
}

func TestDiskStorePutEncodedSkipsSerialization(t *testing.T) {
	RegisterValueType(float64(0))
	meter := NewMeter()
	m := NewMemoryStoreReal(1<<20, meter, 0)
	d := NewDiskStoreReal(t.TempDir(), meter)
	id := BlockID{1, 1}
	if _, err := m.Put(id, []dataflow.Record{{Key: 5, Value: 0.5}}, 80, 0, 0); err != nil {
		t.Fatal(err)
	}
	p, _, _ := m.Remove(id)
	encoded := meter.Snapshot().MemEncode
	if err := d.Put(id, p, 80); err != nil {
		t.Fatal(err)
	}
	if snap := meter.Snapshot(); snap.MemEncode != encoded || snap.DiskWrite.Bytes != encoded.Bytes {
		t.Fatalf("an encoded payload must reach its file as it is: %+v", snap)
	}
	read, size, ok := d.Read(id)
	if got := read.Records(); !ok || size != 80 || got[0].Value.(float64) != 0.5 {
		t.Fatalf("encoded put round trip wrong: %+v size=%d ok=%v", got, size, ok)
	}
	if err := d.Put(id, p, 80); err == nil {
		t.Fatal("duplicate Put must fail")
	}
}

// A payload is only accepted by a store of the mode that packed it;
// fresh records are accepted by both.
func TestVirtualStoresRejectEncodedAPI(t *testing.T) {
	RegisterValueType(float64(0))
	id := BlockID{1, 0}
	packedBy := func(m *MemoryStore) Payload {
		t.Helper()
		if _, err := m.Put(id, sampleRecords(2), 8, 0, 0); err != nil {
			t.Fatal(err)
		}
		p, _, _ := m.Remove(id)
		return p
	}
	encoded := packedBy(NewMemoryStoreReal(1<<10, nil, 0))
	live := packedBy(NewMemoryStore(1 << 10))

	if _, err := NewMemoryStore(1<<10).Admit(id, encoded, 8, 0, 0); err == nil {
		t.Error("virtual memory store must reject an encoded payload")
	}
	if err := NewDiskStore().Put(id, encoded, 8); err == nil {
		t.Error("virtual disk store must reject an encoded payload")
	}
	if _, err := NewMemoryStoreReal(1<<10, nil, 0).Admit(id, live, 8, 0, 0); err == nil {
		t.Error("real-bytes memory store must reject a live payload")
	}
	d := NewDiskStoreReal(t.TempDir(), nil)
	if err := d.Put(id, live, 8); err == nil {
		t.Error("real-bytes disk store must reject a live payload")
	}
	if d.Contains(id) || d.TotalWritten() != 0 {
		t.Error("a rejected payload must leave the store untouched")
	}
	if err := NewDiskStore().Put(id, live, 8); err != nil {
		t.Errorf("virtual disk store must take a live payload: %v", err)
	}
	if err := d.Put(id, Fresh(sampleRecords(2)), 8); err != nil {
		t.Errorf("real-bytes disk store must take fresh records: %v", err)
	}
	if _, _, ok := NewDiskStore().Load(id); ok {
		t.Error("Load must report an absent block")
	}
}

// TestBatchBlockOwnership walks a batch through the virtual tiers —
// admit, hit, spill, promote, drop — and releases every share handed out
// as soon as its holder is done. Each store keeps a share of its own, so
// every read still returns the rows that were admitted.
func TestBatchBlockOwnership(t *testing.T) {
	recs := sampleRecords(6)
	want := dataflow.FromRecords(recs).Records()
	check := func(step string, got []dataflow.Record) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: read %v, want %v", step, got, want)
		}
	}
	m, d := NewMemoryStore(1<<20), NewDiskStore()
	id := BlockID{Dataset: 3, Partition: 1}
	task := dataflow.FromRecords(recs)
	if _, err := m.Admit(id, FreshBatch(task), 200, 0, 0); err != nil {
		t.Fatal(err)
	}
	task.Release() // the task's share; the store took one of its own
	p, _, _ := m.Read(id, 0)
	hit := p.Batch()
	hit.Release() // a hit is a share too
	got, _, _ := m.Get(id, 0)
	check("memory after the task and a hit released", got)

	spilled, size, _ := m.Remove(id)
	if err := d.Put(id, spilled, size); err != nil { // the disk takes the batch over
		t.Fatal(err)
	}
	dp, _, _ := d.Read(id)
	check("disk after a spill", dp.Records())
	promoted, _, _ := d.Load(id)
	if _, err := m.Admit(id, promoted, size, 0, 0); err != nil {
		t.Fatal(err)
	}
	m.Drop(id) // releases the memory store's share, not the disk's
	dp, _, _ = d.Read(id)
	check("disk after the promoted copy was dropped", dp.Records())
}

// TestDecodedReadIsHandedOver: a real-bytes read decodes afresh and
// gives the caller that batch, not a copy of it — every disk read, and
// every read of a memory store built the way the engine's pool builds
// one, each a decode of its own. A virtual read hands over a share of
// the batch the store holds, which outlives the block.
func TestDecodedReadIsHandedOver(t *testing.T) {
	recs := sampleRecords(6)
	id := BlockID{Dataset: 5, Partition: 0}
	poisonReleased = true
	defer func() { poisonReleased = false }()
	vm, vd := NewMemoryStore(1<<20), NewDiskStore()
	task := dataflow.FromRecords(recs)
	if _, err := vm.Admit(id, FreshBatch(task), 200, 0, 0); err != nil {
		t.Fatal(err)
	}
	task.Release() // the stores hold the only shares
	task = dataflow.FromRecords(recs)
	if err := vd.Put(id, FreshBatch(task), 200); err != nil {
		t.Fatal(err)
	}
	task.Release()
	mp, _, _ := vm.Read(id, 0)
	dp, _, _ := vd.Read(id)
	shares := map[string]*dataflow.Batch{"memory": mp.Batch(), "disk": dp.Batch()}
	if shares["memory"] != mp.batch || shares["disk"] != dp.batch {
		t.Error("a virtual read copied the stored batch")
	}
	vm.Drop(id)
	vd.Remove(id)
	for name, b := range shares {
		if got := b.Records(); !reflect.DeepEqual(got, recs) {
			t.Errorf("%s: a share reads %v after its block left the store, want %v", name, got, recs)
		}
		b.Release()
	}
	d := NewDiskStoreReal(t.TempDir(), nil)
	if err := d.Put(id, Fresh(recs), 200); err != nil {
		t.Fatal(err)
	}
	if p, _, _ := d.Read(id); p.Batch() != p.batch {
		t.Error("a disk read copied its own decode")
	}
	meter := NewMeter()
	m := NewMemoryStoreReal(1<<20, meter, 0)
	if _, err := m.Admit(id, Fresh(recs), 200, 0, 0); err != nil {
		t.Fatal(err)
	}
	var prev *dataflow.Batch
	for i := 1; i <= 2; i++ {
		p, _, _ := m.Read(id, 0)
		b := p.Batch()
		if b != p.batch {
			t.Fatalf("memory read %d copied its own decode", i)
		}
		if b == prev {
			t.Fatalf("memory read %d handed out the previous read's batch", i)
		}
		if !reflect.DeepEqual(b.Records(), dataflow.FromRecords(recs).Records()) {
			t.Fatalf("memory read %d: %v", i, b.Records())
		}
		if snap := meter.Snapshot(); snap.MemDecode.Ops != i {
			t.Fatalf("memory read %d: %d decodes, want one per read", i, snap.MemDecode.Ops)
		}
		prev = b
	}
}

// panicValue runs f and returns what it panicked with (nil if nothing).
func panicValue(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestLostBlockFilePanicsWithCause: reading a real-bytes disk block whose
// file is gone fails with an error that still says why, so whoever
// recovers the panic can tell a missing file from any other failure.
func TestLostBlockFilePanicsWithCause(t *testing.T) {
	id := BlockID{Dataset: 3, Partition: 1}
	d := NewDiskStoreReal(t.TempDir(), nil)
	if err := d.Put(id, Fresh(sampleRecords(4)), 100); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(d.path(id)); err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func(){
		"Read": func() { d.Read(id) },
		"Load": func() { d.Load(id) },
	} {
		r := panicValue(read)
		if err, _ := r.(error); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("DiskStore.%s of a removed block file panicked with %#v, want an error wrapping os.ErrNotExist", name, r)
		}
	}
}

// TestCorruptMemoryBlockPanicsWithCause: a real-bytes memory block that
// no longer decodes panics with the decoder's error wrapped, not
// flattened to text.
func TestCorruptMemoryBlockPanicsWithCause(t *testing.T) {
	id := BlockID{Dataset: 3, Partition: 2}
	m := NewMemoryStoreReal(1<<20, nil, 0)
	if _, err := m.Admit(id, Fresh(sampleRecords(4)), 100, 0, 0); err != nil {
		t.Fatal(err)
	}
	e := m.blocks[id]
	e.p.data = e.p.data[:len(e.p.data)-1]
	_, cause := dataflow.DecodeBlock(e.p.data)
	if cause == nil {
		t.Fatal("the truncated block still decodes; the test corrupts nothing")
	}
	r := panicValue(func() { m.Read(id, 0) })
	if err, _ := r.(error); !errors.Is(err, cause) {
		t.Fatalf("MemoryStore.Read of a corrupt block panicked with %#v, want an error wrapping %v", r, cause)
	}
}

func sampleRecords(n int) []dataflow.Record {
	out := make([]dataflow.Record, n)
	for i := range out {
		out[i] = dataflow.Record{Key: int64(i), Value: float64(i)}
	}
	return out
}

// TestColumnVersionCountsEveryResidencyChange pins the contract cost
// caches rely on: every way a block enters or leaves either store moves
// the version of its partition index, and of no other.
func TestColumnVersionCountsEveryResidencyChange(t *testing.T) {
	dir := t.TempDir()
	id := BlockID{Dataset: 4, Partition: 2}
	moved := func(name string, version func(int) uint64, change func()) {
		t.Helper()
		before, other := version(2), version(1)
		change()
		if version(2) == before {
			t.Errorf("%s did not move the column version", name)
		}
		if version(1) != other {
			t.Errorf("%s moved another column's version", name)
		}
	}
	data, err := EncodeRecords(sampleRecords(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, real := range []bool{false, true} {
		m := NewMemoryStore(1 << 20)
		if real {
			m = NewMemoryStoreReal(1<<20, nil, 0)
		}
		moved("MemoryStore.Put", m.ColumnVersion, func() { m.Put(id, sampleRecords(3), 100, 0, 0) })
		moved("MemoryStore.Remove", m.ColumnVersion, func() { m.Remove(id) })
		moved("MemoryStore.Restore", m.ColumnVersion, func() { m.Restore(BlockMeta{ID: id, Size: 100}, data) })
		var p Payload
		moved("MemoryStore.Remove (payload)", m.ColumnVersion, func() { p, _, _ = m.Remove(id) })
		moved("MemoryStore.Admit", m.ColumnVersion, func() { m.Admit(id, p, 100, 0, 0) })

		d := NewDiskStore()
		if real {
			d = NewDiskStoreReal(dir, nil)
		}
		moved("DiskStore.Put", d.ColumnVersion, func() { d.Put(id, Fresh(sampleRecords(3)), 100) })
		moved("DiskStore.Remove", d.ColumnVersion, func() { d.Remove(id) })
		moved("DiskStore.Restore", d.ColumnVersion, func() { d.Restore(id, data, 100) })
		d.Remove(id)
		moved("DiskStore.Put (payload)", d.ColumnVersion, func() { d.Put(id, p, 100) })
	}
}

// TestBlocksViewTracksResidency checks the maintained listing against
// the block map through a random put/remove sequence.
func TestBlocksViewTracksResidency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMemoryStore(1 << 30)
	for step := 0; step < 2000; step++ {
		id := BlockID{Dataset: rng.Intn(6), Partition: rng.Intn(8)}
		if m.Contains(id) {
			m.Remove(id)
		} else if _, err := m.Put(id, nil, 1, 0, 0); err != nil {
			t.Fatal(err)
		}
		view := m.BlocksView()
		if len(view) != len(m.blocks) {
			t.Fatalf("step %d: view lists %d blocks, store holds %d", step, len(view), len(m.blocks))
		}
		for i, meta := range view {
			if e, ok := m.blocks[meta.ID]; !ok || e.meta != meta {
				t.Fatalf("step %d: view entry %v is not the resident block's metadata", step, meta.ID)
			}
			if i > 0 && view[i-1].ID.Compare(meta.ID) >= 0 {
				t.Fatalf("step %d: view out of order at %d: %v then %v", step, i, view[i-1].ID, meta.ID)
			}
		}
	}
}
