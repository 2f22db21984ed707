package dataflow_test

// Tests of the typed block format. The external test package lets the
// seeds cover the workload packages' registered columns as well as the
// built-in ones.

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"blaze/internal/dataflow"
	"blaze/internal/graphx"
	"blaze/internal/mllib"
)

// typedBatches returns one small batch per registered flat column, plus
// the column-less nil and empty partitions. Ragged columns include an
// empty element; float columns include a NaN with payload bits.
func typedBatches() map[string]*dataflow.Batch {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	keys := []int64{7, -1, math.MinInt64}
	return map[string]*dataflow.Batch{
		"nil":      {},
		"empty":    {Keys: []int64{}, NonNil: true},
		"f64":      {Keys: keys, NonNil: true, Col: &dataflow.Dense[float64]{Vals: []float64{1.5, nan, math.Inf(-1)}}},
		"f64-zero": {Keys: []int64{}, NonNil: true, Col: &dataflow.Dense[float64]{Vals: []float64{}}},
		"i64":      {Keys: keys, Col: &dataflow.Dense[int64]{Vals: []int64{0, math.MaxInt64, -5}}},
		"floats": {Keys: keys, NonNil: true,
			Col: ragged(dataflow.FloatsKind{}, nil, []int32{0, 2, 2, 3}, []float64{1, nan, 3})},
		"graphx.AdjList": {Keys: keys, NonNil: true,
			Col: ragged(graphx.AdjListKind{}, nil, []int32{0, 0, 3, 4}, []int64{4, 5, 6, 7})},
		"graphx.VertexRank": {Keys: keys, NonNil: true,
			Col: ragged(graphx.VertexRankKind{}, []float64{1, nan, 0.15}, []int32{0, 1, 1, 3}, []int64{9, 8, 7})},
		"mllib.Vector": {Keys: keys, NonNil: true,
			Col: ragged(mllib.VectorKind{}, nil, []int32{0, 2, 4, 6}, []float64{1, 2, 3, 4, nan, 6})},
		"mllib.sumCount": {Keys: keys, NonNil: true,
			Col: ragged(mllib.SumCountKind{}, []float64{3, 0, 1}, []int32{0, 2, 2, 4}, []float64{1, 2, nan, 4})},
		"mllib.sumCount/empty-last": {Keys: keys, NonNil: true,
			Col: ragged(mllib.SumCountKind{}, []float64{0.1, nan, 0}, []int32{0, 2, 4, 4}, []float64{0.1, 0.2, nan, 0.4})},
	}
}

// ragged returns a column of kind K over the given arrays.
func ragged[T dataflow.Elem, V any, K dataflow.Kind[T, V]](_ K, lead []float64, off []int32, flat []T) dataflow.Column {
	return &dataflow.Ragged[T, V, K]{Lead: lead, Off: off, Flat: flat}
}

func encodeTyped(t testing.TB, b *dataflow.Batch) []byte {
	t.Helper()
	data, typed := dataflow.EncodeBlock(b)
	if !typed {
		t.Fatalf("batch with column %T did not encode as a typed block", b.Col)
	}
	if data[0] != dataflow.BlockTyped {
		t.Fatalf("typed block starts with marker %#x", data[0])
	}
	return data
}

// valueBits renders a boxed value with every float as its bit pattern,
// so NaN payloads compare exactly.
func valueBits(v any) any {
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	switch x := v.(type) {
	case float64:
		return math.Float64bits(x)
	case []float64:
		return bits(x)
	case graphx.VertexRank:
		return []any{x.Adj, math.Float64bits(x.Rank)}
	case mllib.Vector:
		return bits(x.V)
	}
	if rv := reflect.ValueOf(v); rv.Kind() == reflect.Struct && rv.NumField() == 2 && rv.Field(0).Kind() == reflect.Slice {
		// mllib.sumCount{Sum, N}, unexported.
		return []any{bits(rv.Field(0).Interface().([]float64)), math.Float64bits(rv.Field(1).Float())}
	}
	return v
}

// TestBlockRoundTripEveryColumn: every registered column survives
// encode → decode with identical arrays (NaN bits included), decoded
// views equal the copying Value element by element, and the decoded batch
// re-encodes to the same bytes.
func TestBlockRoundTripEveryColumn(t *testing.T) {
	for name, b := range typedBatches() {
		t.Run(name, func(t *testing.T) {
			data := encodeTyped(t, b)
			back, err := dataflow.DecodeBlock(data)
			if err != nil {
				t.Fatal(err)
			}
			if back.NonNil != b.NonNil || len(back.Keys) != len(b.Keys) {
				t.Fatalf("decoded NonNil=%v n=%d, want %v %d", back.NonNil, len(back.Keys), b.NonNil, len(b.Keys))
			}
			if again := encodeTyped(t, back); !bytes.Equal(again, data) {
				t.Fatalf("re-encoding differs:\n%x\n%x", data, again)
			}
			recs, err := dataflow.DecodeBlockRecords(data)
			if err != nil {
				t.Fatal(err)
			}
			want := b.Records()
			if (recs == nil) != (want == nil) || len(recs) != len(want) {
				t.Fatalf("rows: got %d (nil=%v), want %d (nil=%v)", len(recs), recs == nil, len(want), want == nil)
			}
			for i := range want {
				if recs[i].Key != want[i].Key {
					t.Fatalf("record %d: key %d, want %d", i, recs[i].Key, want[i].Key)
				}
				if reflect.TypeOf(recs[i].Value) != reflect.TypeOf(want[i].Value) ||
					!reflect.DeepEqual(valueBits(recs[i].Value), valueBits(want[i].Value)) {
					t.Fatalf("record %d: view %#v, value %#v", i, recs[i].Value, want[i].Value)
				}
			}
		})
	}
}

// TestBlockBytesPinned: the encoding of every typedBatches entry, byte
// for byte. Checkpoints, spill files and shuffle snapshots already
// written must stay readable, so a change to a block name, to the order
// of a column's arrays or to their encoding fails here, even though it
// would still round-trip.
func TestBlockBytesPinned(t *testing.T) {
	want := map[string]string{
		"empty":                     "01010000000000",
		"f64":                       "010103663634030000000700000000000000ffffffffffffffff000000000000008003000000000000000000f83fefbeadde0000f87f000000000000f0ff",
		"f64-zero":                  "0101036636340000000000000000",
		"floats":                    "010106666c6f617473030000000700000000000000ffffffffffffffff0000000000000080040000000000000002000000020000000300000003000000000000000000f03fefbeadde0000f87f0000000000000840",
		"graphx.AdjList":            "01010e6772617068782e41646a4c697374030000000700000000000000ffffffffffffffff00000000000000800400000000000000000000000300000004000000040000000400000000000000050000000000000006000000000000000700000000000000",
		"graphx.VertexRank":         "0101116772617068782e56657274657852616e6b030000000700000000000000ffffffffffffffff000000000000008003000000000000000000f03fefbeadde0000f87f333333333333c33f040000000000000001000000010000000300000003000000090000000000000008000000000000000700000000000000",
		"i64":                       "010003693634030000000700000000000000ffffffffffffffff0000000000000080030000000000000000000000ffffffffffffff7ffbffffffffffffff",
		"mllib.Vector":              "01010c6d6c6c69622e566563746f72030000000700000000000000ffffffffffffffff0000000000000080040000000000000002000000040000000600000006000000000000000000f03f000000000000004000000000000008400000000000001040efbeadde0000f87f0000000000001840",
		"mllib.sumCount/empty-last": "01010e6d6c6c69622e73756d436f756e74030000000700000000000000ffffffffffffffff0000000000000080030000009a9999999999b93fefbeadde0000f87f00000000000000000400000000000000020000000400000004000000040000009a9999999999b93f9a9999999999c93fefbeadde0000f87f9a9999999999d93f",
		"mllib.sumCount":            "01010e6d6c6c69622e73756d436f756e74030000000700000000000000ffffffffffffffff00000000000000800300000000000000000008400000000000000000000000000000f03f040000000000000002000000020000000400000004000000000000000000f03f0000000000000040efbeadde0000f87f0000000000001040",
		"nil":                       "01000000000000",
	}
	batches := typedBatches()
	if len(batches) != len(want) {
		t.Fatalf("%d typed batches, %d pinned encodings", len(batches), len(want))
	}
	for name, b := range batches {
		if got := hex.EncodeToString(encodeTyped(t, b)); got != want[name] {
			t.Errorf("%s encodes as\n%s\nwant\n%s", name, got, want[name])
		}
	}
}

// TestAppendBlockReusesBuffer: BlockSize tells every typedBatches entry's
// encoded length exactly, and AppendBlock into a buffer whose spare
// capacity holds stale bytes (a reused checkpoint arena) writes exactly
// EncodeBlock's bytes behind what the buffer holds, in place.
func TestAppendBlockReusesBuffer(t *testing.T) {
	for name, b := range typedBatches() {
		want := encodeTyped(t, b)
		size, typed := dataflow.BlockSize(b)
		if !typed || size != len(want) {
			t.Errorf("%s: BlockSize = %d, %v; EncodeBlock wrote %d bytes", name, size, typed, len(want))
			continue
		}
		buf := bytes.Repeat([]byte{0xff}, 2+size)[:2]
		got, typed := dataflow.AppendBlock(buf, b)
		switch {
		case !typed:
			t.Errorf("%s: AppendBlock refused a typed batch", name)
		case &got[0] != &buf[0]:
			t.Errorf("%s: AppendBlock reallocated a buffer with room for the block", name)
		case !bytes.Equal(got[:2], []byte{0xff, 0xff}) || !bytes.Equal(got[2:], want):
			t.Errorf("%s: appended\n%x\nwant ffff then\n%x", name, got, want)
		}
	}
	if _, typed := dataflow.BlockSize(dataflow.FromRecords([]dataflow.Record{{Key: 1, Value: "s"}})); typed {
		t.Error("BlockSize sized a row-form batch")
	}
}

// TestBlockNotTyped: a partition with no flat column (row form) is
// refused, not mis-encoded.
func TestBlockNotTyped(t *testing.T) {
	b := dataflow.FromRecords([]dataflow.Record{{Key: 1, Value: "s"}, {Key: 2, Value: 2.0}})
	if !b.RowForm() {
		t.Fatalf("mixed values gave a %T, want row form", b.Col)
	}
	if _, typed := dataflow.EncodeBlock(b); typed {
		t.Fatal("a row-form batch encoded as a typed block")
	}
}

// hostileBlocks derives malformed inputs from valid blocks: every
// truncation, a trailing byte, and targeted corruptions of the header
// and the offsets.
func hostileBlocks(t testing.TB) map[string][]byte {
	out := map[string][]byte{}
	for name, b := range typedBatches() {
		data := encodeTyped(t, b)
		for cut := 0; cut < len(data); cut++ {
			out[fmt.Sprintf("%s/cut%d", name, cut)] = data[:cut:cut]
		}
		out[name+"/trailing"] = append(bytes.Clone(data), 0)
	}
	vec := encodeTyped(t, typedBatches()["mllib.Vector"])
	mutate := func(name string, f func(p []byte) []byte) { out[name] = f(bytes.Clone(vec)) }
	nameEnd := 3 + int(vec[2])    // the Keys array starts here: count, 3 keys
	offs := nameEnd + 4 + 3*8 + 4 // first entry of the Off array
	mutate("marker", func(p []byte) []byte { p[0] = dataflow.BlockGob; return p })
	mutate("nonnil", func(p []byte) []byte { p[1] = 2; return p })
	mutate("unknown-column", func(p []byte) []byte { p[3] ^= 0x20; return p })
	mutate("huge-count", func(p []byte) []byte { binary.LittleEndian.PutUint32(p[nameEnd:], math.MaxUint32); return p })
	mutate("count-one-more", func(p []byte) []byte { binary.LittleEndian.PutUint32(p[nameEnd:], 4); return p })
	mutate("huge-array", func(p []byte) []byte { binary.LittleEndian.PutUint32(p[offs-4:], math.MaxUint32); return p })
	mutate("offsets-start", func(p []byte) []byte { binary.LittleEndian.PutUint32(p[offs:], 1); return p })
	mutate("offsets-decrease", func(p []byte) []byte { binary.LittleEndian.PutUint32(p[offs+4:], 5); return p })
	mutate("offsets-negative", func(p []byte) []byte { binary.LittleEndian.PutUint32(p[offs+4:], 0x80000000); return p })
	mutate("offsets-end", func(p []byte) []byte { binary.LittleEndian.PutUint32(p[offs+12:], 5); return p })
	// A dense array (the ranks) one entry short of the record count.
	vr := typedBatches()["graphx.VertexRank"]
	_, arrays := vr.Col.(dataflow.FlatColumn).Layout()
	*arrays[0].F64 = []float64{1, 2}
	short, _ := dataflow.EncodeBlock(vr)
	out["dense-short"] = short
	// Records but no column to hold their values.
	out["records-no-column"] = []byte{dataflow.BlockTyped, 1, 0, 1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}
	return out
}

// TestBlockDecodeRejectsMalformed: each hostile input is an error from
// DecodeBlock — not a panic, and not a batch that would fault later.
func TestBlockDecodeRejectsMalformed(t *testing.T) {
	for name, data := range hostileBlocks(t) {
		if b, err := dataflow.DecodeBlock(data); err == nil {
			t.Errorf("%s: decoded %d records from malformed block %x", name, b.Len(), data)
		}
		if _, err := dataflow.DecodeBlockRecords(data); err == nil {
			t.Errorf("%s: DecodeBlockRecords accepted malformed block", name)
		}
	}
}

// FuzzBlockDecode feeds DecodeBlock arbitrary bytes. It must never panic,
// never allocate more than a small multiple of the input (a header
// claiming 2^32 records is rejected before any make), and whatever it
// accepts must be exactly what EncodeBlock writes for the decoded batch.
func FuzzBlockDecode(f *testing.F) {
	for _, b := range typedBatches() {
		f.Add(encodeTyped(f, b))
	}
	for _, data := range hostileBlocks(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := dataflow.DecodeBlock(data)
		runtime.ReadMemStats(&after)
		// The arrays are 1:1 with the input bytes; the rest is the batch,
		// the column and slack for whatever else the test process
		// allocates meanwhile.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data))+64<<10; got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		again, typed := dataflow.EncodeBlock(b)
		if !typed || !bytes.Equal(again, data) {
			t.Fatalf("accepted block is not canonical:\nin:  %x\nout: %x", data, again)
		}
		if _, err := dataflow.DecodeBlockRecords(data); err != nil {
			t.Fatalf("DecodeBlock accepted what DecodeBlockRecords rejects: %v", err)
		}
	})
}
