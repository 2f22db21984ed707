package shuffle

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"blaze/internal/dataflow"
)

func recs(keys ...int64) []dataflow.Record {
	out := make([]dataflow.Record, len(keys))
	for i, k := range keys {
		out[i] = dataflow.Record{Key: k, Value: k}
	}
	return out
}

func TestWriteFetchLifecycle(t *testing.T) {
	s := NewService()
	s.Ensure(1, 2, 2)
	s.Ensure(1, 2, 2) // idempotent
	if s.Complete(1) {
		t.Fatal("shuffle should not be complete before MarkComplete")
	}
	if got := s.MissingMaps(1); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("missing maps = %v, want [0 1]", got)
	}
	if err := s.SetMapOutput(1, 0, 0, [][]dataflow.Record{recs(1, 2), recs(4)}, []int64{100, 25}); err != nil {
		t.Fatal(err)
	}
	s.MarkComplete(1) // no-op: map 1 still missing
	if s.Complete(1) {
		t.Fatal("shuffle must not seal while map outputs are missing")
	}
	if err := s.SetMapOutput(1, 1, 1, [][]dataflow.Record{recs(3), nil}, []int64{50, 0}); err != nil {
		t.Fatal(err)
	}
	s.MarkComplete(1)
	if !s.Complete(1) {
		t.Fatal("shuffle should be complete")
	}
	// Bucket 0 concatenates map outputs in map-partition order.
	got, bytes, err := s.Fetch(1, 0)
	if err != nil || bytes != 150 {
		t.Fatalf("fetch bucket 0: %d bytes, err=%v", bytes, err)
	}
	if want := recs(1, 2, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("fetch bucket 0 = %v, want %v", got, want)
	}
	if s.TotalWritten() != 175 {
		t.Fatalf("total written = %d, want 175", s.TotalWritten())
	}
}

func TestFetchIncompleteErrors(t *testing.T) {
	s := NewService()
	if _, _, err := s.Fetch(9, 0); err == nil {
		t.Fatal("fetch of unknown shuffle should error")
	}
	s.Ensure(9, 1, 1)
	if _, _, err := s.Fetch(9, 0); err == nil {
		t.Fatal("fetch before completion should error")
	}
}

func TestSetMapOutputErrors(t *testing.T) {
	s := NewService()
	if err := s.SetMapOutput(5, 0, 0, [][]dataflow.Record{recs(1)}, []int64{10}); err == nil {
		t.Fatal("write to unprepared shuffle should error")
	}
	s.Ensure(5, 1, 2)
	if err := s.SetMapOutput(5, 7, 0, [][]dataflow.Record{recs(1)}, []int64{10}); err == nil {
		t.Fatal("write to out-of-range map partition should error")
	}
	if err := s.SetMapOutput(5, 0, 0, [][]dataflow.Record{recs(1), recs(2)}, []int64{10, 20}); err == nil {
		t.Fatal("write with wrong bucket count should error")
	}
	if err := s.SetMapOutput(5, 0, 0, [][]dataflow.Record{recs(1)}, []int64{10}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetMapOutput(5, 0, 0, [][]dataflow.Record{recs(1)}, []int64{10}); err == nil {
		t.Fatal("duplicate map output should error")
	}
	if err := s.SetMapOutput(5, 1, 0, [][]dataflow.Record{recs(2)}, []int64{10}); err != nil {
		t.Fatal(err)
	}
	s.MarkComplete(5)
	if err := s.SetMapOutput(5, 0, 0, [][]dataflow.Record{recs(3)}, []int64{10}); err == nil {
		t.Fatal("writes after completion should error")
	}
}

func TestCleanForcesRegeneration(t *testing.T) {
	s := NewService()
	s.Ensure(3, 1, 1)
	if err := s.SetMapOutput(3, 0, 0, [][]dataflow.Record{recs(1)}, []int64{10}); err != nil {
		t.Fatal(err)
	}
	s.MarkComplete(3)
	s.Clean(3)
	if s.Complete(3) {
		t.Fatal("cleaned shuffle must not be complete")
	}
	// Regeneration path: Ensure again and rewrite.
	s.Ensure(3, 1, 1)
	if got := s.MissingMaps(3); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("missing maps after clean = %v, want [0]", got)
	}
	if err := s.SetMapOutput(3, 0, 0, [][]dataflow.Record{recs(2)}, []int64{20}); err != nil {
		t.Fatal(err)
	}
	s.MarkComplete(3)
	got, _, err := s.Fetch(3, 0)
	if err != nil || len(got) != 1 || got[0].Key != 2 {
		t.Fatalf("regenerated fetch = %v, %v", got, err)
	}
}

// fill writes maps 0..maps-1 of a shuffle with buckets of 10 bytes each,
// assigning map m to executor m%execs.
func fill(t *testing.T, s *Service, id, buckets, maps, execs int) {
	t.Helper()
	s.Ensure(id, buckets, maps)
	for m := 0; m < maps; m++ {
		bs := make([][]dataflow.Record, buckets)
		bytes := make([]int64, buckets)
		for b := range bs {
			bs[b] = recs(int64(m*buckets + b))
			bytes[b] = 10
		}
		if err := s.SetMapOutput(id, m, m%execs, bs, bytes); err != nil {
			t.Fatal(err)
		}
	}
	s.MarkComplete(id)
}

func TestLoseBucketInvalidatesOnlyProducer(t *testing.T) {
	s := NewService()
	fill(t, s, 1, 3, 4, 2)
	bytes, ok := s.LoseBucket(1, 2, 1)
	if !ok || bytes != 10 {
		t.Fatalf("LoseBucket = %d, %v; want 10, true", bytes, ok)
	}
	if s.Complete(1) {
		t.Fatal("shuffle must unseal on bucket loss")
	}
	if got := s.MissingMaps(1); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("missing maps = %v, want [2] (only the producing map)", got)
	}
	// Unknown shuffle, out-of-range map/bucket, already-missing map.
	if _, ok := s.LoseBucket(9, 0, 0); ok {
		t.Fatal("losing a bucket of an unknown shuffle should fail")
	}
	if _, ok := s.LoseBucket(1, 9, 0); ok {
		t.Fatal("losing an out-of-range map should fail")
	}
	if _, ok := s.LoseBucket(1, 0, 9); ok {
		t.Fatal("losing an out-of-range bucket should fail")
	}
	if _, ok := s.LoseBucket(1, 2, 0); ok {
		t.Fatal("losing a bucket of an already-missing map should fail")
	}
	// Rewriting the lost map reseals and restores fetches.
	bs := make([][]dataflow.Record, 3)
	bytes2 := make([]int64, 3)
	for b := range bs {
		bs[b] = recs(int64(100 + b))
		bytes2[b] = 10
	}
	if err := s.SetMapOutput(1, 2, 0, bs, bytes2); err != nil {
		t.Fatal(err)
	}
	s.MarkComplete(1)
	if !s.Complete(1) {
		t.Fatal("shuffle should reseal after the lost map is rewritten")
	}
	if _, n, err := s.Fetch(1, 1); err != nil || n != 40 {
		t.Fatalf("fetch after repair: %d bytes, err=%v", n, err)
	}
}

func TestLoseExecutorOutputs(t *testing.T) {
	s := NewService()
	fill(t, s, 1, 2, 4, 2) // maps 0,2 on executor 0; maps 1,3 on executor 1
	fill(t, s, 2, 2, 2, 2) // map 0 on executor 0; map 1 on executor 1
	lost := s.LoseExecutorOutputs(1)
	want := []LostMapOutput{
		{Shuffle: 1, MapPart: 1, Bytes: 20},
		{Shuffle: 1, MapPart: 3, Bytes: 20},
		{Shuffle: 2, MapPart: 1, Bytes: 20},
	}
	if !reflect.DeepEqual(lost, want) {
		t.Fatalf("lost = %v, want %v", lost, want)
	}
	if s.Complete(1) || s.Complete(2) {
		t.Fatal("both shuffles must unseal")
	}
	if got := s.MissingMaps(1); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("shuffle 1 missing = %v, want [1 3]", got)
	}
	if got := s.LoseExecutorOutputs(1); len(got) != 0 {
		t.Fatalf("second loss of the same executor = %v, want none", got)
	}
	// Executor 0's outputs are untouched.
	if got := s.LoseExecutorOutputs(0); len(got) != 3 {
		t.Fatalf("executor 0 outputs = %v, want 3 entries", got)
	}
}

func TestBucketRefsAndCompleteIDs(t *testing.T) {
	s := NewService()
	fill(t, s, 4, 2, 2, 1)
	fill(t, s, 7, 1, 1, 1)
	s.Ensure(9, 1, 1) // never completed
	if got := s.CompleteIDs(); !reflect.DeepEqual(got, []int{4, 7}) {
		t.Fatalf("complete ids = %v, want [4 7]", got)
	}
	refs := s.BucketRefs(4)
	want := []BucketRef{
		{MapPart: 0, Bucket: 0, Bytes: 10},
		{MapPart: 0, Bucket: 1, Bytes: 10},
		{MapPart: 1, Bucket: 0, Bytes: 10},
		{MapPart: 1, Bucket: 1, Bytes: 10},
	}
	if !reflect.DeepEqual(refs, want) {
		t.Fatalf("bucket refs = %v, want %v", refs, want)
	}
	if got := s.BucketRefs(99); got != nil {
		t.Fatalf("bucket refs of unknown shuffle = %v, want nil", got)
	}
	// After losing a map, its buckets drop out of the candidate set.
	s.LoseBucket(4, 0, 0)
	if got := s.BucketRefs(4); len(got) != 2 {
		t.Fatalf("bucket refs after loss = %v, want 2 entries", got)
	}
}

// TestSealEpochMovesWithCompleteness pins the contract cost caches rely
// on: every transition that can change a Complete answer moves SealEpoch,
// and operations that cannot leave it alone.
func TestSealEpochMovesWithCompleteness(t *testing.T) {
	s := NewService()
	step := func(name string, wantMove bool, f func()) {
		t.Helper()
		before := s.SealEpoch()
		f()
		if moved := s.SealEpoch() != before; moved != wantMove {
			t.Errorf("%s: seal epoch moved = %v, want %v", name, moved, wantMove)
		}
	}
	write := func(id, mapPart, exec int) {
		if err := s.SetMapOutput(id, mapPart, exec, [][]dataflow.Record{recs(1), recs(2)}, []int64{10, 10}); err != nil {
			t.Fatal(err)
		}
	}
	step("Ensure", false, func() { s.Ensure(1, 2, 2) })
	step("SetMapOutput", false, func() { write(1, 0, 0) })
	step("MarkComplete with a map missing", false, func() { s.MarkComplete(1) })
	write(1, 1, 1)
	step("MarkComplete", true, func() { s.MarkComplete(1) })
	step("Complete", false, func() { s.Complete(1) })
	step("LoseBucket", true, func() { s.LoseBucket(1, 0, 1) })
	write(1, 0, 0)
	s.MarkComplete(1)
	step("LoseExecutorOutputs", true, func() { s.LoseExecutorOutputs(1) })
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	step("Clean", true, func() { s.Clean(1) })
	step("Restore", true, func() {
		if err := s.Restore(snap); err != nil {
			t.Fatal(err)
		}
	})
}

// snapshotFixture fills a service with one shuffle written by the row
// plane (an int64 bucket, a string bucket that no flat column holds, an
// empty one) and one written by the columnar plane, plus an unsealed
// shuffle with a map output missing.
func snapshotFixture(t *testing.T) *Service {
	t.Helper()
	s := NewService()
	s.Ensure(1, 3, 2)
	strs := []dataflow.Record{{Key: 5, Value: "five"}, {Key: 8, Value: "eight"}}
	if err := s.SetMapOutput(1, 0, 0, [][]dataflow.Record{recs(1, 2), strs, nil}, []int64{32, 50, 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetMapOutput(1, 1, 1, [][]dataflow.Record{recs(3), {}, nil}, []int64{16, 0, 0}); err != nil {
		t.Fatal(err)
	}
	s.MarkComplete(1)
	s.Ensure(2, 2, 1)
	floats := dataflow.FromRecords([]dataflow.Record{{Key: 1, Value: 0.5}, {Key: 3, Value: 1.5}})
	if err := s.SetMapOutputBatch(2, 0, 1, []*dataflow.Batch{floats, nil}, []int64{32, 0}); err != nil {
		t.Fatal(err)
	}
	s.MarkComplete(2)
	s.Ensure(3, 2, 2)
	if err := s.SetMapOutput(3, 1, 0, [][]dataflow.Record{recs(7), recs(9)}, []int64{16, 16}); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSnapshotRestoresBothPlanes: a snapshot taken from row- and
// batch-written outputs survives a gob round trip (the checkpoint's
// state gob carries its metadata, the segment its buckets) and restores a service both planes fetch from exactly like the
// original; buckets travel as typed blocks unless their values have no
// flat column.
func TestSnapshotRestoresBothPlanes(t *testing.T) {
	s := snapshotFixture(t)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	markers := map[byte]int{}
	for _, o := range snap.Outputs {
		for _, m := range o.Maps {
			for _, b := range m.Buckets {
				if len(b) > 0 {
					markers[b[0]]++
				}
			}
		}
	}
	if markers[dataflow.BlockGob] != 1 || markers[dataflow.BlockTyped] != 5 {
		t.Fatalf("bucket markers %v: want the string bucket alone on gob, the 5 other non-empty buckets typed", markers)
	}

	var wire bytes.Buffer
	if err := gob.NewEncoder(&wire).Encode(snap); err != nil {
		t.Fatal(err)
	}
	var loaded Snapshot
	if err := gob.NewDecoder(&wire).Decode(&loaded); err != nil {
		t.Fatal(err)
	}
	r := NewService()
	if err := r.Restore(&loaded); err != nil {
		t.Fatal(err)
	}
	if r.TotalWritten() != s.TotalWritten() || !reflect.DeepEqual(r.CompleteIDs(), s.CompleteIDs()) ||
		!reflect.DeepEqual(r.MissingMaps(3), s.MissingMaps(3)) {
		t.Fatalf("restored bookkeeping differs: written %d/%d complete %v/%v", r.TotalWritten(), s.TotalWritten(), r.CompleteIDs(), s.CompleteIDs())
	}
	for id, buckets := range map[int]int{1: 3, 2: 2} {
		for b := 0; b < buckets; b++ {
			want, wantBytes, err := s.Fetch(id, b)
			if err != nil {
				t.Fatal(err)
			}
			got, gotBytes, err := r.Fetch(id, b)
			if err != nil || gotBytes != wantBytes || !reflect.DeepEqual(got, want) {
				t.Errorf("shuffle %d bucket %d: row fetch %v (%d bytes, err %v), want %v (%d)", id, b, got, gotBytes, err, want, wantBytes)
			}
			wantB, _, _ := s.FetchBatch(id, b)
			gotB, _, err := r.FetchBatch(id, b)
			if err != nil || gotB.NonNil != wantB.NonNil || !reflect.DeepEqual(gotB.Records(), wantB.Records()) {
				t.Errorf("shuffle %d bucket %d: batch fetch %v, want %v (err %v)", id, b, gotB.Records(), wantB.Records(), err)
			}
		}
	}
	// The missing map output of shuffle 3 is re-run after a resume and
	// routes through the restored shuffle's router.
	if router, ok := r.Router(3); !ok || router.Parts() != 2 {
		t.Fatalf("restored shuffle 3 routes over %d buckets, want 2", router.Parts())
	}
}

// TestSnapshotAndRestoreReturnErrors: a bucket that cannot be encoded is
// an error from Snapshot naming the bucket, and a torn bucket an error
// from Restore that leaves the service as it was — neither is a panic.
func TestSnapshotAndRestoreReturnErrors(t *testing.T) {
	s := NewService()
	s.Ensure(4, 1, 1)
	if err := s.SetMapOutput(4, 0, 0, [][]dataflow.Record{{{Key: 1, Value: make(chan int)}}}, []int64{8}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err == nil || !strings.Contains(err.Error(), "shuffle 4 map output 0: bucket 0") {
		t.Fatalf("unencodable bucket: err = %v", err)
	}

	s = snapshotFixture(t)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := &snap.Outputs[0].Maps[0].Buckets[0]
	*b = (*b)[:len(*b)-3]
	before := s.SealEpoch()
	if err := s.Restore(snap); err == nil || !strings.Contains(err.Error(), "shuffle 1 map output 0 bucket 0") {
		t.Fatalf("torn bucket: err = %v", err)
	}
	if s.SealEpoch() != before || !s.Complete(1) {
		t.Fatal("a failed Restore changed the service")
	}
}
