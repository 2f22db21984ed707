package shuffle

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"strings"
	"testing"
	_ "unsafe" // go:linkname

	"blaze/internal/dataflow"
)

// poisonReleased is internal/dataflow's test-only switch: every array
// released to the slice pools is overwritten with a sentinel.
//
//go:linkname poisonReleased blaze/internal/dataflow.poisonReleased
var poisonReleased bool

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
	if s.totalWritten != 175 {
		t.Fatalf("total written = %d, want 175", s.totalWritten)
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
	snap := s.Snapshot()
	if _, err := snap.Encode(nil); err != nil {
		t.Fatal(err)
	}
	snap.Release()
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
	snap := s.Snapshot()
	if _, err := snap.Encode(nil); err != nil {
		t.Fatal(err)
	}
	snap.Release()
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
	if r.totalWritten != s.totalWritten || !reflect.DeepEqual(r.CompleteIDs(), s.CompleteIDs()) ||
		!reflect.DeepEqual(r.MissingMaps(3), s.MissingMaps(3)) {
		t.Fatalf("restored bookkeeping differs: written %d/%d complete %v/%v", r.totalWritten, s.totalWritten, r.CompleteIDs(), s.CompleteIDs())
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
// an error from the snapshot's Encode naming the bucket, and a torn bucket an error
// from Restore that leaves the service as it was — neither is a panic.
func TestSnapshotAndRestoreReturnErrors(t *testing.T) {
	s := NewService()
	s.Ensure(4, 1, 1)
	if err := s.SetMapOutput(4, 0, 0, [][]dataflow.Record{{{Key: 1, Value: make(chan int)}}}, []int64{8}); err != nil {
		t.Fatal(err)
	}
	bad := s.Snapshot()
	_, err := bad.Encode(nil)
	bad.Release()
	if err == nil || !strings.Contains(err.Error(), "shuffle 4 map output 0: bucket 0") {
		t.Fatalf("unencodable bucket: err = %v", err)
	}

	s = snapshotFixture(t)
	snap := s.Snapshot()
	if _, err := snap.Encode(nil); err != nil {
		t.Fatal(err)
	}
	snap.Release()
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

// TestRetainedBatchesReleasedWhenOutputLeaves: the service owns the
// batches a map task hands it. They stay intact while fetches copy out of
// them, and go back to the pool when their output is lost or the shuffle
// cleaned — a broadcast output, one batch it owns in every bucket, once.
func TestRetainedBatchesReleasedWhenOutputLeaves(t *testing.T) {
	s := NewService()
	s.Ensure(1, 2, 3)
	routed := []*dataflow.Batch{dataflow.FromRecords(recs(2, 4)), dataflow.FromRecords(recs(1))}
	lost := []*dataflow.Batch{dataflow.FromRecords(recs(6)), nil}
	bcast := dataflow.FromRecords(recs(7, 8))
	for m, bs := range [][]*dataflow.Batch{routed, lost} {
		if err := s.SetMapOutputBatch(1, m, m, bs, []int64{1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	bs := []*dataflow.Batch{bcast, bcast}
	if err := s.SetMapOutputViews(1, 2, 2, bs, bs[:1], []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	s.MarkComplete(1)
	got, _, err := s.FetchBatch(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := recs(2, 4, 6, 7, 8); !reflect.DeepEqual(got.Records(), want) {
		t.Fatalf("bucket 0 = %v, want %v", got.Records(), want)
	}
	got.Release() // the fetched batch is the caller's copy
	if routed[0].Len() != 2 || bcast.Len() != 2 {
		t.Fatal("a fetch released a retained batch")
	}
	if _, ok := s.LoseBucket(1, 1, 0); !ok || lost[0].Len() != 0 {
		t.Fatal("a lost map output's batches were not released")
	}
	if routed[0].Len() != 2 {
		t.Fatal("losing one map output released another's batches")
	}
	s.Clean(1)
	if routed[0].Len()+routed[1].Len()+bcast.Len() != 0 {
		t.Fatal("Clean left retained batches unreleased")
	}
}

// splitOutput is one map task's float64 output over the given keys,
// split by the shuffle's router the way the engine writes it: buckets
// that are views on one container, owned by the container alone. exact
// holds the same buckets as separate batches of exactly their size, the
// form every bucket had before splits wrote containers.
func splitOutput(keys []int64, buckets int) (views, owned, exact []*dataflow.Batch, sizes []int64) {
	in := dataflow.NewBatch(len(keys))
	col := dataflow.NewDense[float64](len(keys))
	in.Col = col
	for i, k := range keys {
		in.Keys = append(in.Keys, k)
		col.Vals = append(col.Vals, float64(i)/3)
	}
	views, owned = dataflow.NewRouter(buckets).Split(in)
	in.Release()
	exact = make([]*dataflow.Batch, buckets)
	sizes = make([]int64, buckets)
	for b, v := range views {
		if v != nil {
			exact[b], sizes[b] = v.CloneExact(), v.EstimateSize()
		}
	}
	return views, owned, exact, sizes
}

// outputKeys is map output m's keys in a shuffle: n keys, some repeated.
func outputKeys(m, n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64((i*37 + m*11) % (n - 5))
	}
	return keys
}

// TestSplitOutputSnapshotsLikeExactBuckets pins checkpoint compatibility:
// a map output whose buckets are views on one container snapshots to
// exactly the bytes the same buckets held as separate exact batches do,
// and either snapshot restores to a service whose every fetch equals the
// live services'.
func TestSplitOutputSnapshotsLikeExactBuckets(t *testing.T) {
	const buckets, maps = 8, 3
	split, exact := NewService(), NewService()
	for _, s := range []*Service{split, exact} {
		s.Ensure(1, buckets, maps)
	}
	for m := 0; m < maps; m++ {
		views, owned, copies, sizes := splitOutput(outputKeys(m, 60+m), buckets)
		if err := split.SetMapOutputViews(1, m, m, views, owned, sizes); err != nil {
			t.Fatal(err)
		}
		if err := exact.SetMapOutputBatch(1, m, m, copies, sizes); err != nil {
			t.Fatal(err)
		}
	}
	var wires [2][]byte
	services := []*Service{split, exact}
	for i, s := range services {
		s.MarkComplete(1)
		snap := s.Snapshot()
		if _, err := snap.Encode(nil); err != nil {
			t.Fatal(err)
		}
		snap.Release()
		var wire bytes.Buffer
		if err := gob.NewEncoder(&wire).Encode(snap); err != nil {
			t.Fatal(err)
		}
		wires[i] = wire.Bytes()
		r := NewService()
		if err := r.Restore(snap); err != nil {
			t.Fatal(err)
		}
		services = append(services, r)
	}
	if !bytes.Equal(wires[0], wires[1]) {
		t.Fatal("a container-backed map output snapshots to other bytes than its buckets held as exact batches")
	}
	for b := 0; b < buckets; b++ {
		want, wantBytes, err := exact.FetchBatch(1, b)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range services {
			got, gotBytes, err := s.FetchBatch(1, b)
			if err != nil || gotBytes != wantBytes || got.NonNil != want.NonNil || !reflect.DeepEqual(got.Records(), want.Records()) {
				t.Fatalf("service %d bucket %d: fetch %v (%d bytes, err %v), want %v (%d bytes)",
					i, b, got.Records(), gotBytes, err, want.Records(), wantBytes)
			}
			got.Release()
		}
		want.Release()
	}
}

// TestLostSplitOutputReleasesItsContainer: losing one bucket of a
// container-backed map output, or its executor, releases that output's
// container, which every one of its views then reads as the poison
// sentinel, and touches no other map output.
func TestLostSplitOutputReleasesItsContainer(t *testing.T) {
	poisonReleased = true
	defer func() { poisonReleased = false }()
	const buckets, maps = 8, 4
	s := NewService()
	s.Ensure(1, buckets, maps)
	views := make([][]*dataflow.Batch, maps)
	owners := make([]*dataflow.Batch, maps)
	want := make([][]*dataflow.Batch, maps)
	for m := range views {
		var owned []*dataflow.Batch
		var sizes []int64
		views[m], owned, want[m], sizes = splitOutput(outputKeys(m, 40), buckets)
		owners[m] = owned[0]
		if err := s.SetMapOutputViews(1, m, m%2, views[m], owned, sizes); err != nil {
			t.Fatal(err)
		}
	}
	s.MarkComplete(1)
	check := func(step string, lost ...int) {
		t.Helper()
		for m := range views {
			released := false
			for _, l := range lost {
				released = released || l == m
			}
			if (owners[m].Keys == nil) != released {
				t.Fatalf("%s: map output %d's container released %v, want %v", step, m, !released, released)
			}
			for b, v := range views[m] {
				if v == nil {
					continue
				}
				if !released && !reflect.DeepEqual(v.Records(), want[m][b].Records()) {
					t.Fatalf("%s: map output %d bucket %d reads %v, want %v", step, m, b, v.Records(), want[m][b].Records())
				}
				for i, k := range v.Keys {
					val := v.Col.(*dataflow.Dense[float64]).Vals[i]
					if released && (k != math.MinInt64 || !math.IsNaN(val)) {
						t.Fatalf("%s: map output %d bucket %d record %d reads (%d, %v) after its container's release", step, m, b, i, k, val)
					}
				}
			}
		}
	}
	lostBucket := -1
	for b, v := range views[0] {
		if v != nil {
			lostBucket = b
			break
		}
	}
	if _, ok := s.LoseBucket(1, 0, lostBucket); !ok {
		t.Fatal("LoseBucket found no bucket to lose")
	}
	check("LoseBucket", 0)
	if lost := s.LoseExecutorOutputs(1); len(lost) != 2 {
		t.Fatalf("executor 1 lost %v, want map outputs 1 and 3", lost)
	}
	check("LoseExecutorOutputs", 0, 1, 3)
	s.Clean(1)
	check("Clean", 0, 1, 2, 3)
}
