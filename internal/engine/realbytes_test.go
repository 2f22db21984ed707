package engine

import (
	"os"
	"path/filepath"
	"testing"

	"blaze/internal/costmodel"
	"blaze/internal/dataflow"
	"blaze/internal/storage"
)

// TestAdmitDuplicateChargesNothing is the regression test for the
// AlluxioMode admission bug: admitToMemory used to charge the
// serialization cost before Mem.Put could still fail on a duplicate
// block, leaving the clock advanced for an admission that never
// happened. A duplicate admit must be rejected with no clock movement
// and no cost accounting.
func TestAdmitDuplicateChargesNothing(t *testing.T) {
	c, _ := newTestCluster(t, NewSparkMemDisk(), 1<<20, true) // AlluxioMode
	ex := c.Executors()[0]
	id := storage.BlockID{Dataset: 1, Partition: 0}
	recs := []dataflow.Record{{Key: 1, Value: float64(1)}}

	if !c.admitToMemory(ex, id, storage.Fresh(recs), 256) {
		t.Fatal("first admit failed")
	}
	clock := ex.Clock().Now()
	if clock == 0 {
		t.Fatal("AlluxioMode admit must charge serialization")
	}
	diskIO := c.Metrics().Executors[ex.ID].Breakdown.DiskIO

	if c.admitToMemory(ex, id, storage.Fresh(recs), 256) {
		t.Fatal("duplicate admit must be rejected")
	}
	if got := ex.Clock().Now(); got != clock {
		t.Fatalf("duplicate admit advanced the clock: %v -> %v", clock, got)
	}
	if got := c.Metrics().Executors[ex.ID].Breakdown.DiskIO; got != diskIO {
		t.Fatalf("duplicate admit charged DiskIO: %v -> %v", diskIO, got)
	}
}

func newRealBytesCluster(t *testing.T, memPerExec int64) (*Cluster, *dataflow.Context) {
	t.Helper()
	ctx := dataflow.NewContext()
	c, err := NewCluster(Config{
		Executors:         4,
		MemoryPerExecutor: memPerExec,
		Params:            costmodel.Default(),
		Controller:        NewSparkMemDisk(),
		RealBytes:         true,
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, ctx
}

// TestRealBytesResultsMatchReference runs the iterative workload under
// heavy eviction with real-bytes stores: every cached read decodes from
// a serialized buffer and every disk reload decodes from a block file,
// so a correct result proves the real storage round trip is lossless.
func TestRealBytesResultsMatchReference(t *testing.T) {
	storage.RegisterValueType(float64(0))
	refCtx := dataflow.NewContext()
	dataflow.NewLocalRunner(refCtx)
	want := iterativeWorkload(refCtx, 4, 6, 50, true)

	c, ctx := newRealBytesCluster(t, 4*1024) // tiny memory → heavy spilling
	got := iterativeWorkload(ctx, 4, 6, 50, true)
	if got != want {
		t.Errorf("real-bytes result %v != reference %v", got, want)
	}
	m := c.Finish()
	if m.DiskBytesWritten == 0 {
		t.Fatal("workload did not spill; shrink the memory store")
	}
}

// TestRealBytesSpillWritesFiles checks that in real-bytes mode spilled
// blocks exist as actual files on disk, one per block, named after the
// BlockID under the executor's run-scoped directory — and that Close
// removes the whole directory.
func TestRealBytesSpillWritesFiles(t *testing.T) {
	storage.RegisterValueType(float64(0))
	c, ctx := newRealBytesCluster(t, 4*1024)
	// A cached dataset larger than the memory stores, never unpersisted,
	// so its spilled blocks are still on disk when the run finishes.
	ds := ctx.Source("big", 8, func(part int) []dataflow.Record {
		out := make([]dataflow.Record, 100)
		for i := range out {
			out[i] = dataflow.Record{Key: int64(part*100 + i), Value: float64(i)}
		}
		return out
	}).Map("wide", func(r dataflow.Record) dataflow.Record { return r })
	ds.Cache()
	ds.Count()
	ds.Count()
	c.Finish()

	if c.pool.dir == "" {
		t.Fatal("real-bytes cluster has no storage dir")
	}
	blocks, files := 0, 0
	for _, ex := range c.Executors() {
		if filepath.Dir(ex.Disk.Dir()) != c.pool.dir {
			t.Fatalf("disk store dir %q is not under the pool's %q", ex.Disk.Dir(), c.pool.dir)
		}
		for _, id := range ex.Disk.Blocks() {
			blocks++
			path := filepath.Join(ex.Disk.Dir(), id.String()+".blk")
			info, err := os.Stat(path)
			if err != nil {
				t.Fatalf("spilled block %v has no file: %v", id, err)
			}
			if info.Size() == 0 {
				t.Fatalf("block file %s is empty", path)
			}
			files++
		}
	}
	if blocks == 0 {
		t.Fatal("no blocks on disk; shrink the memory store")
	}
	snap := c.Meter().Snapshot()
	if snap.FilesWritten < files {
		t.Fatalf("meter saw %d files written, at least %d exist", snap.FilesWritten, files)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Dir(c.Executors()[0].Disk.Dir())); !os.IsNotExist(err) {
		t.Fatalf("Close left the storage dir behind: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close must be idempotent: %v", err)
	}
}

// TestRealBytesPromoteRoundTrip drives the d→m promotion path directly:
// the encoded file contents move into the memory store without decoding,
// and a subsequent read decodes them correctly.
func TestRealBytesPromoteRoundTrip(t *testing.T) {
	storage.RegisterValueType(float64(0))
	c, _ := newRealBytesCluster(t, 1<<20)
	ex := c.Executors()[0]
	id := storage.BlockID{Dataset: 3, Partition: 1}
	recs := []dataflow.Record{{Key: 7, Value: 1.5}, {Key: 9, Value: 2.5}}

	if err := ex.Disk.Put(id, storage.Fresh(recs), 128); err != nil {
		t.Fatal(err)
	}
	if !c.PromoteBlock(ex, id, true) {
		t.Fatal("promote failed")
	}
	if !ex.Mem.Contains(id) {
		t.Fatal("block not in memory after promote")
	}
	if snap := c.Meter().Snapshot(); snap.MemDecode.Ops != 0 || snap.MemEncode.Ops != 0 {
		t.Fatalf("promotion must move the file's bytes up as they are: %d decodes, %d encodes", snap.MemDecode.Ops, snap.MemEncode.Ops)
	}
	got, _, ok := ex.Mem.Get(id, 0)
	if !ok || len(got) != 2 || got[0].Value.(float64) != 1.5 || got[1].Value.(float64) != 2.5 {
		t.Fatalf("promoted block decoded wrong: %+v ok=%v", got, ok)
	}
	snap := c.Meter().Snapshot()
	if snap.DiskRead.Ops == 0 || snap.DiskRead.Modeled <= 0 {
		t.Fatalf("promotion not measured as a disk read: %+v", snap.DiskRead)
	}
}

// TestAlluxioReadsPastDecodeCache re-reads the same memory-resident
// blocks on a real-bytes pool. With AlluxioMode or without, every memory
// hit pays one real decode (there is no decode cache to serve a re-read),
// and a read hands the reader its own decode instead of a copy of one the
// store keeps. AlluxioMode changes only the modeled charge.
func TestAlluxioReadsPastDecodeCache(t *testing.T) {
	storage.RegisterValueType(float64(0))
	for _, alluxio := range []bool{false, true} {
		ctx := dataflow.NewContext()
		c, err := NewCluster(Config{
			Executors:         2,
			MemoryPerExecutor: 1 << 20,
			Params:            costmodel.Default(),
			Controller:        NewSparkMemDisk(),
			RealBytes:         true,
			AlluxioMode:       alluxio,
		}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ds := ctx.Source("src", 4, func(part int) []dataflow.Record {
			return []dataflow.Record{{Key: int64(part), Value: float64(part)}}
		})
		ds.Cache()
		for i := 0; i < 3; i++ {
			ds.Count()
		}
		hits := c.Finish().CacheHits
		snap := c.Meter().Snapshot()
		if hits != 8 {
			t.Fatalf("alluxio=%v: %d memory hits, want 8 (4 blocks re-read twice)", alluxio, hits)
		}
		if snap.MemDecode.Ops != hits || snap.DecodeCacheHits != 0 {
			t.Errorf("alluxio=%v: every memory hit must decode: %d hits, %d decodes, %d served without one",
				alluxio, hits, snap.MemDecode.Ops, snap.DecodeCacheHits)
		}
		if modeled := snap.MemDecode.Modeled > 0; modeled != alluxio {
			t.Errorf("alluxio=%v: modeled memory-decode charge %v", alluxio, snap.MemDecode.Modeled)
		}
		read := 0
		for _, ex := range c.Executors() {
			for _, meta := range ex.Mem.Blocks() {
				p, _, _ := ex.Mem.Read(meta.ID, ex.Clock().Now())
				// A handed-over decode is the same batch however often it
				// is asked for; a copy would be a new one each time.
				if b := p.Batch(); b != p.Batch() {
					t.Errorf("alluxio=%v: a memory read of %v copied its decode", alluxio, meta.ID)
				}
				read++
			}
		}
		if read != 4 {
			t.Fatalf("alluxio=%v: %d blocks resident after the run, want 4", alluxio, read)
		}
	}
}
