package blaze_test

import (
	"testing"

	"blaze"
)

func runRealOrVirtual(t *testing.T, sys blaze.SystemID, wl blaze.WorkloadID, real bool) (*blaze.Result, *blaze.EventLog) {
	t.Helper()
	log := blaze.NewEventLog()
	res, err := blaze.Run(blaze.RunConfig{
		System:    sys,
		Workload:  wl,
		Executors: 4,
		Scale:     0.25,
		EventLog:  log,
		RealBytes: real,
	})
	if err != nil {
		t.Fatalf("%s/%s realBytes=%v: %v", sys, wl, real, err)
	}
	return res, log
}

// TestRealBytesBitIdentity is the storage tier's core guarantee: backing
// the stores with real serialized bytes and real block files changes
// only wall-clock time. For each system the RealBytes run must produce
// bit-identical virtual-time metrics AND an identical event log to the
// default (virtual) run — every admission, eviction, spill, promotion
// and recomputation decision must be unaffected by how blocks are held.
func TestRealBytesBitIdentity(t *testing.T) {
	systems := []blaze.SystemID{
		blaze.SysSparkMemDisk, blaze.SysSparkAlluxio, blaze.SysMRD, blaze.SysBlaze,
	}
	for _, sys := range systems {
		sys := sys
		t.Run(string(sys), func(t *testing.T) {
			virtRes, virtLog := runRealOrVirtual(t, sys, blaze.PR, false)
			realRes, realLog := runRealOrVirtual(t, sys, blaze.PR, true)
			assertIdentical(t, string(sys), virtRes, realRes, virtLog, realLog)
			if virtRes.Storage != nil {
				t.Error("virtual run must not report storage measurements")
			}
			if realRes.Storage == nil {
				t.Error("RealBytes run must report storage measurements")
			}
		})
	}
}

// TestRealBytesMeasuresWork forces memory pressure so the run spills,
// reloads and promotes through the real storage tier, and checks the
// measurements: real encoded bytes moved, real files written, wall-clock
// time observed, and the modeled virtual time recorded next to it.
func TestRealBytesMeasuresWork(t *testing.T) {
	res, err := blaze.Run(blaze.RunConfig{
		System:            blaze.SysSparkMemDisk,
		Workload:          blaze.PR,
		Executors:         4,
		Scale:             0.25,
		MemoryPerExecutor: 16 * 1024, // force spills
		RealBytes:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if written, _ := res.DiskFootprint(); written == 0 {
		t.Fatal("run did not spill; tighten MemoryPerExecutor")
	}
	st := res.Storage
	if st == nil {
		t.Fatal("no storage measurements")
	}
	if st.MemEncode.Ops == 0 || st.MemEncode.Bytes == 0 {
		t.Errorf("no memory-store encodes measured: %+v", st.MemEncode)
	}
	// Every memory hit is one real decode (under this tight capacity
	// most reads are disk reloads, so hits may be zero — the equality
	// still must hold).
	memHits, _, _ := res.CacheActivity()
	if st.MemDecode.Ops != memHits || st.DecodeCacheHits != 0 {
		t.Errorf("memory hits unaccounted: hits=%d decodes=%d cacheHits=%d",
			memHits, st.MemDecode.Ops, st.DecodeCacheHits)
	}
	if st.DiskWrite.Ops == 0 || st.DiskWrite.Bytes == 0 || st.DiskWrite.Wall <= 0 {
		t.Errorf("no disk writes measured: %+v", st.DiskWrite)
	}
	if st.DiskWrite.Modeled <= 0 {
		t.Errorf("disk writes have no modeled counterpart: %+v", st.DiskWrite)
	}
	if st.DiskRead.Ops == 0 || st.DiskRead.Modeled <= 0 {
		t.Errorf("no disk reads measured/modeled: %+v", st.DiskRead)
	}
	if st.FilesWritten == 0 || st.FileBytesPeak == 0 {
		t.Errorf("no block files written: files=%d peakBytes=%d", st.FilesWritten, st.FileBytesPeak)
	}
	// Measured and modeled time describe the same operations, so they
	// may differ by a host's device speeds but not by a unit: a band of
	// three decades either way catches ns-for-ms and per-op-for-per-byte
	// charging mistakes without depending on the machine.
	for _, c := range st.Categories() {
		if c.Stats.Wall <= 0 || c.Stats.Modeled <= 0 {
			continue
		}
		if r := c.Stats.Ratio(); r < 1e-3 || r > 1e3 {
			t.Errorf("%s: measured %v / modeled %v = %.2e over %d ops, outside [1e-3, 1e3]",
				c.Category, c.Stats.Wall, c.Stats.Modeled, r, c.Stats.Ops)
		}
	}
}

// TestRealBytesAlluxioDecodesEveryRead checks the AlluxioMode contract
// in real bytes: every memory hit pays a real deserialization, mirroring
// the per-read charge the cost model makes for the external tiered store.
func TestRealBytesAlluxioDecodesEveryRead(t *testing.T) {
	res, err := blaze.Run(blaze.RunConfig{
		System:    blaze.SysSparkAlluxio,
		Workload:  blaze.PR,
		Executors: 4,
		Scale:     0.25,
		RealBytes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Storage
	if st == nil {
		t.Fatal("no storage measurements")
	}
	if st.DecodeCacheHits != 0 {
		t.Errorf("no read may skip its decode, got %d", st.DecodeCacheHits)
	}
	memHits, _, _ := res.CacheActivity()
	if memHits == 0 {
		t.Fatal("run produced no memory hits; nothing was exercised")
	}
	if st.MemDecode.Ops < memHits {
		t.Errorf("every memory hit must decode: hits=%d decodes=%d", memHits, st.MemDecode.Ops)
	}
	if st.MemDecode.Modeled <= 0 || st.MemEncode.Modeled <= 0 {
		t.Errorf("AlluxioMode charges must be recorded as modeled: %+v / %+v", st.MemDecode, st.MemEncode)
	}
}
