package blaze_test

import (
	"testing"

	"blaze"
)

// TestRealBytesMeasuresWork forces memory pressure so the run spills,
// reloads and promotes through the real storage tier, and checks the
// measurements: real encoded bytes moved, real files written, wall-clock
// time observed, and the modeled virtual time recorded next to it.
func TestRealBytesMeasuresWork(t *testing.T) {
	cfg := quarter(blaze.SysSparkMemDisk, blaze.PR)
	cfg.MemoryPerExecutor = 16 * 1024 // force spills
	res := batchCell(cfg).run(t, arm{par: 1, kernels: true, real: true}).res
	if res.Metrics.DiskBytesWritten == 0 {
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
	memHits := res.Metrics.CacheHits
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
		if r := float64(c.Stats.Wall) / float64(c.Stats.Modeled); r < 1e-3 || r > 1e3 {
			t.Errorf("category %d: measured %v / modeled %v = %.2e over %d ops, outside [1e-3, 1e3]",
				c.Category, c.Stats.Wall, c.Stats.Modeled, r, c.Stats.Ops)
		}
	}
}

// TestRealBytesAlluxioDecodesEveryRead checks the AlluxioMode contract
// in real bytes: every memory hit pays a real deserialization, mirroring
// the per-read charge the cost model makes for the external tiered store.
func TestRealBytesAlluxioDecodesEveryRead(t *testing.T) {
	res := batchCell(quarter(blaze.SysSparkAlluxio, blaze.PR)).run(t, arm{par: 8, kernels: true, real: true}).res
	st := res.Storage
	if st == nil {
		t.Fatal("no storage measurements")
	}
	if st.DecodeCacheHits != 0 {
		t.Errorf("no read may skip its decode, got %d", st.DecodeCacheHits)
	}
	memHits := res.Metrics.CacheHits
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
