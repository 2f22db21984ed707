package checkpoint_test

// Corruption-tolerance tests for the checkpoint store: damaged,
// truncated or extended manifests, segments and WALs, and manifests whose
// entries no longer tile their segment, must be rejected cleanly — fall back to the previous window, or report
// ErrNoCheckpoint so the caller recomputes from scratch — and never
// panic. The test checkpoints are produced by a real durable streaming
// run through the facade, so the on-disk layout is exactly what
// production writes.

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"blaze"
	"blaze/internal/checkpoint"
	"blaze/internal/dataflow"
	"blaze/internal/engine"
	"blaze/internal/storage"
)

var (
	genOnce sync.Once
	genDir  string
	genErr  error
)

// sourceDir runs one small durable stream (no crash) and returns its
// checkpoint directory, holding the WAL plus the win_2 and win_3
// snapshots. Generated once per test process.
func sourceDir(t testing.TB) string {
	genOnce.Do(func() {
		genDir, genErr = os.MkdirTemp("", "blaze-ckpt-*")
		if genErr != nil {
			return
		}
		_, genErr = blaze.RunStream(blaze.StreamConfig{
			Workload:          blaze.StreamKMeans,
			Windows:           3,
			Scale:             0.25,
			Executors:         2,
			Parallelism:       1,
			MemoryPerExecutor: 1 << 20,
			EventLog:          blaze.NewEventLog(),
			CheckpointDir:     genDir,
		})
	})
	if genErr != nil {
		t.Fatalf("generate checkpoint: %v", genErr)
	}
	return genDir
}

// cloneDir copies the generated checkpoint tree into a fresh temp dir
// the test may corrupt freely.
func cloneDir(t testing.TB, src string) string {
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("clone checkpoint dir: %v", err)
	}
	return dst
}

// payloadFiles lists every file of the checkpoint tree relative to dir,
// sorted (Walk order is deterministic).
func payloadFiles(t testing.TB, dir string) []string {
	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			rel, _ := filepath.Rel(dir, path)
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("generated checkpoint holds no files")
	}
	return files
}

func TestLoadIntactCheckpoint(t *testing.T) {
	rs, client, err := checkpoint.Load(sourceDir(t))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Window != 3 {
		t.Errorf("loaded window %d, want newest boundary 3", rs.Window)
	}
	if len(client) == 0 {
		t.Error("no client payload loaded")
	}
	if len(rs.Events) == 0 {
		t.Error("no events replayed from the WAL")
	}
}

// TestLoadFallsBackToPreviousWindow corrupts the newest manifest and
// expects Load to serve the previous boundary instead; corrupting both
// leaves nothing usable and must report ErrNoCheckpoint.
func TestLoadFallsBackToPreviousWindow(t *testing.T) {
	dir := cloneDir(t, sourceDir(t))
	corrupt := func(rel string) {
		path := filepath.Join(dir, rel)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corrupt("win_0003/manifest.json")
	rs, _, err := checkpoint.Load(dir)
	if err != nil {
		t.Fatalf("fallback load: %v", err)
	}
	if rs.Window != 2 {
		t.Errorf("fallback loaded window %d, want 2", rs.Window)
	}
	corrupt("win_0002/segment")
	if _, _, err := checkpoint.Load(dir); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("all-corrupt load: err = %v, want ErrNoCheckpoint", err)
	}
}

// writeLegacyWindows replaces every window directory of a cloned
// checkpoint with one in the per-block-file layout manifest versions 1
// and 2 described — a block file per block (ext names the era: .gob or
// .blk), state.gob, a manifest naming each file with its size and FNV-64a
// checksum — all valid, as a process upgraded across the format change
// would find it.
func writeLegacyWindows(t *testing.T, dir string, version int, ext string, block []byte) {
	type fileEntry struct {
		File     string `json:"file"`
		Bytes    int64  `json:"bytes"`
		Checksum string `json:"checksum"`
	}
	type manifest struct {
		Version    int         `json:"version"`
		Window     int         `json:"window"`
		EventCount int         `json:"event_count"`
		State      fileEntry   `json:"state"`
		Blocks     []fileEntry `json:"blocks"`
	}
	for _, window := range []int{2, 3} {
		wd := filepath.Join(dir, fmt.Sprintf("win_%04d", window))
		if err := os.RemoveAll(wd); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(wd, 0o755); err != nil {
			t.Fatal(err)
		}
		write := func(name string, data []byte) fileEntry {
			if err := os.WriteFile(filepath.Join(wd, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
			sum := fnv.New64a()
			sum.Write(data)
			return fileEntry{File: name, Bytes: int64(len(data)), Checksum: fmt.Sprintf("%016x", sum.Sum64())}
		}
		var state bytes.Buffer
		if err := gob.NewEncoder(&state).Encode(&engine.ResumeState{Window: window,
			MemBlocks: []engine.ResumeBlock{{Meta: storage.BlockMeta{ID: storage.BlockID{Dataset: 1}}}}}); err != nil {
			t.Fatal(err)
		}
		m := manifest{Version: version, Window: window, EventCount: 1,
			State:  write("state.gob", state.Bytes()),
			Blocks: []fileEntry{write("mem_0000"+ext, block)}}
		mdata, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		write("manifest.json", mdata)
	}
}

// loadRejectsVersion requires Load to skip every window of dir on the
// manifest version alone and report ErrNoCheckpoint (the caller
// recomputes from the sources).
func loadRejectsVersion(t *testing.T, dir string, version int) {
	rs, _, err := checkpoint.Load(dir)
	if !errors.Is(err, checkpoint.ErrNoCheckpoint) || rs != nil {
		t.Fatalf("version-%d directory: state %v, err %v; want ErrNoCheckpoint", version, rs != nil, err)
	}
	if want := fmt.Sprintf("manifest version %d", version); !strings.Contains(err.Error(), want) {
		t.Errorf("rejection does not name the version: %v", err)
	}
}

// TestLoadSkipsVersion1Directory: a version-1 directory held gob block
// files named *.gob. Load must not hand gob bytes to the block decoder.
func TestLoadSkipsVersion1Directory(t *testing.T) {
	dir := cloneDir(t, sourceDir(t))
	type v1Record struct {
		Key   int64
		Value any
	}
	type v1Partition struct {
		NonNil bool
		Recs   []v1Record
	}
	var v1Block bytes.Buffer
	if err := gob.NewEncoder(&v1Block).Encode(v1Partition{NonNil: true, Recs: []v1Record{{Key: 1, Value: 2.5}}}); err != nil {
		t.Fatal(err)
	}
	writeLegacyWindows(t, dir, 1, ".gob", v1Block.Bytes())
	loadRejectsVersion(t, dir, 1)
}

// TestLoadSkipsVersion2Directory: a version-2 directory held one encoded
// block per *.blk file — bytes the present decoder would accept — beside
// a state.gob. Load must not go looking for a segment there.
func TestLoadSkipsVersion2Directory(t *testing.T) {
	dir := cloneDir(t, sourceDir(t))
	block, err := storage.EncodeRecords([]dataflow.Record{{Key: 1, Value: 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	writeLegacyWindows(t, dir, 2, ".blk", block)
	loadRejectsVersion(t, dir, 2)
}

// TestLoadMissingDir treats an absent or empty directory as no
// checkpoint, not an error class of its own.
func TestLoadMissingDir(t *testing.T) {
	if _, _, err := checkpoint.Load(filepath.Join(t.TempDir(), "nope")); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("missing dir: err = %v, want ErrNoCheckpoint", err)
	}
	if _, _, err := checkpoint.Load(t.TempDir()); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("empty dir: err = %v, want ErrNoCheckpoint", err)
	}
}

// manifestEntries lists a manifest's entries in segment order.
func manifestEntries(m *checkpoint.Manifest) []*checkpoint.Entry {
	var out []*checkpoint.Entry
	for i := range m.Blocks {
		out = append(out, &m.Blocks[i])
	}
	out = append(out, &m.Shuffle)
	if m.Controller != nil {
		out = append(out, m.Controller)
	}
	out = append(out, &m.State)
	if m.Client != nil {
		out = append(out, m.Client)
	}
	return out
}

// The mutations FuzzCheckpointManifest applies, selected by mode.
const (
	fuzzFlip     = iota // XOR byte off of the file with b
	fuzzTruncate        // cut the file to off bytes
	fuzzExtend          // append off%4096+1 bytes of b
	fuzzOffset          // add delta to the offset of entry off of the file's window
	fuzzBytes           // add delta to the length of that entry
	fuzzModes
)

// FuzzCheckpointManifest mutates one file of a valid checkpoint tree —
// a flipped byte, a truncation, trailing bytes — or one entry of a
// manifest, so that the entries overlap, leave a gap, point outside the
// segment or claim far more bytes than it holds, and requires Load to
// either fall back to a still-valid snapshot or report ErrNoCheckpoint.
// It must never panic, never return a half-loaded state, and never
// allocate from a length it has not checked against the bytes on disk.
func FuzzCheckpointManifest(f *testing.F) {
	src := sourceDir(f)
	files := payloadFiles(f, src)
	// manifestOf names the manifest an entry mutation aimed at a file
	// lands on: its window's (the WAL has none: the newest).
	manifestOf := func(rel string) string {
		if wd := filepath.Dir(rel); wd != "." {
			return filepath.Join(wd, "manifest.json")
		}
		return "win_0003/manifest.json"
	}

	// Seeded corpus, per file: a byte flipped at every eighth of it, cuts
	// at every quarter and one byte short, one and many trailing bytes;
	// and, in its manifest, the first, second, middle, second-to-last and
	// last entry moved or resized by a byte (overlap, gap) and by 1 TiB
	// (out of range, far more bytes than the segment holds).
	var treeBytes int64
	for i, rel := range files {
		fi, err := os.Stat(filepath.Join(src, rel))
		if err != nil {
			f.Fatal(err)
		}
		n := int(fi.Size())
		treeBytes += fi.Size()
		for k := 0; k < 8; k++ {
			f.Add(i, fuzzFlip, n*k/8, byte(0xff), int64(0))
		}
		for _, cut := range []int{0, n / 4, n / 2, 3 * n / 4, n - 1} {
			f.Add(i, fuzzTruncate, cut, byte(0), int64(0))
		}
		f.Add(i, fuzzExtend, 0, byte(0), int64(0))
		f.Add(i, fuzzExtend, 4095, byte(0xa5), int64(0))

		mdata, err := os.ReadFile(filepath.Join(src, manifestOf(rel)))
		if err != nil {
			f.Fatal(err)
		}
		var m checkpoint.Manifest
		if err := json.Unmarshal(mdata, &m); err != nil {
			f.Fatal(err)
		}
		last := len(manifestEntries(&m)) - 1
		for _, entry := range []int{0, 1, last / 2, last - 1, last} {
			for _, delta := range []int64{-1, 1, 1 << 40, -(1 << 40)} {
				f.Add(i, fuzzOffset, entry, byte(0), delta)
				f.Add(i, fuzzBytes, entry, byte(0), delta)
			}
		}
	}

	f.Fuzz(func(t *testing.T, fileSel, mode, off int, b byte, delta int64) {
		dir := cloneDir(t, src)
		abs := func(v int) int {
			if v < 0 {
				v = -v
			}
			if v < 0 { // math.MinInt
				v = 0
			}
			return v
		}
		rel := files[abs(fileSel)%len(files)]
		mode, off = abs(mode)%fuzzModes, abs(off)
		if mode >= fuzzOffset {
			rel = manifestOf(rel)
		}
		path := filepath.Join(dir, rel)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch mode {
		case fuzzFlip:
			if len(data) > 0 {
				data[off%len(data)] ^= b
			}
		case fuzzTruncate:
			data = data[:off%(len(data)+1)]
		case fuzzExtend:
			data = append(data, bytes.Repeat([]byte{b}, off%4096+1)...)
		default:
			var m checkpoint.Manifest
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			entries := manifestEntries(&m)
			e := entries[off%len(entries)]
			if mode == fuzzOffset {
				e.Offset += delta
			} else {
				e.Bytes += delta
			}
			if data, err = json.Marshal(&m); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rs, _, err := checkpoint.Load(dir)
		runtime.ReadMemStats(&after)
		// Loading the intact tree allocates about 3x its size (decoded
		// records, replayed events, gob's scratch), a fallback load twice
		// that; a length taken on the manifest's word would cost 1 TiB.
		if got, limit := int64(after.TotalAlloc-before.TotalAlloc), 16*treeBytes+(1<<20); got > limit {
			t.Fatalf("Load allocated %d bytes over a %d-byte tree (limit %d)", got, treeBytes, limit)
		}
		if err != nil {
			if rs != nil {
				t.Fatal("Load returned both a state and an error")
			}
			if !errors.Is(err, checkpoint.ErrNoCheckpoint) {
				t.Fatalf("rejection is not ErrNoCheckpoint: %v", err)
			}
			return // clean rejection: the caller recomputes from lineage
		}
		// A successful load must be a complete snapshot of some boundary
		// (the mutation either landed on a file of the newer window, was
		// a no-op, or hit the WAL past the manifest's prefix).
		if rs.Window < 2 || rs.Window > 3 {
			t.Fatalf("loaded impossible window %d", rs.Window)
		}
		if rs.Metrics == nil || rs.Shuffle == nil {
			t.Fatal("loaded state is missing metrics or shuffle snapshot")
		}
		if len(rs.Events) == 0 {
			t.Fatal("loaded state has no events")
		}
	})
}
