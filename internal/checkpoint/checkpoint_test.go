package checkpoint_test

// Corruption-tolerance tests for the checkpoint store: damaged or
// truncated manifests, state files, block payloads and WALs must be
// rejected cleanly — fall back to the previous window, or report
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
	"strings"
	"sync"
	"testing"

	"blaze"
	"blaze/internal/checkpoint"
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
	corrupt("win_0002/state.gob")
	if _, _, err := checkpoint.Load(dir); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("all-corrupt load: err = %v, want ErrNoCheckpoint", err)
	}
}

// TestLoadSkipsVersion1Directory rewrites a checkpoint into the layout
// manifest version 1 described — gob block files named *.gob — with
// valid sizes and checksums, as a process upgraded across the format
// change would find it. Load must skip every such window on the version
// alone and report ErrNoCheckpoint (the caller recomputes from the
// sources); it must not hand gob bytes to the block decoder.
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
	sum := fnv.New64a()
	sum.Write(v1Block.Bytes())
	for _, win := range []string{"win_0002", "win_0003"} {
		mpath := filepath.Join(dir, win, "manifest.json")
		mdata, err := os.ReadFile(mpath)
		if err != nil {
			t.Fatal(err)
		}
		var m checkpoint.Manifest
		if err := json.Unmarshal(mdata, &m); err != nil {
			t.Fatal(err)
		}
		if m.Version != checkpoint.ManifestVersion || len(m.Blocks) == 0 {
			t.Fatalf("%s: version %d with %d blocks is no basis for this test", win, m.Version, len(m.Blocks))
		}
		m.Version = 1
		for i := range m.Blocks {
			b := &m.Blocks[i]
			if err := os.Remove(filepath.Join(dir, win, b.File)); err != nil {
				t.Fatal(err)
			}
			b.File = strings.TrimSuffix(b.File, ".blk") + ".gob"
			b.Bytes, b.Checksum = int64(v1Block.Len()), fmt.Sprintf("%016x", sum.Sum64())
			if err := os.WriteFile(filepath.Join(dir, win, b.File), v1Block.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if mdata, err = json.Marshal(&m); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mpath, mdata, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rs, _, err := checkpoint.Load(dir)
	if !errors.Is(err, checkpoint.ErrNoCheckpoint) || rs != nil {
		t.Fatalf("version-1 directory: state %v, err %v; want ErrNoCheckpoint", rs != nil, err)
	}
	if !strings.Contains(err.Error(), "manifest version 1") {
		t.Errorf("rejection does not name the version: %v", err)
	}
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

// FuzzCheckpointManifest mutates one file of a valid checkpoint tree —
// a flipped byte, a truncation, or garbage — and requires Load to
// either fall back to a still-valid snapshot or fail with a clean
// error. It must never panic and never return a half-loaded state.
func FuzzCheckpointManifest(f *testing.F) {
	src := sourceDir(f)
	files := payloadFiles(f, src)

	// Seeded corpus: every file flipped at the middle, truncated to
	// zero, and truncated to half.
	for i := range files {
		f.Add(i, 1, byte(0xff), -1)
		f.Add(i, 0, byte(0), 0)
		f.Add(i, 0, byte(0), 2)
	}

	f.Fuzz(func(t *testing.T, fileSel, off int, b byte, truncDiv int) {
		dir := cloneDir(t, src)
		if fileSel < 0 {
			fileSel = -fileSel
		}
		rel := files[fileSel%len(files)]
		path := filepath.Join(dir, rel)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if truncDiv >= 0 {
			// Truncate to a fraction of the original length.
			n := 0
			if truncDiv > 0 && len(data) > 0 {
				n = len(data) / (truncDiv + 1)
			}
			data = data[:n]
		} else if len(data) > 0 {
			if off < 0 {
				off = -off
			}
			data[off%len(data)] ^= b
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		rs, _, err := checkpoint.Load(dir)
		if err != nil {
			if rs != nil {
				t.Fatal("Load returned both a state and an error")
			}
			return // clean rejection: the caller recomputes from lineage
		}
		// A successful load must be a complete snapshot of some boundary
		// (the mutation either landed on a file of the newer window, was
		// a no-op flip, or hit the WAL past the manifest's prefix).
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
