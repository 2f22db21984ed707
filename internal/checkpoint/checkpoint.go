// Package checkpoint persists streaming-session recovery state to a
// run-scoped durable directory and loads it back after a crash.
//
// Layout under the checkpoint directory:
//
//	events.wal          append-only JSON-lines event log (the WAL the
//	                    session facade maintains; see internal/eventlog)
//	win_0004/           one directory per checkpointed window boundary
//	  manifest.json     window, event count, per-file checksums — the
//	                    commit record, written (tmp+rename) LAST
//	  state.gob         engine.ResumeState minus block records/events;
//	                    its shuffle snapshot carries each bucket as an
//	                    encoded block
//	  client.gob        opaque driver-side payload (window stats)
//	  mem_0000.blk …    one encoded block (storage.EncodeRecords: typed
//	                    columnar, or marked gob fallback) per memory block
//	  disk_0000.blk …   one per disk block
//
// A checkpoint is valid only once its manifest exists and every
// checksum it lists matches; a crash mid-write leaves a directory
// without a manifest (or with dangling files) that Load skips. Load
// takes the newest valid window and falls back to the previous one on
// any corruption; only when no window is usable does it return
// ErrNoCheckpoint, and the caller re-runs from scratch (lineage
// recomputation from the sources). Old windows are pruned at write so
// at most two boundary snapshots exist at a time.
//
// Durability is against a process crash, not power loss: Write never
// syncs a file, the directory or the WAL, so a committed checkpoint
// survives kill -9 of the process (the kernel holds the pages) but a
// power cut can leave a manifest naming blocks that never reached the
// disk. Adding the syncs is the ROADMAP item "Make the durable-stream
// commit path durable, then cheap".
package checkpoint

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"

	"blaze/internal/engine"
	"blaze/internal/eventlog"
	"blaze/internal/storage"
)

// ManifestVersion is the manifest schema version; manifests with a
// different version are rejected (treated as corrupt). Version 1 held
// gob block files and row-form shuffle buckets in state.gob.
const ManifestVersion = 2

// ErrNoCheckpoint reports that the checkpoint directory holds no usable
// window snapshot; the caller must recover by recomputation instead.
var ErrNoCheckpoint = errors.New("checkpoint: no usable checkpoint")

// walName is the event WAL file inside the checkpoint directory.
const walName = "events.wal"

// FileEntry names one payload file of a window snapshot with its
// integrity data.
type FileEntry struct {
	File     string `json:"file"`
	Bytes    int64  `json:"bytes"`
	Checksum string `json:"checksum"`
}

// Manifest is the commit record of one window snapshot. It is written
// after every payload file, atomically (tmp+rename), so its presence
// certifies a complete write.
type Manifest struct {
	Version int `json:"version"`
	// Window is the boundary the snapshot was taken at: windows
	// 1..Window-1 complete, boundary-Window re-solve applied.
	Window int `json:"window"`
	// EventCount is the length of the main event log at the boundary;
	// resume replays exactly this prefix of the WAL.
	EventCount int         `json:"event_count"`
	State      FileEntry   `json:"state"`
	Client     *FileEntry  `json:"client,omitempty"`
	Blocks     []FileEntry `json:"blocks"`
	// Summary is an optional human-readable digest of the controller
	// state (see core.StateSummary) for operators inspecting a
	// checkpoint by hand; resume ignores it.
	Summary any `json:"summary,omitempty"`
}

// WALPath returns the event WAL location inside a checkpoint directory.
func WALPath(dir string) string { return filepath.Join(dir, walName) }

func winDir(dir string, window int) string {
	return filepath.Join(dir, fmt.Sprintf("win_%04d", window))
}

func checksum(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// writeFile writes one payload file and returns its manifest entry.
func writeFile(dir, name string, data []byte) (FileEntry, error) {
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		return FileEntry{}, err
	}
	return FileEntry{File: name, Bytes: int64(len(data)), Checksum: checksum(data)}, nil
}

// Write persists one window snapshot. The block records and the event
// slice are stripped out of the state gob — records go to per-block
// files through the storage codec, events are recovered from the WAL —
// and the manifest commits the whole snapshot last. Returns the number
// of block payloads and total bytes written.
func Write(dir string, rs *engine.ResumeState, clientState []byte, summary any) (blocks int, written int64, err error) {
	wd := winDir(dir, rs.Window)
	// A leftover directory from a crashed earlier attempt at the same
	// window cannot be valid (its manifest was never renamed in, or we
	// would not be writing again); start clean.
	if err := os.RemoveAll(wd); err != nil {
		return 0, 0, fmt.Errorf("checkpoint: clear %s: %w", wd, err)
	}
	if err := os.MkdirAll(wd, 0o755); err != nil {
		return 0, 0, fmt.Errorf("checkpoint: mkdir %s: %w", wd, err)
	}

	m := &Manifest{Version: ManifestVersion, Window: rs.Window, EventCount: len(rs.Events), Summary: summary}

	for i, b := range rs.MemBlocks {
		data, err := storage.EncodeRecords(b.Records)
		if err != nil {
			return 0, 0, fmt.Errorf("checkpoint: encode memory block %v: %w", b.Meta.ID, err)
		}
		e, err := writeFile(wd, fmt.Sprintf("mem_%04d.blk", i), data)
		if err != nil {
			return 0, 0, fmt.Errorf("checkpoint: write memory block %v: %w", b.Meta.ID, err)
		}
		m.Blocks = append(m.Blocks, e)
		written += e.Bytes
	}
	for i, b := range rs.DiskBlocks {
		data, err := storage.EncodeRecords(b.Records)
		if err != nil {
			return 0, 0, fmt.Errorf("checkpoint: encode disk block %v: %w", b.ID, err)
		}
		e, err := writeFile(wd, fmt.Sprintf("disk_%04d.blk", i), data)
		if err != nil {
			return 0, 0, fmt.Errorf("checkpoint: write disk block %v: %w", b.ID, err)
		}
		m.Blocks = append(m.Blocks, e)
		written += e.Bytes
	}
	blocks = len(m.Blocks)

	stripped := *rs
	stripped.Events = nil
	stripped.MemBlocks = make([]engine.ResumeBlock, len(rs.MemBlocks))
	for i, b := range rs.MemBlocks {
		b.Records = nil
		stripped.MemBlocks[i] = b
	}
	stripped.DiskBlocks = make([]engine.ResumeDiskBlock, len(rs.DiskBlocks))
	for i, b := range rs.DiskBlocks {
		b.Records = nil
		stripped.DiskBlocks[i] = b
	}
	var sb bytes.Buffer
	if err := gob.NewEncoder(&sb).Encode(&stripped); err != nil {
		return 0, 0, fmt.Errorf("checkpoint: encode state: %w", err)
	}
	se, err := writeFile(wd, "state.gob", sb.Bytes())
	if err != nil {
		return 0, 0, fmt.Errorf("checkpoint: write state: %w", err)
	}
	m.State = se
	written += se.Bytes

	if clientState != nil {
		ce, err := writeFile(wd, "client.gob", clientState)
		if err != nil {
			return 0, 0, fmt.Errorf("checkpoint: write client state: %w", err)
		}
		m.Client = &ce
		written += ce.Bytes
	}

	mdata, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return 0, 0, fmt.Errorf("checkpoint: encode manifest: %w", err)
	}
	tmp := filepath.Join(wd, "manifest.json.tmp")
	if err := os.WriteFile(tmp, mdata, 0o644); err != nil {
		return 0, 0, fmt.Errorf("checkpoint: write manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(wd, "manifest.json")); err != nil {
		return 0, 0, fmt.Errorf("checkpoint: commit manifest: %w", err)
	}
	written += int64(len(mdata))

	prune(dir, rs.Window)
	return blocks, written, nil
}

// prune removes window directories older than the previous boundary:
// after committing window k, only win_k and win_{k-1} remain (the
// previous one is the fallback if win_k later proves corrupt).
func prune(dir string, window int) {
	for _, w := range windows(dir) {
		if w < window-1 {
			os.RemoveAll(winDir(dir, w))
		}
	}
}

// windows lists the win_* directory indices in ascending order.
func windows(dir string) []int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range entries {
		var w int
		if _, err := fmt.Sscanf(e.Name(), "win_%d", &w); err == nil && e.IsDir() {
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}

// readFile loads one payload file and verifies its manifest entry.
func readFile(wd string, e FileEntry) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(wd, e.File))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != e.Bytes {
		return nil, fmt.Errorf("checkpoint: %s: %d bytes, manifest says %d", e.File, len(data), e.Bytes)
	}
	if cs := checksum(data); cs != e.Checksum {
		return nil, fmt.Errorf("checkpoint: %s: checksum %s, manifest says %s", e.File, cs, e.Checksum)
	}
	return data, nil
}

// Load restores the newest usable window snapshot from the checkpoint
// directory: state, re-attached block records, client payload, and the
// event-log prefix replayed from the WAL. Corrupt or incomplete windows
// are skipped in favor of older ones; ErrNoCheckpoint reports that
// nothing was usable.
func Load(dir string) (rs *engine.ResumeState, clientState []byte, err error) {
	ws := windows(dir)
	var firstErr error
	for i := len(ws) - 1; i >= 0; i-- {
		rs, clientState, err = loadWindow(dir, ws[i])
		if err == nil {
			return rs, clientState, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, nil, fmt.Errorf("%w (newest failure: %v)", ErrNoCheckpoint, firstErr)
	}
	return nil, nil, ErrNoCheckpoint
}

// loadWindow validates and loads one window directory.
func loadWindow(dir string, window int) (*engine.ResumeState, []byte, error) {
	wd := winDir(dir, window)
	mdata, err := os.ReadFile(filepath.Join(wd, "manifest.json"))
	if err != nil {
		return nil, nil, err
	}
	var m Manifest
	if err := json.Unmarshal(mdata, &m); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: manifest: %w", err)
	}
	if m.Version != ManifestVersion {
		return nil, nil, fmt.Errorf("checkpoint: manifest version %d, want %d", m.Version, ManifestVersion)
	}
	if m.Window != window {
		return nil, nil, fmt.Errorf("checkpoint: manifest window %d in win_%04d", m.Window, window)
	}

	sdata, err := readFile(wd, m.State)
	if err != nil {
		return nil, nil, err
	}
	var rs engine.ResumeState
	if err := gob.NewDecoder(bytes.NewReader(sdata)).Decode(&rs); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: decode state: %w", err)
	}
	if rs.Window != window {
		return nil, nil, fmt.Errorf("checkpoint: state window %d in win_%04d", rs.Window, window)
	}
	if len(m.Blocks) != len(rs.MemBlocks)+len(rs.DiskBlocks) {
		return nil, nil, fmt.Errorf("checkpoint: manifest lists %d blocks, state has %d",
			len(m.Blocks), len(rs.MemBlocks)+len(rs.DiskBlocks))
	}

	for i := range rs.MemBlocks {
		data, err := readFile(wd, m.Blocks[i])
		if err != nil {
			return nil, nil, err
		}
		recs, err := storage.DecodeRecords(data)
		if err != nil {
			return nil, nil, fmt.Errorf("checkpoint: decode memory block %v: %w", rs.MemBlocks[i].Meta.ID, err)
		}
		rs.MemBlocks[i].Records = recs
	}
	for i := range rs.DiskBlocks {
		data, err := readFile(wd, m.Blocks[len(rs.MemBlocks)+i])
		if err != nil {
			return nil, nil, err
		}
		recs, err := storage.DecodeRecords(data)
		if err != nil {
			return nil, nil, fmt.Errorf("checkpoint: decode disk block %v: %w", rs.DiskBlocks[i].ID, err)
		}
		rs.DiskBlocks[i].Records = recs
	}

	events, err := eventlog.ReplayWAL(WALPath(dir))
	if err != nil {
		return nil, nil, err
	}
	if len(events) < m.EventCount {
		return nil, nil, fmt.Errorf("checkpoint: wal holds %d events, manifest needs %d", len(events), m.EventCount)
	}
	rs.Events = events[:m.EventCount]

	var client []byte
	if m.Client != nil {
		client, err = readFile(wd, *m.Client)
		if err != nil {
			return nil, nil, err
		}
	}
	return &rs, client, nil
}
