// Package checkpoint persists streaming-session recovery state to a
// run-scoped durable directory and loads it back after a crash.
//
// Layout under the checkpoint directory:
//
//	events.wal          append-only JSON-lines event log (the WAL the
//	                    session facade maintains; see internal/eventlog)
//	win_0004/           one directory per checkpointed window boundary
//	  segment           every payload of the boundary, back to back: one
//	                    encoded block (storage.EncodeRecords or
//	                    EncodeBatch: typed columnar, or marked gob
//	                    fallback) per memory block, then per disk
//	                    block; the shuffle
//	                    snapshot's encoded buckets; the controller
//	                    snapshot; the state gob (engine.ResumeState with
//	                    all of the above and the events stripped — gob
//	                    carries metadata only); the opaque driver-side
//	                    client payload (window stats)
//	  manifest.json     window, event count and {offset, bytes, crc} per
//	                    segment entry — the commit record, written
//	                    (tmp+rename) LAST
//
// The blocks of one boundary are born and pruned together, so they share
// one file: a commit creates two files however many blocks it holds, and
// every payload byte is written once, through one buffered writer.
//
// Commit order: write the segment and sync it; write manifest.json.tmp
// and sync it; sync the WAL; rename the manifest in; sync the window
// directory, then the checkpoint directory; only then prune. A
// checkpoint is valid only once its manifest exists, its entries tile
// the segment exactly and every CRC-32C matches; a crash mid-write
// leaves a directory without a manifest that Load skips. Load takes the
// newest valid window and falls back to the previous one on any
// corruption; only when no window is usable does it return
// ErrNoCheckpoint, and the caller re-runs from scratch (lineage
// recomputation from the sources). Old windows are pruned at write so
// at most two boundary snapshots exist at a time.
//
// A committed checkpoint survives power loss, not only a process crash:
// by the time the manifest's name is durable, the segment bytes it
// describes and the WAL prefix it counts have been synced, so no crash
// point leaves a manifest naming bytes that never reached the disk
// (TestCrashConsistencyAtEveryStep drops every un-synced write, rename
// and mkdir after each step of a commit).
//
// A Checkpointer splits each boundary in two. On the driver, while the
// cluster holds still, it captures the ResumeState — copies of what
// execution writes in place, and one more share of every cached block
// and map output, no encoding (engine.Cluster.CaptureResumeState) —
// takes the client payload and the summary, and flushes the WAL's buffer
// to the file. One committer goroutine then encodes the capture (into
// an arena the Checkpointer reuses, sized on the driver), prepares the
// snapshot and writes it — segment fill and CRCs, manifest,
// the five syncs in the order above, rename, prune — while the next
// window runs. The commit is joined at the start of the next boundary,
// before the CrashWindow crash (so "crash after commit" keeps its
// meaning) and at session teardown on every path (the join is
// registered with the cluster, engine.Cluster.AtTeardown); a failed
// commit is the session's error. The capture's shares are released on
// the driver at the end of the next window's first job
// (engine.Cluster.AtNextJobEnd), which waits for the committer's encode
// if it has not finished, or at the join if that comes first: so the
// captured arrays return to the pools at the same point of every run,
// however fast the committer was, and before the next window drops what
// was captured. So boundary k is durable only
// once the next boundary, the session's Close or the crash hook has
// returned; a crash before that resumes from boundary k-1, which is
// still whole.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"blaze/internal/engine"
	"blaze/internal/eventlog"
	"blaze/internal/shuffle"
	"blaze/internal/storage"
)

// ManifestVersion is the manifest schema version; manifests with a
// different version are rejected (treated as corrupt). Version 1 held
// gob block files and row-form shuffle buckets in state.gob; version 2
// held one FNV-checksummed file per block and the encoded buckets inside
// state.gob.
const ManifestVersion = 3

// ErrNoCheckpoint reports that the checkpoint directory holds no usable
// window snapshot; the caller must recover by recomputation instead.
var ErrNoCheckpoint = errors.New("checkpoint: no usable checkpoint")

const (
	// walName is the event WAL file inside the checkpoint directory.
	walName      = "events.wal"
	segmentName  = "segment"
	manifestName = "manifest.json"
)

// castagnoli is the CRC-32C table; hash/crc32 computes it with the CPU's
// CRC instructions where they exist.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Entry locates one payload inside a window's segment file with its
// integrity data.
type Entry struct {
	Offset int64  `json:"offset"`
	Bytes  int64  `json:"bytes"`
	CRC    uint32 `json:"crc"`
}

// Manifest is the commit record of one window snapshot. It is written
// after the segment, atomically (tmp+rename), so its presence certifies
// a complete write. Its entries tile the segment in the order Blocks,
// Shuffle, Controller, State, Client.
type Manifest struct {
	Version int `json:"version"`
	// Window is the boundary the snapshot was taken at: windows
	// 1..Window-1 complete, boundary-Window re-solve applied.
	Window int `json:"window"`
	// EventCount is the length of the main event log at the boundary;
	// resume replays exactly this prefix of the WAL.
	EventCount int `json:"event_count"`
	// Blocks holds one entry per memory block, then one per disk block,
	// in the state's order.
	Blocks []Entry `json:"blocks"`
	// Shuffle spans every bucket of the shuffle snapshot, concatenated
	// in snapshot order; the state gob holds their lengths.
	Shuffle Entry `json:"shuffle"`
	// Controller is the controller snapshot (absent for stateless
	// controllers).
	Controller *Entry `json:"controller,omitempty"`
	State      Entry  `json:"state"`
	Client     *Entry `json:"client,omitempty"`
	// Summary is an optional human-readable digest of the controller
	// state (see core.StateSummary) for operators inspecting a
	// checkpoint by hand; resume ignores it.
	Summary any `json:"summary,omitempty"`
}

// entries lists the manifest's entries in segment order.
func (m *Manifest) entries() []*Entry {
	out := make([]*Entry, 0, len(m.Blocks)+4)
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

// stateRecord is what the state gob holds: the ResumeState with every
// payload stripped (block data, shuffle buckets, controller snapshot,
// events and their count) and what re-attaches them: the byte length of
// every stripped bucket, one slice per map output in snapshot order,
// with which Load cuts the manifest's Shuffle entry back into buckets,
// and the event count — the manifest's copy is for the reader; this one
// is under a CRC.
type stateRecord struct {
	State      engine.ResumeState
	BucketLens [][]int
	EventCount int
}

// WALPath returns the event WAL location inside a checkpoint directory.
func WALPath(dir string) string { return filepath.Join(dir, walName) }

func winDir(dir string, window int) string {
	return filepath.Join(dir, fmt.Sprintf("win_%04d", window))
}

// segmentBufSize is the segment writer's buffer: payloads are a few
// hundred bytes (buckets) to a few tens of KB (blocks), so a commit of a
// few MB reaches the file in a dozen or so large writes.
const segmentBufSize = 256 << 10

// snapshot is one boundary made ready to commit: every payload encoded,
// in segment order, beside the manifest fields known before the segment
// is written. It holds only bytes nothing mutates.
type snapshot struct {
	window, eventCount int
	// summary is the manifest's operator digest, JSON-encoded (nil: none).
	summary json.RawMessage
	blocks  [][]byte
	// buckets holds every bucket of the shuffle snapshot, in snapshot
	// order; the state gob holds their lengths.
	buckets [][]byte
	// controller and client are nil when absent; state is the gob of the
	// stripped stateRecord.
	controller, state, client []byte
}

// prepare turns an encoded boundary (engine.ResumeState.Encode) into a
// snapshot. The state shares nothing execution writes, so it runs on
// the committer goroutine. The payloads — block data, shuffle buckets,
// the controller snapshot — are stripped out of the gob and kept as
// they are.
func prepare(rs *engine.ResumeState, clientState []byte, summary any) (*snapshot, error) {
	s := &snapshot{window: rs.Window, eventCount: rs.EventCount, controller: rs.Controller, client: clientState}
	if summary != nil {
		data, err := json.Marshal(summary)
		if err != nil {
			return nil, fmt.Errorf("encode summary: %w", err)
		}
		s.summary = data
	}
	rec := stateRecord{State: *rs, EventCount: rs.EventCount}
	st := &rec.State
	st.Events, st.EventCount, st.Controller = nil, 0, nil
	st.MemBlocks = make([]engine.ResumeBlock, len(rs.MemBlocks))
	for i, b := range rs.MemBlocks {
		s.blocks = append(s.blocks, b.Data)
		b.Data = nil
		st.MemBlocks[i] = b
	}
	st.DiskBlocks = make([]engine.ResumeDiskBlock, len(rs.DiskBlocks))
	for i, b := range rs.DiskBlocks {
		s.blocks = append(s.blocks, b.Data)
		b.Data = nil
		st.DiskBlocks[i] = b
	}
	if rs.Shuffle != nil {
		// Strip a copy: the caller's snapshot keeps its buckets.
		snap := *rs.Shuffle
		snap.Outputs = append([]shuffle.OutputSnapshot(nil), snap.Outputs...)
		for oi := range snap.Outputs {
			snap.Outputs[oi].Maps = append([]shuffle.MapSnapshot(nil), snap.Outputs[oi].Maps...)
		}
		st.Shuffle = &snap
		for _, mo := range mapOutputs(&snap) {
			lens := make([]int, len(mo.Buckets))
			for b, data := range mo.Buckets {
				s.buckets = append(s.buckets, data)
				lens[b] = len(data)
			}
			rec.BucketLens = append(rec.BucketLens, lens)
			mo.Buckets = nil
		}
	}
	var state bytes.Buffer
	if err := gob.NewEncoder(&state).Encode(&rec); err != nil {
		return nil, fmt.Errorf("encode state: %w", err)
	}
	s.state = state.Bytes()
	return s, nil
}

// writer commits window snapshots through fs. Its buffer outlives a
// commit, so a Checkpointer's commits share one; one commit at a time.
// The zero value writes to the operating system's files.
type writer struct {
	fs  fileSystem
	buf *bufio.Writer
	// arena holds the encoded blocks and buckets of a Checkpointer's
	// commit, reused from one commit to the next (Checkpointer.begin
	// sizes it on the driver, arenaFor), so the committer's encode
	// allocates next to nothing beside the window running on the driver.
	arena []byte
}

// arenaFor returns w's arena, emptied, with room for n bytes, grown with
// an eighth to spare when short, so the boundaries after the first
// rarely grow it again. Nothing may read the previous commit's bytes
// any more.
func (w *writer) arenaFor(n int) []byte {
	if cap(w.arena) < n {
		w.arena = make([]byte, 0, n+n/8)
	}
	return w.arena[:0]
}

// segment appends payloads to one file and hands back the manifest entry
// of each. Write errors stick to the bufio.Writer and surface at Flush.
type segment struct {
	w   *bufio.Writer
	cur Entry
}

// Write appends p to the entry being built.
func (s *segment) Write(p []byte) (int, error) {
	s.cur.Bytes += int64(len(p))
	s.cur.CRC = crc32.Update(s.cur.CRC, castagnoli, p)
	return s.w.Write(p)
}

// end closes the entry being built and starts the next where it stops.
func (s *segment) end() Entry {
	e := s.cur
	s.cur = Entry{Offset: e.Offset + e.Bytes}
	return e
}

// Write persists one window snapshot: it encodes a captured state,
// writes the segment and commits the manifest last, all before it
// returns, and releases the capture's shares on every path (a
// Checkpointer runs the encode and the writes in the background and
// releases when it joins them). Events are recovered from the WAL.
// Returns the number of block payloads and total bytes written.
func Write(dir string, rs *engine.ResumeState, clientState []byte, summary any) (blocks int, written int64, err error) {
	defer rs.Release()
	var w writer
	return w.write(dir, rs, clientState, summary)
}

func (w *writer) write(dir string, rs *engine.ResumeState, clientState []byte, summary any) (blocks int, written int64, err error) {
	s, _, err := encodeCapture(rs, clientState, summary, nil)
	if err != nil {
		return 0, 0, err
	}
	return w.commit(dir, s)
}

// encodeCapture turns a captured state into a snapshot ready to commit
// (ResumeState.Encode into buf, then prepare) and returns buf as
// extended: the snapshot's blocks and buckets alias it until it is
// reused. Once it returns, the snapshot no longer reads the capture,
// which may be released.
func encodeCapture(rs *engine.ResumeState, clientState []byte, summary any, buf []byte) (*snapshot, []byte, error) {
	buf, err := rs.Encode(buf)
	if err != nil {
		return nil, buf, fmt.Errorf("checkpoint: %w", err)
	}
	s, err := prepare(rs, clientState, summary)
	if err != nil {
		return nil, buf, fmt.Errorf("checkpoint: %w", err)
	}
	return s, buf, nil
}

// commit writes a prepared snapshot under dir: the segment, then the
// manifest, in the order the package comment proves safe, then prunes.
func (w *writer) commit(dir string, s *snapshot) (blocks int, written int64, err error) {
	if w.fs == nil {
		w.fs = diskFS
	}
	if w.buf == nil {
		w.buf = bufio.NewWriterSize(nil, segmentBufSize)
	}
	fs := w.fs
	wd := winDir(dir, s.window)
	// A leftover directory from an earlier attempt at the same window
	// (crashed before its manifest was renamed in, or found corrupt by
	// the Load this session resumed from) is not worth keeping; start
	// clean.
	if err := fs.RemoveAll(wd); err != nil {
		return 0, 0, fmt.Errorf("checkpoint: clear %s: %w", wd, err)
	}
	if err := fs.Mkdir(wd); err != nil {
		return 0, 0, fmt.Errorf("checkpoint: mkdir %s: %w", wd, err)
	}

	m := &Manifest{Version: ManifestVersion, Window: s.window, EventCount: s.eventCount}
	if s.summary != nil {
		m.Summary = s.summary
	}
	f, err := fs.Create(filepath.Join(wd, segmentName))
	if err != nil {
		return 0, 0, fmt.Errorf("checkpoint: create segment: %w", err)
	}
	w.buf.Reset(f)
	seg := segment{w: w.buf}
	written, err = seg.fill(m, s)
	w.buf.Reset(nil) // do not hold the file past the commit
	if err := syncClose(f, err); err != nil {
		return 0, 0, fmt.Errorf("checkpoint: write segment: %w", err)
	}

	mdata, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return 0, 0, fmt.Errorf("checkpoint: encode manifest: %w", err)
	}
	tmp := filepath.Join(wd, manifestName+".tmp")
	if err := writeSynced(fs, tmp, mdata); err != nil {
		return 0, 0, fmt.Errorf("checkpoint: write manifest: %w", err)
	}
	// The manifest counts on a WAL prefix: it must be on disk before the
	// manifest's name is.
	if err := syncPath(fs, WALPath(dir)); err != nil {
		return 0, 0, fmt.Errorf("checkpoint: sync wal: %w", err)
	}
	if err := fs.Rename(tmp, filepath.Join(wd, manifestName)); err != nil {
		return 0, 0, fmt.Errorf("checkpoint: commit manifest: %w", err)
	}
	// The window directory's entries, then its own name in the
	// checkpoint directory.
	for _, d := range []string{wd, dir} {
		if err := syncPath(fs, d); err != nil {
			return 0, 0, fmt.Errorf("checkpoint: sync %s: %w", d, err)
		}
	}
	written += int64(len(mdata))

	prune(fs, dir, s.window)
	return len(m.Blocks), written, nil
}

// fill appends every payload of the snapshot to the segment, recording
// each entry in the manifest, and flushes. Returns the segment's size.
func (seg *segment) fill(m *Manifest, s *snapshot) (int64, error) {
	for _, data := range s.blocks {
		seg.Write(data)
		m.Blocks = append(m.Blocks, seg.end())
	}
	for _, data := range s.buckets {
		seg.Write(data)
	}
	m.Shuffle = seg.end()
	if s.controller != nil {
		seg.Write(s.controller)
		e := seg.end()
		m.Controller = &e
	}
	seg.Write(s.state)
	m.State = seg.end()
	if s.client != nil {
		seg.Write(s.client)
		e := seg.end()
		m.Client = &e
	}
	return seg.cur.Offset, seg.w.Flush()
}

// syncClose finishes a file whose writes returned err: synced if they all
// succeeded, closed either way. Returns the first failure.
func syncClose(f file, err error) error {
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSynced creates path holding data and syncs it.
func writeSynced(fs fileSystem, path string, data []byte) error {
	f, err := fs.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	return syncClose(f, err)
}

// syncPath syncs an existing file or directory: a file's bytes, a
// directory's entries (the names created in, renamed into and removed
// from it).
func syncPath(fs fileSystem, path string) error {
	f, err := fs.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	f.Close()
	return err
}

// prune removes window directories older than the previous boundary:
// after committing window k, only win_k and win_{k-1} remain (the
// previous one is the fallback if win_k later proves corrupt). It is
// not synced: a removal the disk forgets leaves an extra, older window.
func prune(fs fileSystem, dir string, window int) {
	for _, w := range windows(fs, dir) {
		if w < window-1 {
			fs.RemoveAll(winDir(dir, w))
		}
	}
}

// windows lists the win_* directory indices in ascending order.
func windows(fs fileSystem, dir string) []int {
	entries, err := fs.ReadDir(dir)
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

// Load restores the newest usable window snapshot from the checkpoint
// directory: state, re-attached block data, shuffle buckets and
// controller snapshot, client payload, and the event-log prefix replayed
// from the WAL. Corrupt or incomplete windows are skipped in favor of
// older ones; ErrNoCheckpoint reports that nothing was usable.
func Load(dir string) (rs *engine.ResumeState, clientState []byte, err error) {
	ws := windows(osFS{}, dir)
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

// loadWindow validates and loads one window directory. The segment is
// read once; nothing in it is decoded, and nothing is allocated from a
// length the manifest claims, before the entries are known to tile the
// bytes actually read and each CRC matches. The returned buckets,
// controller snapshot and client payload alias the segment.
func loadWindow(dir string, window int) (*engine.ResumeState, []byte, error) {
	wd := winDir(dir, window)
	mdata, err := os.ReadFile(filepath.Join(wd, manifestName))
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

	seg, err := os.ReadFile(filepath.Join(wd, segmentName))
	if err != nil {
		return nil, nil, err
	}
	var pos int64
	for i, e := range m.entries() {
		if e.Offset != pos || e.Bytes < 0 || e.Bytes > int64(len(seg))-pos {
			return nil, nil, fmt.Errorf("checkpoint: entry %d spans [%d, +%d) of a %d-byte segment, want offset %d",
				i, e.Offset, e.Bytes, len(seg), pos)
		}
		pos += e.Bytes
		if crc := crc32.Checksum(seg[e.Offset:pos], castagnoli); crc != e.CRC {
			return nil, nil, fmt.Errorf("checkpoint: entry %d: crc %08x, manifest says %08x", i, crc, e.CRC)
		}
	}
	if pos != int64(len(seg)) {
		return nil, nil, fmt.Errorf("checkpoint: segment holds %d bytes, manifest accounts for %d", len(seg), pos)
	}
	payload := func(e Entry) []byte { return seg[e.Offset : e.Offset+e.Bytes : e.Offset+e.Bytes] }

	var rec stateRecord
	if err := gob.NewDecoder(bytes.NewReader(payload(m.State))).Decode(&rec); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: decode state: %w", err)
	}
	rs := &rec.State
	if rs.Window != window {
		return nil, nil, fmt.Errorf("checkpoint: state window %d in win_%04d", rs.Window, window)
	}
	if rec.EventCount != m.EventCount {
		return nil, nil, fmt.Errorf("checkpoint: manifest counts %d events, state %d", m.EventCount, rec.EventCount)
	}
	if len(m.Blocks) != len(rs.MemBlocks)+len(rs.DiskBlocks) {
		return nil, nil, fmt.Errorf("checkpoint: manifest lists %d blocks, state has %d",
			len(m.Blocks), len(rs.MemBlocks)+len(rs.DiskBlocks))
	}
	// A block the capture read raw (a real-bytes spill file) was never
	// decoded on its way here, so each one is decoded once now: a block
	// that does not decode fails this window, not the resume.
	for i := range rs.MemBlocks {
		b := &rs.MemBlocks[i]
		b.Data = payload(m.Blocks[i])
		if _, err := storage.DecodeBatch(b.Data); err != nil {
			return nil, nil, fmt.Errorf("checkpoint: decode memory block %v: %w", b.Meta.ID, err)
		}
	}
	for i := range rs.DiskBlocks {
		b := &rs.DiskBlocks[i]
		b.Data = payload(m.Blocks[len(rs.MemBlocks)+i])
		if _, err := storage.DecodeBatch(b.Data); err != nil {
			return nil, nil, fmt.Errorf("checkpoint: decode disk block %v: %w", b.ID, err)
		}
	}
	if err := attachBuckets(rs.Shuffle, rec.BucketLens, payload(m.Shuffle)); err != nil {
		return nil, nil, err
	}
	if m.Controller != nil {
		rs.Controller = payload(*m.Controller)
	}

	events, err := eventlog.ReplayWAL(WALPath(dir))
	if err != nil {
		return nil, nil, err
	}
	if len(events) < m.EventCount {
		return nil, nil, fmt.Errorf("checkpoint: wal holds %d events, manifest needs %d", len(events), m.EventCount)
	}
	rs.EventCount, rs.Events = m.EventCount, events[:m.EventCount]

	var client []byte
	if m.Client != nil {
		client = payload(*m.Client)
	}
	return rs, client, nil
}

// mapOutputs lists a shuffle snapshot's map outputs in snapshot order.
func mapOutputs(snap *shuffle.Snapshot) []*shuffle.MapSnapshot {
	var out []*shuffle.MapSnapshot
	if snap != nil {
		for oi := range snap.Outputs {
			for mi := range snap.Outputs[oi].Maps {
				out = append(out, &snap.Outputs[oi].Maps[mi])
			}
		}
	}
	return out
}

// attachBuckets cuts the segment's shuffle region back into the buckets
// of the snapshot's map outputs; lens must account for every map output
// and every byte.
func attachBuckets(snap *shuffle.Snapshot, lens [][]int, data []byte) error {
	maps := mapOutputs(snap)
	if len(maps) != len(lens) {
		return fmt.Errorf("checkpoint: state holds bucket lengths for %d map outputs, snapshot has %d", len(lens), len(maps))
	}
	for i, mo := range maps {
		if len(lens[i]) > 0 {
			mo.Buckets = make([][]byte, len(lens[i]))
		}
		for b, n := range lens[i] {
			if n < 0 || n > len(data) {
				return fmt.Errorf("checkpoint: map output %d bucket %d: %d bytes, %d left in the segment's shuffle entry", i, b, n, len(data))
			}
			if n > 0 {
				mo.Buckets[b] = data[:n:n]
			}
			data = data[n:]
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("checkpoint: shuffle buckets leave %d bytes of their entry unaccounted for", len(data))
	}
	return nil
}
