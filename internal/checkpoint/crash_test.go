package checkpoint

// Power-cut tests for the commit path. memFS stands in for the disk
// behind the fs seam: it keeps, beside what a running process would see,
// what would survive a power cut — file bytes as of the file's last
// Sync, directory entries (created, renamed, removed names) as of the
// directory's last Sync — and stops doing anything after a chosen number
// of operations. The checkpoint states are built by hand: a facade run
// would import package blaze, which imports this one.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"blaze/internal/dataflow"
	"blaze/internal/engine"
	"blaze/internal/eventlog"
	"blaze/internal/metrics"
	"blaze/internal/shuffle"
	"blaze/internal/storage"
)

var errPowerCut = errors.New("memfs: power cut")

// memNode is a file or a directory of a memFS.
type memNode struct {
	dir bool
	// A file's bytes: as written, and as of its last Sync.
	data, synced []byte
	// A directory's entries: as they stand, and as of its last Sync.
	entries, durable map[string]*memNode
}

func newMemDir() *memNode {
	return &memNode{dir: true, entries: map[string]*memNode{}, durable: map[string]*memNode{}}
}

// memFS implements fileSystem in memory. Every mutating call and every
// Sync is one step; once steps exceeds stopAfter (when that is >= 0) the
// power is out: calls fail and change nothing, except that the write the
// cut lands on is torn — half of it happened.
type memFS struct {
	root           *memNode
	steps          int
	stopAfter      int
	creates, syncs int
}

const memDir = "/ckpt"

// newMemFS returns a disk holding the (durable, empty) directory memDir.
func newMemFS() *memFS {
	fs := &memFS{root: newMemDir(), stopAfter: -1}
	d := newMemDir()
	fs.root.entries["ckpt"], fs.root.durable["ckpt"] = d, d
	return fs
}

// step counts one operation and reports whether the power is still on.
func (fs *memFS) step() bool {
	fs.steps++
	return fs.stopAfter < 0 || fs.steps <= fs.stopAfter
}

// lookup resolves a path to its node.
func (fs *memFS) lookup(path string) (*memNode, error) {
	n := fs.root
	for _, name := range strings.Split(strings.Trim(filepath.ToSlash(path), "/"), "/") {
		next, ok := n.entries[name]
		if !n.dir || !ok {
			return nil, &os.PathError{Op: "lookup", Path: path, Err: os.ErrNotExist}
		}
		n = next
	}
	return n, nil
}

// parent resolves the directory a path's last element lives in.
func (fs *memFS) parent(path string) (*memNode, string, error) {
	d, err := fs.lookup(filepath.Dir(path))
	if err != nil {
		return nil, "", err
	}
	return d, filepath.Base(path), nil
}

func (fs *memFS) Mkdir(path string) error {
	d, name, err := fs.parent(path)
	if err != nil {
		return err
	}
	if !fs.step() {
		return errPowerCut
	}
	if _, ok := d.entries[name]; ok {
		return &os.PathError{Op: "mkdir", Path: path, Err: os.ErrExist}
	}
	d.entries[name] = newMemDir()
	return nil
}

func (fs *memFS) RemoveAll(path string) error {
	d, name, err := fs.parent(path)
	if err != nil {
		return nil // like os.RemoveAll: nothing to remove
	}
	if !fs.step() {
		return errPowerCut
	}
	delete(d.entries, name)
	return nil
}

func (fs *memFS) Create(path string) (file, error) {
	d, name, err := fs.parent(path)
	if err != nil {
		return nil, err
	}
	if !fs.step() {
		return nil, errPowerCut
	}
	fs.creates++
	n := &memNode{}
	d.entries[name] = n
	return &memFile{fs: fs, n: n}, nil
}

func (fs *memFS) Open(path string) (file, error) {
	n, err := fs.lookup(path)
	if err != nil {
		return nil, err
	}
	return &memFile{fs: fs, n: n}, nil
}

func (fs *memFS) Rename(oldpath, newpath string) error {
	od, oname, err := fs.parent(oldpath)
	if err != nil {
		return err
	}
	nd, nname, err := fs.parent(newpath)
	if err != nil {
		return err
	}
	if !fs.step() {
		return errPowerCut
	}
	nd.entries[nname] = od.entries[oname]
	delete(od.entries, oname)
	return nil
}

func (fs *memFS) ReadDir(path string) ([]os.DirEntry, error) {
	d, err := fs.lookup(path)
	if err != nil {
		return nil, err
	}
	var out []os.DirEntry
	for name, n := range d.entries {
		out = append(out, memDirEntry{name, n.dir})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

type memDirEntry struct {
	name string
	dir  bool
}

func (e memDirEntry) Name() string                 { return e.name }
func (e memDirEntry) IsDir() bool                  { return e.dir }
func (e memDirEntry) Type() iofs.FileMode          { return 0 }
func (e memDirEntry) Info() (iofs.FileInfo, error) { return nil, errors.New("memfs: no file info") }

type memFile struct {
	fs *memFS
	n  *memNode
}

func (f *memFile) Write(p []byte) (int, error) {
	if !f.fs.step() {
		if f.fs.steps == f.fs.stopAfter+1 {
			f.n.data = append(f.n.data, p[:len(p)/2]...)
		}
		return 0, errPowerCut
	}
	f.n.data = append(f.n.data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	if !f.fs.step() {
		return errPowerCut
	}
	f.fs.syncs++
	if f.n.dir {
		f.n.durable = make(map[string]*memNode, len(f.n.entries))
		for name, n := range f.n.entries {
			f.n.durable[name] = n
		}
	} else {
		f.n.synced = bytes.Clone(f.n.data)
	}
	return nil
}

func (f *memFile) Close() error { return nil }

// materialize writes memDir out as a real directory: what survived the
// power cut, or — with unsynced — everything that had happened by then
// (the process died, the machine did not).
func (fs *memFS) materialize(t *testing.T, unsynced bool) string {
	t.Helper()
	var put func(n *memNode, path string)
	put = func(n *memNode, path string) {
		if !n.dir {
			data := n.synced
			if unsynced {
				data = n.data
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		if err := os.MkdirAll(path, 0o755); err != nil {
			t.Fatal(err)
		}
		entries := n.durable
		if unsynced {
			entries = n.entries
		}
		for name, child := range entries {
			put(child, filepath.Join(path, name))
		}
	}
	out := t.TempDir()
	put(fs.root.entries["ckpt"], out)
	return out
}

// setWAL makes events the WAL's contents, the first synced of them
// already on disk.
func (fs *memFS) setWAL(t *testing.T, events []eventlog.Event, synced int) {
	t.Helper()
	var data []byte
	n := &memNode{}
	for i, e := range events {
		if i == synced {
			n.synced = bytes.Clone(data)
		}
		rec, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		data = append(append(data, rec...), '\n')
	}
	if synced == len(events) {
		n.synced = data
	}
	n.data = data
	d := fs.root.entries["ckpt"]
	d.entries[walName], d.durable[walName] = n, n
}

// testEvents is the event history the test states cut their prefixes
// from.
func testEvents(n int) []eventlog.Event {
	out := make([]eventlog.Event, n)
	for i := range out {
		out[i] = eventlog.Event{Kind: eventlog.JobStart, Time: time.Duration(i) * time.Millisecond, Job: i + 1}
	}
	return out
}

// testState builds a boundary snapshot with every kind of payload: typed
// memory blocks (nblocks-1 of them), one disk block holding a value with
// no flat column (the gob fallback), shuffle map outputs — present with
// an empty bucket, and absent — a controller snapshot, and nevents
// events.
func testState(t *testing.T, window, nblocks, nevents int) (*engine.ResumeState, []byte) {
	t.Helper()
	rs := &engine.ResumeState{
		Window: window, JobSeq: 10 * window, Assign: []int{0, 0},
		ComputedOnce: map[storage.BlockID]bool{{Dataset: window}: true},
		Execs:        []engine.ResumeExecutor{{Clocks: []time.Duration{time.Duration(window) * time.Second}}},
		MemCounters:  []engine.ResumeCounters{{Seq: int64(nblocks)}},
		DiskCounters: []engine.ResumeDiskCounters{{TotalWritten: 7}},
		Metrics:      metrics.NewApp(1),
		Controller:   []byte(fmt.Sprintf("controller state at window %d", window)),
		Events:       testEvents(nevents),
	}
	for p := 0; p < nblocks-1; p++ {
		recs := make([]dataflow.Record, 3+p%5)
		for i := range recs {
			recs[i] = dataflow.Record{Key: int64(100*p + i), Value: float64(window) + float64(i)/8}
		}
		id := storage.BlockID{Dataset: window, Partition: p}
		rs.MemBlocks = append(rs.MemBlocks, engine.ResumeBlock{
			Meta: storage.BlockMeta{ID: id, Size: int64(16 * len(recs)), InsertSeq: int64(p)}, Data: encode(t, recs)})
	}
	rs.DiskBlocks = []engine.ResumeDiskBlock{{ID: storage.BlockID{Dataset: window, Partition: 99}, Size: 24,
		Data: encode(t, []dataflow.Record{{Key: 1, Value: "no flat column"}})}}
	bucket, err := storage.EncodeRecords([]dataflow.Record{{Key: int64(window), Value: int64(window)}})
	if err != nil {
		t.Fatal(err)
	}
	rs.Shuffle = &shuffle.Snapshot{TotalWritten: 64, Outputs: []shuffle.OutputSnapshot{{
		ID: window, NumBuckets: 2, Sealed: true, Maps: []shuffle.MapSnapshot{
			{Present: true, Buckets: [][]byte{bucket, nil}, Bytes: []int64{16, 0}},
			{},
			{Present: true, Executor: 1, Buckets: [][]byte{nil, bucket}, Bytes: []int64{0, 16}},
		}}}}
	return rs, []byte(fmt.Sprintf("client state at window %d", window))
}

// encode is a block's contents as capture hands them to Write.
func encode(t *testing.T, recs []dataflow.Record) []byte {
	t.Helper()
	data, err := storage.EncodeRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// loaded is a boundary snapshot as Write takes it and Load hands it
// back.
type loaded struct {
	rs     *engine.ResumeState
	client []byte
}

// reference commits a state to a real directory through the os and loads
// it back: the bits any later Load of that window has to equal. It also
// holds Load to the state that was written.
func reference(t *testing.T, rs *engine.ResumeState, client []byte) loaded {
	t.Helper()
	dir := t.TempDir()
	wal, err := eventlog.CreateWAL(WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.AppendAll(rs.Events); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	blocks, _, err := Write(dir, rs, client, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(rs.MemBlocks) + len(rs.DiskBlocks); blocks != want {
		t.Fatalf("Write reports %d blocks, state holds %d", blocks, want)
	}
	got, gotClient, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotClient, client) || !bytes.Equal(got.Controller, rs.Controller) ||
		!reflect.DeepEqual(got.Events, rs.Events) || !reflect.DeepEqual(got.Shuffle, rs.Shuffle) ||
		!reflect.DeepEqual(got.MemBlocks, rs.MemBlocks) || !reflect.DeepEqual(got.DiskBlocks, rs.DiskBlocks) {
		t.Fatalf("window %d does not load back as written:\nwrote  %+v\nloaded %+v", rs.Window, rs, got)
	}
	return loaded{got, gotClient}
}

// TestCrashConsistencyAtEveryStep cuts the power after each step of the
// commit of window 4 over committed windows 2 and 3. Whatever survives,
// Load must return window 3 or window 4 whole — never an error, never a
// mix — and a window-4 manifest that survived must describe a segment
// and a WAL prefix that survived too. The same holds when only the
// process dies and every write that happened stays.
func TestCrashConsistencyAtEveryStep(t *testing.T) {
	const blocks = 12
	var states, refs [5]loaded
	for w := 2; w <= 4; w++ {
		rs, client := testState(t, w, blocks, 4*w)
		states[w], refs[w] = loaded{rs, client}, reference(t, rs, client)
	}
	for _, unsynced := range []bool{false, true} {
		for stop, done := 0, false; !done; stop++ {
			fs := newMemFS()
			w := writer{fs: fs}
			// The WAL as the session leaves it at boundary 4: window 3's
			// prefix was synced by that commit, the rest only written.
			fs.setWAL(t, states[4].rs.Events, len(states[3].rs.Events))
			for k := 2; k <= 3; k++ {
				if _, _, err := w.write(memDir, states[k].rs, states[k].client, nil); err != nil {
					t.Fatal(err)
				}
			}
			fs.steps, fs.stopAfter = 0, stop
			_, _, err := w.write(memDir, states[4].rs, states[4].client, nil)
			done = err == nil
			if !done && !errors.Is(err, errPowerCut) {
				t.Fatalf("step %d: commit failed on its own: %v", stop, err)
			}

			name := fmt.Sprintf("power cut after step %d (unsynced writes kept: %v)", stop, unsynced)
			dir := fs.materialize(t, unsynced)
			rs, client, err := Load(dir)
			if err != nil {
				t.Fatalf("%s: Load: %v", name, err)
			}
			if rs.Window != 3 && rs.Window != 4 {
				t.Fatalf("%s: loaded window %d", name, rs.Window)
			}
			if want := refs[rs.Window]; !reflect.DeepEqual(rs, want.rs) || !bytes.Equal(client, want.client) {
				t.Fatalf("%s: window %d loaded differs from the committed one", name, rs.Window)
			}
			if _, err := os.Stat(filepath.Join(winDir(dir, 4), manifestName)); err == nil && rs.Window != 4 {
				t.Fatalf("%s: window 4's manifest survived but Load fell back to window 3", name)
			}
			if done && rs.Window != 4 {
				t.Fatalf("%s: commit returned, Load still sees window %d", name, rs.Window)
			}
		}
	}
}

// TestCommitCreatesTwoFiles: a commit creates the segment and the
// manifest and syncs five things (those two, the WAL, the window
// directory, the checkpoint directory) whether it holds 1 block or 200.
func TestCommitCreatesTwoFiles(t *testing.T) {
	for _, blocks := range []int{1, 10, 200} {
		rs, client := testState(t, 2, blocks, 3)
		fs := newMemFS()
		fs.setWAL(t, rs.Events, 0)
		w := writer{fs: fs}
		n, _, err := w.write(memDir, rs, client, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n != blocks {
			t.Errorf("%d blocks: commit reports %d", blocks, n)
		}
		if fs.creates != 2 || fs.syncs > 5 {
			t.Errorf("%d blocks: commit created %d files and synced %d times, want 2 and <= 5", blocks, fs.creates, fs.syncs)
		}
		entries, err := os.ReadDir(winDir(fs.materialize(t, false), 2))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if want := []string{manifestName, segmentName}; !reflect.DeepEqual(names, want) {
			t.Errorf("%d blocks: window directory holds %v, want %v", blocks, names, want)
		}
	}
}

// TestLoadRejectsUndecodableBlock: capture copies a real-bytes spill
// file into the segment without decoding it, so a file damaged on disk
// before the boundary is committed under a valid CRC. Load decodes every
// carried block and must fail that window, naming the block, and fall
// back to the previous one.
func TestLoadRejectsUndecodableBlock(t *testing.T) {
	dir := t.TempDir()
	wal, err := eventlog.CreateWAL(WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.AppendAll(testEvents(8)); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	for w := 2; w <= 3; w++ {
		rs, client := testState(t, w, 4, 4*w-4)
		if w == 3 {
			b := &rs.DiskBlocks[0]
			b.Data = b.Data[:len(b.Data)-3] // a torn spill file
		}
		if _, _, err := Write(dir, rs, client, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := loadWindow(dir, 3); err == nil || !strings.Contains(err.Error(), "decode disk block rdd_3_99") {
		t.Fatalf("window 3 with a torn block: err = %v, want a decode failure naming the block", err)
	}
	rs, _, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v; want the fallback to window 2", err)
	}
	if rs.Window != 2 {
		t.Fatalf("Load served window %d, want the fallback to window 2", rs.Window)
	}
}
