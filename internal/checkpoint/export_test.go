package checkpoint

import (
	"os"
	"sync"

	"blaze/internal/engine"
)

// InjectDiskFault routes the commits of every Checkpointer that has not
// committed yet through a file system that records each operation ("op
// path") and fails the failAt-th of them (1-based; 0 fails none) with
// cause. ops returns the operations made so far; restore puts the disk
// back. Writes and syncs of an open file count as operations; closing
// one does not.
func InjectDiskFault(failAt int, cause error) (ops func() []string, restore func()) {
	fs := &faultFS{failAt: failAt, cause: cause}
	diskFS = fs
	return fs.recorded, func() { diskFS = osFS{} }
}

// faultFS is osFS with the counter InjectDiskFault describes.
type faultFS struct {
	mu     sync.Mutex
	ops    []string
	failAt int
	cause  error
}

// op records one operation and reports whether it fails.
func (fs *faultFS) op(name, path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.ops = append(fs.ops, name+" "+path)
	if len(fs.ops) == fs.failAt {
		return &os.PathError{Op: name, Path: path, Err: fs.cause}
	}
	return nil
}

func (fs *faultFS) recorded() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]string(nil), fs.ops...)
}

func (fs *faultFS) Mkdir(path string) error {
	if err := fs.op("mkdir", path); err != nil {
		return err
	}
	return osFS{}.Mkdir(path)
}

func (fs *faultFS) RemoveAll(path string) error {
	if err := fs.op("removeall", path); err != nil {
		return err
	}
	return osFS{}.RemoveAll(path)
}

func (fs *faultFS) Create(path string) (file, error) {
	if err := fs.op("create", path); err != nil {
		return nil, err
	}
	f, err := osFS{}.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: fs, path: path, file: f}, nil
}

func (fs *faultFS) Open(path string) (file, error) {
	if err := fs.op("open", path); err != nil {
		return nil, err
	}
	f, err := osFS{}.Open(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: fs, path: path, file: f}, nil
}

func (fs *faultFS) Rename(oldpath, newpath string) error {
	if err := fs.op("rename", oldpath); err != nil {
		return err
	}
	return osFS{}.Rename(oldpath, newpath)
}

func (fs *faultFS) ReadDir(path string) ([]os.DirEntry, error) {
	if err := fs.op("readdir", path); err != nil {
		return nil, err
	}
	return osFS{}.ReadDir(path)
}

type faultFile struct {
	fs   *faultFS
	path string
	file
}

func (f *faultFile) Write(p []byte) (int, error) {
	if err := f.fs.op("write", f.path); err != nil {
		return 0, err
	}
	return f.file.Write(p)
}

func (f *faultFile) Sync() error {
	if err := f.fs.op("sync", f.path); err != nil {
		return err
	}
	return f.file.Sync()
}

// Join waits for the commit in flight, if any, and reports it, as the
// next boundary would.
func (cp *Checkpointer) Join() error { return cp.join() }

// CaptureHeld reports whether the commit in flight still holds its
// capture's shares.
func (cp *Checkpointer) CaptureHeld() bool { return cp.pending != nil && !cp.pending.released }

// commitState commits one window snapshot the way a Checkpointer's
// committer does, but before it returns: it encodes the captured state,
// writes the segment and the manifest, and releases the capture's shares
// on every path. Returns the number of block payloads and the bytes
// written.
func (w *writer) commitState(dir string, rs *engine.ResumeState, clientState []byte) (blocks int, written int64, err error) {
	defer rs.Release()
	s, _, err := encodeCapture(rs, clientState, nil, nil)
	if err != nil {
		return 0, 0, err
	}
	return w.commit(dir, s)
}
