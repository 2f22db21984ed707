package checkpoint

import (
	"os"
	"sync"
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
