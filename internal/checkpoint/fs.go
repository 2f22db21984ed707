package checkpoint

import (
	"io"
	"os"
)

// fileSystem is the seam every file operation of a commit goes through,
// so a test can count them and drop the un-synced ones at a simulated
// power cut. osFS is the only implementation outside the tests.
type fileSystem interface {
	Mkdir(path string) error
	RemoveAll(path string) error
	// Create makes (or truncates) a file for writing.
	Create(path string) (file, error)
	// Open opens an existing file or directory, to Sync it.
	Open(path string) (file, error)
	Rename(oldpath, newpath string) error
	ReadDir(path string) ([]os.DirEntry, error)
}

// file is what a commit does with an open file.
type file interface {
	io.Writer
	Sync() error
	Close() error
}

// diskFS is what a writer without a file system of its own commits
// through: osFS, except in a test that fails chosen operations of the
// commits a session makes.
var diskFS fileSystem = osFS{}

type osFS struct{}

func (osFS) Mkdir(path string) error                    { return os.Mkdir(path, 0o755) }
func (osFS) RemoveAll(path string) error                { return os.RemoveAll(path) }
func (osFS) Create(path string) (file, error)           { return os.Create(path) }
func (osFS) Open(path string) (file, error)             { return os.Open(path) }
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) ReadDir(path string) ([]os.DirEntry, error) { return os.ReadDir(path) }
