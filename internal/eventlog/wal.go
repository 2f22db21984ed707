package eventlog

// Write-ahead logging for the event stream: a WAL persists every event
// as one JSON line. Appends only buffer — records reach the file when the
// buffer fills and at Flush, Sync and Close — so the history of a crashed
// run is recoverable up to the last checkpoint, not per record: at every
// window boundary the checkpointer flushes the WAL before it hands the
// commit off, and the commit syncs the file before the manifest that
// counts those events becomes durable. Events past the last checkpoint
// may die with the buffer; a resume replays only the checkpoint's prefix.
// The record layout is identical to WriteJSON/ReadJSON — a WAL file is a
// valid JSON-lines event log — but replay additionally tolerates a torn
// tail: a crash can leave a partially written final line, which is
// discarded rather than failing the whole replay.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// walBufSize is the WAL's write buffer: a streaming window appends a few
// hundred records of ~200 bytes, so it reaches the file in a few writes.
const walBufSize = 64 << 10

// WAL is an append-only, buffered event log file.
type WAL struct {
	f   *os.File
	buf *bufio.Writer
	enc *json.Encoder
}

// CreateWAL creates (truncating) the WAL file at path.
func CreateWAL(path string) (*WAL, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("eventlog: create wal: %w", err)
	}
	buf := bufio.NewWriterSize(f, walBufSize)
	return &WAL{f: f, buf: buf, enc: json.NewEncoder(buf)}, nil
}

// Append buffers one event record (a JSON line, as json.Marshal encodes
// it). A failed write of the buffer to the file is reported here or by
// a later call.
func (w *WAL) Append(e Event) error {
	if err := w.enc.Encode(e); err != nil {
		return fmt.Errorf("eventlog: wal append: %w", err)
	}
	return nil
}

// AppendAll buffers a batch of events.
func (w *WAL) AppendAll(events []Event) error {
	for _, e := range events {
		if err := w.Append(e); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes the buffered records to the file, without syncing it.
func (w *WAL) Flush() error {
	if err := w.buf.Flush(); err != nil {
		return fmt.Errorf("eventlog: wal flush: %w", err)
	}
	return nil
}

// Sync flushes and forces the file's bytes to stable storage.
func (w *WAL) Sync() error {
	if err := w.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("eventlog: wal sync: %w", err)
	}
	return nil
}

// Rename moves the WAL's file over path — atomically replacing a WAL
// already there — and syncs the directory, so after a power cut path
// names either the old file or this one, whole as of its last Sync. The
// WAL keeps appending to the moved file.
func (w *WAL) Rename(path string) error {
	if err := os.Rename(w.f.Name(), path); err != nil {
		return fmt.Errorf("eventlog: wal rename: %w", err)
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("eventlog: wal rename: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("eventlog: wal rename: sync directory: %w", err)
	}
	return nil
}

// Close flushes and closes the file.
func (w *WAL) Close() error {
	if err := w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// ReplayWAL reads the event records of a WAL file, tolerating a torn
// tail: replay stops cleanly at the first malformed or unterminated
// line (the record a crash interrupted mid-write). Any error before the
// tail — an unreadable file — is returned.
func ReplayWAL(path string) ([]Event, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("eventlog: replay wal: %w", err)
	}
	var events []Event
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // unterminated tail record: torn write
		}
		line := data[:nl]
		data = data[nl+1:]
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			break // malformed tail record: torn write
		}
		events = append(events, e)
	}
	return events, nil
}
