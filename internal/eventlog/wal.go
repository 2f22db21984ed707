package eventlog

// Write-ahead logging for the event stream: a WAL persists every event
// as one JSON line, flushed per record, so the exact event history of a
// crashed run is recoverable up to (at least) the last checkpoint. The
// record layout is identical to WriteJSON/ReadJSON — a WAL file is a
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

// WAL is an append-only, per-record-flushed event log file.
type WAL struct {
	f   *os.File
	buf *bufio.Writer
}

// CreateWAL creates (truncating) the WAL file at path.
func CreateWAL(path string) (*WAL, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("eventlog: create wal: %w", err)
	}
	return &WAL{f: f, buf: bufio.NewWriter(f)}, nil
}

// Append writes one event record and flushes it to the file.
func (w *WAL) Append(e Event) error {
	rec, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("eventlog: wal encode: %w", err)
	}
	rec = append(rec, '\n')
	if _, err := w.buf.Write(rec); err != nil {
		return fmt.Errorf("eventlog: wal write: %w", err)
	}
	if err := w.buf.Flush(); err != nil {
		return fmt.Errorf("eventlog: wal flush: %w", err)
	}
	return nil
}

// AppendAll writes a batch of events and flushes once at the end.
func (w *WAL) AppendAll(events []Event) error {
	for _, e := range events {
		rec, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("eventlog: wal encode: %w", err)
		}
		rec = append(rec, '\n')
		if _, err := w.buf.Write(rec); err != nil {
			return fmt.Errorf("eventlog: wal write: %w", err)
		}
	}
	if err := w.buf.Flush(); err != nil {
		return fmt.Errorf("eventlog: wal flush: %w", err)
	}
	return nil
}

// Sync flushes and forces the file's bytes to stable storage.
func (w *WAL) Sync() error {
	if err := w.buf.Flush(); err != nil {
		return fmt.Errorf("eventlog: wal flush: %w", err)
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
	if err := w.buf.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("eventlog: wal flush: %w", err)
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
