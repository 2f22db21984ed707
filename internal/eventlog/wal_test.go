package eventlog

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func walEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Kind: JobStart, Time: time.Duration(i) * time.Millisecond, Job: i}
	}
	return evs
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	evs := walEvents(5)
	if err := w.AppendAll(evs[:3]); err != nil {
		t.Fatal(err)
	}
	for _, e := range evs[3:] {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReplayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("replayed %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], evs[i])
		}
	}
	// The file is exactly one json.Marshal line per event.
	var want []byte
	for _, e := range evs {
		rec, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, rec...), '\n')
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, want) {
		t.Fatalf("wal bytes differ from one json.Marshal line per event (err %v):\n%s", err, data)
	}
}

// TestWALTornTail pins the crash-tolerance contract: a WAL whose final
// record was interrupted mid-write (unterminated or malformed) replays
// the clean prefix and silently drops the torn record.
func TestWALTornTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail string
	}{
		{"unterminated", `{"kind":"job_start","job":9`},
		{"malformed", "garbage bytes here\n"},
		{"half-overwritten", `{"kind":{"kind":"x"}}` + "\n"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "events.wal")
			w, err := CreateWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			evs := walEvents(4)
			if err := w.AppendAll(evs); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tc.tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			got, err := ReplayWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(evs) {
				t.Fatalf("replayed %d events, want the %d-event clean prefix", len(got), len(evs))
			}
		})
	}
}

func TestWALReplayMissingFile(t *testing.T) {
	if _, err := ReplayWAL(filepath.Join(t.TempDir(), "absent.wal")); err == nil {
		t.Fatal("replaying a missing WAL should fail")
	}
}

// TestWALRenameReplacesWhole: a WAL seeded beside a live one leaves it
// untouched until Rename, replaces it in one step, and keeps appending
// to the file under its new name — buffered until the next Flush.
func TestWALRenameReplacesWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.wal")
	old, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.AppendAll(walEvents(7)); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := func() int {
		t.Helper()
		got, err := ReplayWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		return len(got)
	}

	w, err := CreateWAL(path + ".tmp")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendAll(walEvents(3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := replayed(); n != 7 {
		t.Fatalf("before the rename the WAL replays %d events, want the old 7", n)
	}
	if err := w.Rename(path); err != nil {
		t.Fatal(err)
	}
	if n := replayed(); n != 3 {
		t.Fatalf("after the rename the WAL replays %d events, want the seeded 3", n)
	}
	if err := w.Append(walEvents(1)[0]); err != nil {
		t.Fatal(err)
	}
	if n := replayed(); n != 3 {
		t.Fatalf("an append reached the file before a flush: %d events", n)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := replayed(); n != 4 {
		t.Fatalf("an append after the rename did not reach the renamed file: %d events", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("the seed file is still there: %v", err)
	}
}
