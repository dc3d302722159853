package trajectory

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type record struct {
	Key  string `json:"key"`
	Time string `json:"time"`
	Blob string `json:"blob,omitempty"`
}

func mustAppend(t *testing.T, path string, rec record) {
	t.Helper()
	if err := Append(path, rec); err != nil {
		t.Fatal(err)
	}
}

// TestLastSkipsTruncatedLine simulates the classic trajectory
// corruption: a process died mid-append, leaving a record cut off in the
// middle of its JSON. The reader must skip the fragment and keep the
// surviving history — erroring would brick every drift check that
// reads the file.
func TestLastSkipsTruncatedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trajectory.json")
	good := record{Key: "k", Time: "t1"}
	mustAppend(t, path, good)

	// Truncate a copy of the good line mid-JSON and append it — first
	// with a newline (a later writer moved on), then re-test with the
	// fragment as the unterminated final line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line := append([]byte{}, bytes.TrimSpace(data)...)
	fragment := append([]byte{}, line[:len(line)/2]...)
	var file bytes.Buffer
	file.Write(line)
	file.WriteByte('\n')
	file.Write(fragment)
	file.WriteByte('\n')
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Last[record](path, "k")
	if err != nil {
		t.Fatalf("trailing truncated line errored the reader: %v", err)
	}
	if rec == nil || rec.Time != good.Time {
		t.Fatalf("good record lost behind the corruption: %+v", rec)
	}

	// Fragment in the MIDDLE, newer good record after it: the reader
	// must reach past the corruption and return the newest record.
	mustAppend(t, path, record{Key: "k", Time: "t2"})
	rec, err = Last[record](path, "k")
	if err != nil || rec == nil || rec.Time != "t2" {
		t.Fatalf("mid-file corruption hid the newest record: rec=%+v err=%v", rec, err)
	}

	// Unterminated final line (no trailing newline at all).
	file.Reset()
	file.Write(line)
	file.WriteByte('\n')
	file.Write(fragment)
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err = Last[record](path, "k")
	if err != nil || rec == nil || rec.Time != good.Time {
		t.Fatalf("unterminated fragment broke the reader: rec=%+v err=%v", rec, err)
	}
}

// TestAppendRepairsTruncatedTrajectory appends straight after an
// unterminated fragment (a writer that died mid-append): the new record
// must land on a line of its own — glued onto the fragment it would be
// unparsable, and both would be lost.
func TestAppendRepairsTruncatedTrajectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trajectory.json")
	good := record{Key: "k", Time: "t1"}
	mustAppend(t, path, good)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line := append([]byte{}, bytes.TrimSpace(data)...)
	fragment := append([]byte{}, line[:len(line)/2]...)
	crashed := append(append(append([]byte{}, line...), '\n'), fragment...)
	if err := os.WriteFile(path, crashed, 0o644); err != nil {
		t.Fatal(err)
	}

	mustAppend(t, path, record{Key: "k", Time: "t3"})
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) != 3 || !bytes.Equal(lines[1], fragment) {
		t.Fatalf("append did not terminate the fragment first:\n%s", data)
	}
	rec, err := Last[record](path, "k")
	if err != nil || rec == nil || rec.Time != "t3" {
		t.Fatalf("record appended after the fragment unreachable: rec=%+v err=%v", rec, err)
	}
}

// A record carrying per-experiment fields for a large pack can exceed
// bufio.Scanner's default 1 MiB token cap; Last must read arbitrarily
// long lines rather than failing the whole trajectory (which would
// silently disable drift checks).
func TestLastOversizedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trajectory.json")
	mustAppend(t, path, record{Key: "big", Time: "t1", Blob: strings.Repeat("x", 2<<20)})
	mustAppend(t, path, record{Key: "small", Time: "t2"})
	got, err := Last[record](path, "big")
	if err != nil || got == nil || len(got.Blob) != 2<<20 {
		t.Fatalf("oversized record not read: err=%v", err)
	}
	// The record after the oversized line must still be reachable.
	got, err = Last[record](path, "small")
	if err != nil || got == nil || got.Time != "t2" {
		t.Fatalf("record after oversized line lost: %v, %v", got, err)
	}
}
