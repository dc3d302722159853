package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDriftSurvivesCorruptedTrajectory runs the full -bench-out path
// against a corrupted file: the run must append its record and compute
// drift against the last intact one, not error out.
func TestDriftSurvivesCorruptedTrajectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_hbench.json")
	ctx := context.Background()
	var out bytes.Buffer
	if err := run(ctx, []string{"-quick", "-run", "E1", "-json", "-bench-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line := append([]byte{}, bytes.TrimSpace(data)...)
	// Leave the intact record, then a mid-line truncation with no
	// trailing newline — exactly what a crash mid-append leaves behind.
	var file bytes.Buffer
	file.Write(line)
	file.WriteByte('\n')
	file.Write(line[:2*len(line)/3])
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(ctx, []string{"-quick", "-run", "E1", "-json", "-bench-out", path}, &out); err != nil {
		t.Fatalf("corrupted trajectory errored the run: %v", err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var rec benchRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("appended record unparsable: %v", err)
	}
	if rec.Drift == nil {
		t.Fatal("drift not computed against the intact record")
	}
}
