package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hsp/internal/trajectory"
)

func writeTrajectory(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trajectory.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func record(t *testing.T, sum loadSummary) string {
	t.Helper()
	b, err := json.Marshal(&sum)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestLastSummary(t *testing.T) {
	key := summaryKey(7, 4, 0)
	if got, err := trajectory.Last[loadSummary](filepath.Join(t.TempDir(), "absent.jsonl"), key); err != nil || got != nil {
		t.Fatalf("missing file: got %+v, %v; want nil history", got, err)
	}
	path := writeTrajectory(t,
		record(t, loadSummary{Key: key, Time: "t1", P99MS: 10}),
		"{corrupt line",
		record(t, loadSummary{Key: summaryKey(8, 4, 0), Time: "t2", P99MS: 99}),
		record(t, loadSummary{Key: key, Time: "t3", P99MS: 20}),
	)
	got, err := trajectory.Last[loadSummary](path, key)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Time != "t3" || got.P99MS != 20 {
		t.Fatalf("want the latest same-key record (t3), got %+v", got)
	}
}

func TestCheckDriftNoHistory(t *testing.T) {
	sum := loadSummary{Key: summaryKey(1, 8, 0), P99MS: 5, QPS: 100}
	lines, err := checkDrift(filepath.Join(t.TempDir(), "absent.jsonl"), &sum, 10)
	if err != nil {
		t.Fatal(err)
	}
	if lines != nil || sum.Drift != nil {
		t.Fatalf("first record of a key must not drift: lines=%v drift=%+v", lines, sum.Drift)
	}
}

func TestCheckDriftRatios(t *testing.T) {
	key := summaryKey(1, 8, 0)
	path := writeTrajectory(t, record(t, loadSummary{Key: key, Time: "prev", P99MS: 10, QPS: 200}))

	// Within the gate: ratios reported, not regressed.
	sum := loadSummary{Key: key, P99MS: 20, QPS: 150}
	lines, err := checkDrift(path, &sum, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Drift == nil || sum.Drift.Regressed {
		t.Fatalf("2x p99 within a 10x gate marked regressed: %+v", sum.Drift)
	}
	if sum.Drift.P99Ratio != 2 || sum.Drift.QPSRatio != 0.75 || sum.Drift.Against != "prev" {
		t.Fatalf("wrong ratios: %+v", sum.Drift)
	}
	if len(lines) == 0 {
		t.Fatal("no drift report lines")
	}

	// p99 blow-up beyond the gate.
	sum = loadSummary{Key: key, P99MS: 500, QPS: 200}
	if _, err := checkDrift(path, &sum, 10); err != nil {
		t.Fatal(err)
	}
	if sum.Drift == nil || !sum.Drift.Regressed {
		t.Fatalf("50x p99 not flagged by a 10x gate: %+v", sum.Drift)
	}

	// QPS collapse beyond the gate.
	sum = loadSummary{Key: key, P99MS: 10, QPS: 10}
	if _, err := checkDrift(path, &sum, 10); err != nil {
		t.Fatal(err)
	}
	if sum.Drift == nil || !sum.Drift.Regressed {
		t.Fatalf("20x QPS collapse not flagged by a 10x gate: %+v", sum.Drift)
	}

	// Gate off (0): ratios still recorded, never regressed.
	sum = loadSummary{Key: key, P99MS: 500, QPS: 10}
	if _, err := checkDrift(path, &sum, 0); err != nil {
		t.Fatal(err)
	}
	if sum.Drift == nil || sum.Drift.Regressed {
		t.Fatalf("report-only mode regressed: %+v", sum.Drift)
	}
}

// TestLoadtestDriftTrajectory runs the harness twice into the same
// trajectory file: the first record has no drift, the second compares
// against the first, and a generous gate passes.
func TestLoadtestDriftTrajectory(t *testing.T) {
	bench := filepath.Join(t.TempDir(), "trajectory.jsonl")
	args := []string{
		"-loadtest", "-duration", "200ms", "-concurrency", "2",
		"-workers", "2", "-bench-out", bench, "-drift-fail", "1000",
	}
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("first run: %v\nstderr:\n%s", err, &stderr)
	}
	stdout.Reset()
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("second run: %v\nstderr:\n%s", err, &stderr)
	}
	if !strings.Contains(stdout.String(), "drift: p99") {
		t.Fatalf("second run did not report drift:\n%s", &stdout)
	}

	data, err := os.ReadFile(bench)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("want 2 trajectory records, got %d", len(lines))
	}
	var first, second loadSummary
	if err := json.Unmarshal(lines[0], &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[1], &second); err != nil {
		t.Fatal(err)
	}
	if first.Key == "" || first.Key != second.Key {
		t.Fatalf("keys differ or empty: %q vs %q", first.Key, second.Key)
	}
	if first.Drift != nil {
		t.Fatalf("first record carries drift: %+v", first.Drift)
	}
	if second.Drift == nil || second.Drift.Against != first.Time {
		t.Fatalf("second record not compared against the first: %+v", second.Drift)
	}
}

// TestLoadtestAppendRepairsTruncatedTrajectory: a crash mid-append
// leaves BENCH_hspd.json's last line cut off with no newline. The next
// run's record must land on a line of its own — glued onto the fragment
// it would be unparsable, and both records would be lost — and drift
// must be computed against the last intact record.
func TestLoadtestAppendRepairsTruncatedTrajectory(t *testing.T) {
	bench := filepath.Join(t.TempDir(), "trajectory.jsonl")
	args := []string{
		"-loadtest", "-duration", "200ms", "-concurrency", "2",
		"-workers", "2", "-bench-out", bench,
	}
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("first run: %v\nstderr:\n%s", err, &stderr)
	}
	data, err := os.ReadFile(bench)
	if err != nil {
		t.Fatal(err)
	}
	intact := bytes.TrimSpace(data)
	crashed := append(append(append([]byte{}, intact...), '\n'), intact[:len(intact)/2]...)
	if err := os.WriteFile(bench, crashed, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("second run: %v\nstderr:\n%s", err, &stderr)
	}
	data, err = os.ReadFile(bench)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var first, last loadSummary
	if err := json.Unmarshal(intact, &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("appended record glued onto the truncated line: %v\n%s", err, lines[len(lines)-1])
	}
	if last.Drift == nil || last.Drift.Against != first.Time {
		t.Fatalf("drift not computed against the intact record: %+v", last.Drift)
	}
	if got, err := trajectory.Last[loadSummary](bench, first.Key); err != nil || got == nil || got.Time != last.Time {
		t.Fatalf("new record unreachable behind the fragment: rec=%+v err=%v", got, err)
	}
}

// TestProbesIncludeDAG pins that the loadtest traffic mix exercises the
// scenario path: compiled DAG requests with the claim-checked bound.
func TestProbesIncludeDAG(t *testing.T) {
	probes, err := buildProbes(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probes {
		if p.name == "dag/layered" {
			if p.path != "/v1/solve" {
				t.Fatalf("dag probe path %q", p.path)
			}
			return
		}
	}
	t.Fatal("no dag probe in the traffic mix")
}
