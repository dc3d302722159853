package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"hsp/internal/expt"
)

func TestRunSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-run", "E1"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "E1") || !strings.Contains(got, "OPT(I) hierarchical") {
		t.Fatalf("unexpected output:\n%s", got)
	}
	if !strings.Contains(got, "1/1 experiments passed") {
		t.Fatalf("summary missing:\n%s", got)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-run", "E99"}, &out); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-run", "E7", "-csv", dir}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "E7.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "OPT(I)") {
		t.Fatalf("csv content wrong:\n%s", data)
	}
}

func TestJSONRecordsPerExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-run", "E1,E7", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 JSONL records, got %d:\n%s", len(lines), out.String())
	}
	for i, want := range []string{"E1", "E7"} {
		var rec struct {
			ID     string  `json:"id"`
			Status string  `json:"status"`
			Dur    float64 `json:"duration_ms"`
			Rows   int     `json:"rows"`
		}
		if err := json.Unmarshal([]byte(lines[i]), &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec.ID != want || rec.Status != "pass" || rec.Rows == 0 {
			t.Fatalf("record %d wrong: %+v", i, rec)
		}
	}
}

func TestParallelJSONByteIdentical(t *testing.T) {
	var seq, par bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-run", "E1,E2,E7", "-json"}, &seq); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-quick", "-run", "E1,E2,E7", "-json", "-parallel"}, &par); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("parallel output differs:\n%s\n---\n%s", seq.String(), par.String())
	}
}

func TestFailingClaimExitsNonzero(t *testing.T) {
	expt.Register(expt.Experiment{ID: "ZDRIFT", Title: "injected drift", Claim: "4=5",
		Run: func(expt.Suite, context.Context) *expt.Table {
			tab := &expt.Table{ID: "ZDRIFT", Columns: []string{"v"}}
			tab.AddRow(4)
			tab.CheckEq("arithmetic", 4, 5)
			return tab
		}})
	defer expt.Unregister("ZDRIFT")

	var out bytes.Buffer
	err := run(context.Background(), []string{"-quick", "-run", "ZDRIFT", "-json"}, &out)
	if err == nil {
		t.Fatal("failing claim did not produce an error (nonzero exit)")
	}
	if !strings.Contains(err.Error(), "failed") {
		t.Fatalf("error does not mention failure: %v", err)
	}
	// The record is still emitted so CI can report what drifted.
	if !strings.Contains(out.String(), `"id":"ZDRIFT"`) || !strings.Contains(out.String(), `"status":"fail"`) {
		t.Fatalf("drift record missing:\n%s", out.String())
	}
}

func TestTimeoutFlagExitsNonzero(t *testing.T) {
	expt.Register(expt.Experiment{ID: "ZHANG", Title: "hangs until canceled",
		Run: func(_ expt.Suite, ctx context.Context) *expt.Table {
			<-ctx.Done()
			return &expt.Table{ID: "ZHANG"}
		}})
	defer expt.Unregister("ZHANG")

	var out bytes.Buffer
	err := run(context.Background(), []string{"-run", "ZHANG", "-timeout", "20ms", "-json"}, &out)
	if err == nil {
		t.Fatal("timeout did not produce an error")
	}
	if !strings.Contains(out.String(), `"status":"timeout"`) {
		t.Fatalf("timeout record missing:\n%s", out.String())
	}
}

func TestListPacks(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-list-packs"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"paper:", "rt:", "memcap:", "E1", "RT1", "MC1"} {
		if !strings.Contains(got, want) {
			t.Fatalf("pack listing missing %q:\n%s", want, got)
		}
	}
}

func TestUnknownPackRejected(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-pack", "nope"}, &out); err == nil {
		t.Fatal("unknown pack accepted")
	}
}

func TestStreamMatchesBatchModuloOrder(t *testing.T) {
	// -stream emits records in completion order; sorted, the bytes must
	// equal the batch -json output for the same seed (which is in suite
	// order and itself sorted here for comparison).
	var batch, streamed bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-run", "E1,E2,E7", "-json"}, &batch); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-quick", "-run", "E1,E2,E7", "-stream", "-parallel"}, &streamed); err != nil {
		t.Fatal(err)
	}
	sortLines := func(b *bytes.Buffer) string {
		lines := strings.Split(strings.TrimSpace(b.String()), "\n")
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	if sortLines(&batch) != sortLines(&streamed) {
		t.Fatalf("streamed records differ from batch modulo order:\n%s\n---\n%s", batch.String(), streamed.String())
	}
	if n := len(strings.Split(strings.TrimSpace(streamed.String()), "\n")); n != 3 {
		t.Fatalf("streamed %d records, want 3", n)
	}
}

func TestBenchOutAppendsAndDetectsDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_hbench.json")
	args := []string{"-quick", "-run", "E1,E7", "-json", "-bench-out", path}
	var out bytes.Buffer
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 bench records, got %d:\n%s", len(lines), data)
	}
	var first, second benchRecord
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if first.Drift != nil {
		t.Fatalf("first record has drift against nothing: %+v", first.Drift)
	}
	if first.Pass != 2 || first.Statuses["E1"] != "pass" || first.DurationsMS["E1"] <= 0 {
		t.Fatalf("first record incomplete: %+v", first)
	}
	if second.Drift == nil || second.Drift.Against != first.Time {
		t.Fatalf("second record not drift-checked against the first: %+v", second.Drift)
	}
	if second.Drift.Regressed || len(second.Drift.StatusChanges) != 0 {
		t.Fatalf("identical reruns flagged as drift: %+v", second.Drift)
	}
	if second.Drift.WallRatio <= 0 {
		t.Fatalf("wall ratio missing: %+v", second.Drift)
	}
}

func TestBenchOutFlagsRegression(t *testing.T) {
	// A pass -> fail transition between runs of the same key must be
	// recorded as a regression in the appended record.
	path := filepath.Join(t.TempDir(), "BENCH_hbench.json")
	good := true
	expt.Register(expt.Experiment{ID: "ZWOBBLE", Title: "wobbles", Claim: "stable",
		Run: func(expt.Suite, context.Context) *expt.Table {
			tab := &expt.Table{ID: "ZWOBBLE", Columns: []string{"v"}}
			tab.AddRow(1)
			if good {
				tab.CheckEq("stable", 1, 1)
			} else {
				tab.CheckEq("stable", 1, 2)
			}
			return tab
		}})
	defer expt.Unregister("ZWOBBLE")

	args := []string{"-quick", "-run", "ZWOBBLE", "-json", "-bench-out", path}
	var out bytes.Buffer
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatal(err)
	}
	good = false
	if err := run(context.Background(), args, &out); err == nil {
		t.Fatal("failing claim did not exit nonzero")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 bench records, got %d", len(lines))
	}
	var second benchRecord
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second.Drift == nil || !second.Drift.Regressed {
		t.Fatalf("regression not flagged: %+v", second.Drift)
	}
	if len(second.Drift.StatusChanges) != 1 || !strings.Contains(second.Drift.StatusChanges[0], "pass -> fail") {
		t.Fatalf("status change not recorded: %+v", second.Drift.StatusChanges)
	}
}

// Every result must land in exactly one status counter: an unrecognized
// status counts as Other, so the counters always sum to Experiments.
func TestBenchRecordStatusCounterInvariant(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_hbench.json")
	results := []expt.Result{
		{ID: "A", Status: expt.StatusPass},
		{ID: "B", Status: expt.StatusFail},
		{ID: "C", Status: expt.Status("someday-a-new-status")},
	}
	if _, err := appendBenchRecord(path, "subset", true, 7, 1, results, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec benchRecord
	if err := json.Unmarshal([]byte(strings.TrimSpace(string(data))), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Other != 1 {
		t.Fatalf("unknown status not counted: %+v", rec)
	}
	if sum := rec.Pass + rec.Fail + rec.Errors + rec.Timeouts + rec.Canceled + rec.Other; sum != rec.Experiments {
		t.Fatalf("counters sum to %d, want Experiments=%d: %+v", sum, rec.Experiments, rec)
	}
}

// Record times are RFC3339Nano so two quick runs can't collide (which
// would make driftReport.Against ambiguous), and wall_ratio is always
// serialized once a previous record exists.
func TestBenchRecordTimeResolutionAndWallRatio(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_hbench.json")
	results := []expt.Result{{ID: "A", Status: expt.StatusPass}}
	for i := 0; i < 2; i++ {
		if _, err := appendBenchRecord(path, "subset", true, 7, 1, results, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var first, second benchRecord
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	for _, ts := range []string{first.Time, second.Time} {
		if _, err := time.Parse(time.RFC3339Nano, ts); err != nil {
			t.Fatalf("time %q not RFC3339Nano: %v", ts, err)
		}
	}
	if first.Time == second.Time {
		t.Fatalf("back-to-back records collide on time %q", first.Time)
	}
	if second.Drift == nil || second.Drift.Against != first.Time {
		t.Fatalf("drift not anchored to previous time: %+v", second.Drift)
	}
	if !strings.Contains(lines[1], `"wall_ratio":`) {
		t.Fatalf("wall_ratio omitted from drift report:\n%s", lines[1])
	}
}

func TestPackRTQuickGreen(t *testing.T) {
	if testing.Short() {
		t.Skip("pack run in -short mode")
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-parallel", "-pack", "rt", "-json"}, &out); err != nil {
		t.Fatalf("rt pack failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{`"id":"RT1"`, `"id":"RT2"`} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("rt pack output missing %s:\n%s", want, out.String())
		}
	}
}

func TestPackMemcapQuickGreen(t *testing.T) {
	if testing.Short() {
		t.Skip("pack run in -short mode")
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-parallel", "-pack", "memcap", "-json"}, &out); err != nil {
		t.Fatalf("memcap pack failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{`"id":"MC1"`, `"id":"MC2"`} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("memcap pack output missing %s:\n%s", want, out.String())
		}
	}
}
