package expt

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fastIDs is a subset cheap enough to run repeatedly in tests.
var fastIDs = []string{"E1", "E7"}

func TestRunnerSubsetSelection(t *testing.T) {
	r := Runner{Suite: Suite{Quick: true, Seed: 7}}
	results, err := r.Run(context.Background(), fastIDs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].ID != "E1" || results[1].ID != "E7" {
		t.Fatalf("subset wrong: %+v", results)
	}
	for _, res := range results {
		if res.Status != StatusPass {
			t.Fatalf("%s: status %s (%s)", res.ID, res.Status, res.Error)
		}
		if res.Rows == 0 || res.Table == nil || len(res.Checks) == 0 {
			t.Fatalf("%s: incomplete result %+v", res.ID, res)
		}
		if res.Duration() <= 0 {
			t.Fatalf("%s: no wall time captured", res.ID)
		}
	}
}

func TestRunnerUnknownID(t *testing.T) {
	r := Runner{Suite: Suite{Quick: true, Seed: 7}}
	if _, err := r.Run(context.Background(), []string{"E99"}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestDeriveSeedStable(t *testing.T) {
	a := DeriveSeed(7, "E1")
	if a != DeriveSeed(7, "E1") {
		t.Fatal("DeriveSeed not deterministic")
	}
	if a == DeriveSeed(7, "E2") {
		t.Fatal("different experiments share a seed")
	}
	if a == DeriveSeed(8, "E1") {
		t.Fatal("different base seeds collide")
	}
}

func jsonFor(t *testing.T, r Runner, ids []string) []byte {
	t.Helper()
	results, err := r.Run(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, results, JSONOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRunnerDeterministicAcrossWorkers(t *testing.T) {
	seq := jsonFor(t, Runner{Suite: Suite{Quick: true, Seed: 7}, Workers: 1}, fastIDs)
	par := jsonFor(t, Runner{Suite: Suite{Quick: true, Seed: 7}, Workers: 4}, fastIDs)
	again := jsonFor(t, Runner{Suite: Suite{Quick: true, Seed: 7}, Workers: 4}, fastIDs)
	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel JSON differs from sequential:\n%s\n---\n%s", seq, par)
	}
	if !bytes.Equal(par, again) {
		t.Fatal("repeated parallel runs differ")
	}
	other := jsonFor(t, Runner{Suite: Suite{Quick: true, Seed: 8}, Workers: 1}, fastIDs)
	if bytes.Equal(seq, other) {
		t.Fatal("different base seed produced identical output — seeds not applied")
	}
}

func TestRunnerPanicIsolation(t *testing.T) {
	Register(Experiment{ID: "ZPANIC", Title: "panics", Claim: "never",
		Run: func(Suite, context.Context) *Table { panic("kaboom") }})
	defer Unregister("ZPANIC")

	r := Runner{Suite: Suite{Quick: true, Seed: 7}, Workers: 2}
	results, err := r.Run(context.Background(), []string{"E1", "ZPANIC", "E7"})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != StatusPass || results[2].Status != StatusPass {
		t.Fatalf("panic killed healthy experiments: %+v", results)
	}
	bad := results[1]
	if bad.Status != StatusError || !strings.Contains(bad.Error, "kaboom") {
		t.Fatalf("panic not isolated: %+v", bad)
	}
}

// TestForEachBoundedReraisesPanic: a panic on a pool goroutine must
// surface on the caller once the pool drains — not kill the process —
// and must not stop the other tasks from running.
func TestForEachBoundedReraisesPanic(t *testing.T) {
	var ran atomic.Int32
	defer func() {
		if p := recover(); p != "kaboom" {
			t.Fatalf("recovered %v, want the task's panic", p)
		}
		if got := ran.Load(); got != 7 {
			t.Fatalf("%d other tasks ran, want 7", got)
		}
	}()
	forEachBounded(8, 2, func(k int) {
		if k == 3 {
			panic("kaboom")
		}
		ran.Add(1)
	})
	t.Fatal("panic not re-raised")
}

func TestRunnerNilTable(t *testing.T) {
	Register(Experiment{ID: "ZNILTAB", Title: "returns nil",
		Run: func(Suite, context.Context) *Table { return nil }})
	defer Unregister("ZNILTAB")

	results, err := Runner{}.Run(context.Background(), []string{"ZNILTAB"})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != StatusError {
		t.Fatalf("nil table not flagged: %+v", results[0])
	}
}

func TestRunnerTimeoutAbortsWork(t *testing.T) {
	// The deadline cancels the experiment's context and the runner waits
	// for the experiment to observe it and return — inFlight must be back
	// to zero when Run returns, i.e. nothing is abandoned in the
	// background.
	var inFlight, ran atomic.Int32
	Register(Experiment{ID: "ZSLOW", Title: "slow but cooperative",
		Run: func(_ Suite, ctx context.Context) *Table {
			inFlight.Add(1)
			defer inFlight.Add(-1)
			ran.Add(1)
			<-ctx.Done()
			return &Table{ID: "ZSLOW"}
		}})
	defer Unregister("ZSLOW")

	r := Runner{Suite: Suite{Quick: true, Seed: 7}, Timeout: 20 * time.Millisecond}
	results, err := r.Run(context.Background(), []string{"ZSLOW"})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != StatusTimeout {
		t.Fatalf("timeout not detected: %+v", results[0])
	}
	if got := inFlight.Load(); got != 0 {
		t.Fatalf("%d experiments still in flight after Run returned", got)
	}
	if ran.Load() != 1 {
		t.Fatalf("experiment ran %d times", ran.Load())
	}
}

func TestRunnerCancellationMidSuite(t *testing.T) {
	// A context canceled mid-suite must (1) make the in-flight experiment
	// return promptly — observed, not abandoned: the counter is zero once
	// Run returns — and (2) mark it and everything not yet started
	// StatusCanceled.
	var inFlight atomic.Int32
	started := make(chan struct{}, 1)
	mk := func(id string) Experiment {
		return Experiment{ID: id, Title: id,
			Run: func(_ Suite, ctx context.Context) *Table {
				inFlight.Add(1)
				defer inFlight.Add(-1)
				select {
				case started <- struct{}{}:
				default:
				}
				<-ctx.Done()
				return &Table{ID: id}
			}}
	}
	ids := []string{"ZC1", "ZC2", "ZC3"}
	for _, id := range ids {
		Register(mk(id))
		defer Unregister(id)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started // the first experiment is in flight
		cancel()
	}()
	defer cancel()

	r := Runner{Suite: Suite{Quick: true, Seed: 7}, Workers: 1}
	results, err := r.Run(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	if got := inFlight.Load(); got != 0 {
		t.Fatalf("%d experiments still in flight after Run returned — goroutine leaked", got)
	}
	if len(results) != len(ids) {
		t.Fatalf("%d results for %d ids", len(results), len(ids))
	}
	for i, res := range results {
		if res.Status != StatusCanceled {
			t.Fatalf("result %d: status %s, want canceled (%+v)", i, res.Status, res)
		}
	}
	// The not-yet-started ones record why.
	if !strings.Contains(results[2].Error, "before start") {
		t.Fatalf("pending experiment not marked canceled-before-start: %+v", results[2])
	}
	if _, failed := Summarize(results); !failed {
		t.Fatal("canceled suite must summarize as failed")
	}
}

func TestRunnerSinkStreamsEveryResult(t *testing.T) {
	// Sink calls are serialized by the runner, so appending without a
	// lock is race-free (the race detector enforces this), and every
	// result is delivered exactly once.
	var streamed []Result
	r := Runner{
		Suite:   Suite{Quick: true, Seed: 7},
		Workers: 4,
		Sink:    func(res Result) { streamed = append(streamed, res) },
	}
	results, err := r.Run(context.Background(), fastIDs)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(results) {
		t.Fatalf("sink saw %d results, want %d", len(streamed), len(results))
	}
	byID := map[string]Result{}
	for _, res := range streamed {
		if _, dup := byID[res.ID]; dup {
			t.Fatalf("sink saw %s twice", res.ID)
		}
		byID[res.ID] = res
	}
	for _, res := range results {
		got, ok := byID[res.ID]
		if !ok {
			t.Fatalf("sink missed %s", res.ID)
		}
		if got.Status != res.Status || got.Seed != res.Seed {
			t.Fatalf("sink result for %s differs: %+v vs %+v", res.ID, got, res)
		}
	}
}

func TestRunnerFailingClaim(t *testing.T) {
	Register(Experiment{ID: "ZFAIL", Title: "drifts", Claim: "2+2=5",
		Run: func(Suite, context.Context) *Table {
			tab := &Table{ID: "ZFAIL", Columns: []string{"v"}}
			tab.AddRow(4)
			tab.CheckEq("arithmetic", 4, 5)
			return tab
		}})
	defer Unregister("ZFAIL")

	results, err := Runner{}.Run(context.Background(), []string{"ZFAIL"})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != StatusFail {
		t.Fatalf("failing claim not flagged: %+v", results[0])
	}
	if _, failed := Summarize(results); !failed {
		t.Fatal("summary did not flag failure")
	}
}

func TestWriteJSONShape(t *testing.T) {
	results, err := Runner{Suite: Suite{Quick: true, Seed: 7}}.Run(context.Background(), fastIDs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, results, JSONOptions{}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(results) {
		t.Fatalf("%d lines for %d results", len(lines), len(results))
	}
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line: %v\n%s", err, line)
		}
		for _, key := range []string{"id", "status", "duration_ms", "rows", "checks", "seed"} {
			if _, ok := rec[key]; !ok {
				t.Fatalf("record missing %q: %s", key, line)
			}
		}
		if _, ok := rec["table"]; ok {
			t.Fatalf("stable record should omit table payload: %s", line)
		}
		if rec["duration_ms"].(float64) != 0 {
			t.Fatalf("stable record has nonzero duration: %s", line)
		}
	}

	// Full mode embeds the table payload and a measured duration.
	buf.Reset()
	if err := WriteJSON(&buf, results, JSONOptions{Full: true}); err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if err := json.Unmarshal([]byte(first), &rec); err != nil {
		t.Fatal(err)
	}
	if _, ok := rec["table"]; !ok {
		t.Fatalf("full record missing table: %s", first)
	}
	if rec["duration_ms"].(float64) <= 0 {
		t.Fatalf("full record missing duration: %s", first)
	}
}

func TestSummarize(t *testing.T) {
	results := []Result{
		{ID: "A", Status: StatusPass},
		{ID: "B", Status: StatusFail},
		{ID: "C", Status: StatusError},
		{ID: "D", Status: StatusTimeout},
	}
	line, failed := Summarize(results)
	if !failed {
		t.Fatal("mixed statuses must fail")
	}
	for _, want := range []string{"1/4", "1 failed", "1 errored", "1 timed out"} {
		if !strings.Contains(line, want) {
			t.Fatalf("summary %q missing %q", line, want)
		}
	}
	line, failed = Summarize(results[:1])
	if failed || !strings.Contains(line, "1/1") {
		t.Fatalf("all-pass summary wrong: %q %v", line, failed)
	}
}
