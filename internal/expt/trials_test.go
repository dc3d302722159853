package expt

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// trialSweepIDs are the experiments whose independent trials run on the
// pool through mapTrials.
var trialSweepIDs = []string{"E9", "E10", "E13", "E14", "E15"}

// withGOMAXPROCS runs fn at the given GOMAXPROCS and restores the old
// setting.
func withGOMAXPROCS(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// waitGoroutines polls until at most base goroutines are alive, so a
// pool goroutine that outlives the call under test fails the test.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, %d before Run: a trial outlived it", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTrialSweepsDeterministic: the trial sweeps draw in rng order, solve
// on the pool and fold in trial order, so their full records — tables
// included — are the same bytes at any GOMAXPROCS and any Runner.Workers.
func TestTrialSweepsDeterministic(t *testing.T) {
	var want []byte
	for _, procs := range []int{1, 4} {
		for _, workers := range []int{1, 2} {
			var got []byte
			withGOMAXPROCS(procs, func() {
				r := Runner{Suite: quickSuite(), Workers: workers}
				results, err := r.Run(context.Background(), trialSweepIDs)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				for i := range results {
					if results[i].Status != StatusPass {
						t.Fatalf("GOMAXPROCS=%d workers=%d: %s %s %s", procs, workers,
							results[i].ID, results[i].Status, results[i].Error)
					}
					results[i].duration = 0
				}
				if err := WriteJSON(&buf, results, JSONOptions{Full: true}); err != nil {
					t.Fatal(err)
				}
				got = buf.Bytes()
			})
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("GOMAXPROCS=%d workers=%d: records differ from GOMAXPROCS=1 workers=1:\n%s\n---\n%s",
					procs, workers, got, want)
			}
		}
	}
}

// TestTrialSweepTimeoutLeavesNoGoroutine: a deadline that fires while
// E15's trials are in flight on the pool is reported as StatusTimeout,
// and every trial goroutine has exited once Run returns.
func TestTrialSweepTimeoutLeavesNoGoroutine(t *testing.T) {
	withGOMAXPROCS(4, func() {
		base := runtime.NumGoroutine()
		r := Runner{Suite: quickSuite(), Timeout: 5 * time.Millisecond}
		results, err := r.Run(context.Background(), []string{"E15"})
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Status != StatusTimeout {
			t.Fatalf("E15 under a 5ms deadline: %s (%s), want timeout", results[0].Status, results[0].Error)
		}
		waitGoroutines(t, base)
	})
}

// TestTrialPanicIsolated: a panic inside one trial task is re-raised on
// the experiment's goroutine once the pool drains, so the runner records
// StatusError for that experiment alone and the rest of the suite passes.
func TestTrialPanicIsolated(t *testing.T) {
	Register(Experiment{ID: "ZTRIALPANIC", Title: "one trial panics", Claim: "never",
		Run: func(_ Suite, ctx context.Context) *Table {
			mapTrials(ctx, 8, func(k int) int {
				if k == 3 {
					panic(fmt.Sprintf("trial %d kaboom", k))
				}
				return k
			})
			return &Table{ID: "ZTRIALPANIC"}
		}})
	defer Unregister("ZTRIALPANIC")

	withGOMAXPROCS(4, func() {
		base := runtime.NumGoroutine()
		r := Runner{Suite: quickSuite(), Workers: 2}
		results, err := r.Run(context.Background(), []string{"E1", "ZTRIALPANIC", "E14"})
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Status != StatusPass || results[2].Status != StatusPass {
			t.Fatalf("a trial panic leaked into other experiments: %+v", results)
		}
		bad := results[1]
		if bad.Status != StatusError || !strings.Contains(bad.Error, "trial 3 kaboom") {
			t.Fatalf("trial panic not reported as the experiment's error: %+v", bad)
		}
		waitGoroutines(t, base)
	})
}
