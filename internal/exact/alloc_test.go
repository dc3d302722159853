package exact

import (
	"context"
	"testing"

	"hsp/internal/testenv"
	"hsp/internal/workload"
)

// TestDFSAllocFree pins the branch-and-bound DFS — the measured hot path
// of the exact solver — at zero steady-state allocations. The probe runs
// at T = OPT−1: every job keeps candidates (prepare succeeds) but the
// search exhausts the whole pruned tree and returns false, which also
// restores every accumulator in place, so the search is replayable on
// the same prepared workspace.
func TestDFSAllocFree(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are gated by make bench-alloc")
	}
	in, err := workload.Generate(workload.Config{
		Topology: workload.SMPCMP, Branching: []int{2, 2, 2},
		Jobs: 11, Seed: 42, MinWork: 25, MaxWork: 40,
		SpeedSpread: 0.15, OverheadPerLevel: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, opt, err := Solve(context.Background(), in, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	if !ws.prepare(context.Background(), in, opt-1, Options{}) {
		t.Fatalf("no candidates at T=%d; pick an instance with slack under OPT", opt-1)
	}
	// Sanity: the replayed search must exhaust the tree, not find a
	// solution (a success would leave committed state behind).
	if ok, err := ws.search(); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatalf("feasible at T=%d < OPT=%d", opt-1, opt)
	}
	var searchErr error
	found := false
	allocs := testing.AllocsPerRun(5, func() {
		ok, err := ws.search()
		if err != nil {
			searchErr = err
		}
		if ok {
			found = true
		}
	})
	if searchErr != nil {
		t.Fatal(searchErr)
	}
	if found {
		t.Fatal("search found an assignment below OPT")
	}
	if allocs != 0 {
		t.Errorf("DFS allocates %v/op steady-state, want 0", allocs)
	}
}

// TestWorkspaceReuseMatchesFresh sweeps feasibility probes over a range
// of T with one reused Workspace and asserts verdict-and-assignment
// equality with fresh per-probe state — the reuse must be invisible.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	in, err := workload.Generate(workload.Config{
		Topology: workload.SMPCMP, Branching: []int{2, 2},
		Jobs: 8, Seed: 7, MinWork: 10, MaxWork: 60,
		SpeedSpread: 0.3, OverheadPerLevel: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, opt, err := Solve(context.Background(), in, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	ctx := context.Background()
	for T := opt - 3; T <= opt+3; T++ {
		if T < 1 {
			continue
		}
		aWS, okWS, errWS := FeasibleAssignment(ctx, in, T, Options{}, ws)
		aFresh, okFresh, errFresh := FeasibleAssignment(ctx, in, T, Options{}, nil)
		if (errWS == nil) != (errFresh == nil) {
			t.Fatalf("T=%d: err mismatch: ws=%v fresh=%v", T, errWS, errFresh)
		}
		if okWS != okFresh {
			t.Fatalf("T=%d: verdict mismatch: ws=%v fresh=%v", T, okWS, okFresh)
		}
		if okWS {
			if len(aWS) != len(aFresh) {
				t.Fatalf("T=%d: assignment length mismatch", T)
			}
			for j := range aWS {
				if aWS[j] != aFresh[j] {
					t.Fatalf("T=%d: assignment differs at job %d: ws=%d fresh=%d", T, j, aWS[j], aFresh[j])
				}
			}
		}
	}
}
