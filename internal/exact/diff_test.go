package exact_test

import (
	"context"
	"math/rand"
	"testing"

	"hsp/internal/exact"
	"hsp/internal/relax"
	"hsp/internal/testdiff"
)

// smallCases filters the differential corpus down to instances the exact
// solver finishes quickly (the harness generates some with hundreds of
// thousands of DFS nodes; the differential point is answer equality, not
// endurance).
func smallCases(seed int64, want int) []testdiff.Case {
	var out []testdiff.Case
	for _, c := range testdiff.Cases(seed, 6*want) {
		if c.In.N() <= 12 && c.In.Family.Len() <= 12 {
			out = append(out, c)
			if len(out) == want {
				break
			}
		}
	}
	return out
}

// TestDifferentialSolveSharedVsFresh solves each instance twice — on one
// shared workspace (warm LP seeding, reused DFS buffers, reused twin
// tables) and on a fresh pooled path — and requires identical optima and
// valid witnesses. The shared workspace's LP probes warm-start across
// instances; the answers must not notice.
func TestDifferentialSolveSharedVsFresh(t *testing.T) {
	ctx := context.Background()
	shared := exact.NewWorkspace()
	for _, c := range smallCases(21, 40) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			aShared, optShared, err := exact.Solve(ctx, c.In, exact.Options{}, shared)
			if err != nil {
				t.Fatalf("shared: %v", err)
			}
			aFresh, optFresh, err := exact.Solve(ctx, c.In, exact.Options{}, nil)
			if err != nil {
				t.Fatalf("fresh: %v", err)
			}
			if optShared != optFresh {
				t.Fatalf("optimum differs: shared=%d fresh=%d", optShared, optFresh)
			}
			if err := aShared.Check(c.In, optShared); err != nil {
				t.Fatalf("shared witness invalid: %v", err)
			}
			if err := aFresh.Check(c.In, optFresh); err != nil {
				t.Fatalf("fresh witness invalid: %v", err)
			}
			// The optimum can never beat the LP bound.
			lpT, _, err := relax.MinFeasibleT(ctx, c.In, nil)
			if err != nil {
				t.Fatalf("lp bound: %v", err)
			}
			if optShared < lpT {
				t.Fatalf("optimum %d below LP bound %d", optShared, lpT)
			}
		})
	}
}

// TestDifferentialNodeCapParity fixes the cap semantics: under a random
// MaxNodes budget, the shared-workspace solve and the fresh solve must
// agree on whether the cap fires. The canonical node count is part of
// the solver's observable contract (the golden experiment outputs fall
// back to the 2-approximation exactly when the cap fires), so the
// twin-pair pruning must bill skipped branches as if they were explored.
func TestDifferentialNodeCapParity(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(99))
	shared := exact.NewWorkspace()
	for _, c := range smallCases(33, 30) {
		caps := []int{1 + rng.Intn(50), 100 + rng.Intn(2000), 100_000}
		for _, cap := range caps {
			opts := exact.Options{MaxNodes: cap}
			_, optShared, errShared := exact.Solve(ctx, c.In, opts, shared)
			_, optFresh, errFresh := exact.Solve(ctx, c.In, opts, nil)
			if (errShared == nil) != (errFresh == nil) {
				t.Fatalf("%s cap=%d: cap-error disagreement: shared=%v fresh=%v",
					c.Name, cap, errShared, errFresh)
			}
			if errShared == nil && optShared != optFresh {
				t.Fatalf("%s cap=%d: optimum differs: shared=%d fresh=%d",
					c.Name, cap, optShared, optFresh)
			}
		}
	}
}

// TestExactWorkspaceStats sanity-checks the probe counters: solving
// accumulates probes and node counts, visited never exceeds canonical
// (pruning only skips work, never invents it), and ResetStats zeroes.
func TestExactWorkspaceStats(t *testing.T) {
	ctx := context.Background()
	ws := exact.NewWorkspace()
	for _, c := range smallCases(5, 6) {
		if _, _, err := exact.Solve(ctx, c.In, exact.Options{}, ws); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
	st := ws.Stats()
	if st.Probes == 0 || st.Canonical == 0 {
		t.Fatalf("counters did not accumulate: %+v", st)
	}
	if st.Visited > st.Canonical {
		t.Fatalf("visited %d exceeds canonical %d", st.Visited, st.Canonical)
	}
	if st.Relax.Probes == 0 {
		t.Fatalf("relax seeding probes not counted: %+v", st)
	}
	ws.ResetStats()
	if st = ws.Stats(); st != (exact.Stats{}) {
		t.Fatalf("ResetStats left %+v", st)
	}
}
