package relax_test

import (
	"context"
	"testing"
	"time"

	"hsp/internal/relax"
	"hsp/internal/testenv"
	"hsp/internal/workload"
)

// TestWorkspaceReuseMatchesFresh runs the binary search over several
// instances with one shared Workspace and asserts T* and the witness
// Fractional at T* match fresh per-call state — workspace reuse must be
// invisible, including across instances of different shapes.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	ws := relax.NewWorkspace()
	ctx := context.Background()
	for _, cfg := range []workload.Config{
		{Topology: workload.SMPCMP, Branching: []int{2, 2, 2}, Jobs: 14, Seed: 3,
			MinWork: 10, MaxWork: 90, SpeedSpread: 0.4, OverheadPerLevel: 0.25},
		{Topology: workload.Clustered, Clusters: 3, ClusterSize: 2, Jobs: 9, Seed: 5,
			MinWork: 20, MaxWork: 50, SpeedSpread: 0.2},
		{Topology: workload.SemiPartitioned, Machines: 4, Jobs: 12, Seed: 11,
			MinWork: 5, MaxWork: 70},
	} {
		in, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ins := in.WithSingletons()
		tWS, errWS := relax.MinFeasibleT(ctx, ins, ws)
		tFresh, errFresh := relax.MinFeasibleT(ctx, ins, nil)
		if (errWS == nil) != (errFresh == nil) {
			t.Fatalf("seed %d: err mismatch: ws=%v fresh=%v", cfg.Seed, errWS, errFresh)
		}
		if errWS != nil {
			continue
		}
		if tWS != tFresh {
			t.Fatalf("seed %d: T* mismatch: ws=%d fresh=%d", cfg.Seed, tWS, tFresh)
		}
		okWS, frWS, errWS := relax.Feasible(ctx, ins, tWS, ws)
		okFresh, frFresh, errFresh := relax.Feasible(ctx, ins, tFresh, nil)
		if !okWS || !okFresh || errWS != nil || errFresh != nil {
			t.Fatalf("seed %d: no witness at T*=%d: ws %v/%v, fresh %v/%v",
				cfg.Seed, tWS, okWS, errWS, okFresh, errFresh)
		}
		for s := range frWS.X {
			for j := range frWS.X[s] {
				if frWS.X[s][j] != frFresh.X[s][j] {
					t.Fatalf("seed %d: fractional differs at x[%d][%d]: ws=%g fresh=%g",
						cfg.Seed, s, j, frWS.X[s][j], frFresh.X[s][j])
				}
			}
		}
	}
}

// TestWarmSearchBoundedOnLargeShape pins the dual re-entry's pivot
// budget on E12's largest row. There, an unbounded re-entry drifted
// through tens of thousands of pivots per probe and the warm search ran
// for minutes where the cold search takes seconds. The warm search must
// find the cold T* and spend no more simplex pivots than the cold one.
func TestWarmSearchBoundedOnLargeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("solves E12's largest LP shape")
	}
	if testenv.RaceEnabled {
		// Single-goroutine dense pivoting: race instrumentation only
		// multiplies the wall time.
		t.Skip("large single-goroutine LP search under -race")
	}
	in := e12LargeInstance(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	search := func(warm bool) (int64, relax.Stats) {
		ws := relax.NewWorkspace()
		ws.LP.SetWarmStart(warm)
		T, err := relax.MinFeasibleT(ctx, in, ws)
		if err != nil {
			t.Fatalf("warm=%t: %v", warm, err)
		}
		return T, ws.Stats()
	}
	coldT, cold := search(false)
	warmT, warm := search(true)
	if warmT != coldT {
		t.Fatalf("T* warm=%d cold=%d", warmT, coldT)
	}
	if warm.LP.Pivots > cold.LP.Pivots {
		t.Fatalf("warm search pivoted %d times, cold %d (warm hits %d, fallbacks %d)",
			warm.LP.Pivots, cold.LP.Pivots, warm.LP.WarmHits, warm.LP.WarmFallbacks)
	}
	t.Logf("T*=%d pivots warm=%d cold=%d; warm hits %d, fallbacks %d",
		warmT, warm.LP.Pivots, cold.LP.Pivots, warm.LP.WarmHits, warm.LP.WarmFallbacks)
}
