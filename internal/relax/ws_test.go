package relax_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"hsp/internal/relax"
	"hsp/internal/testdiff"
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
// budget on E12's largest row. There, an unbounded re-entry drifts
// through tens of thousands of pivots per probe, turning a search of
// about a second into one of minutes. The warm search must find the
// cold T* and spend no more simplex pivots than the cold one.
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

	coldT, cold, err := testdiff.ColdMinFeasibleT(ctx, in)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	ws := relax.NewWorkspace()
	warmT, err := relax.MinFeasibleT(ctx, in, ws)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	warm := ws.Stats()
	if warmT != coldT {
		t.Fatalf("T* warm=%d cold=%d", warmT, coldT)
	}
	if warm.LP.Pivots > cold.Pivots {
		t.Fatalf("warm search pivoted %d times, cold %d (warm hits %d, fallbacks %d)",
			warm.LP.Pivots, cold.Pivots, warm.LP.WarmHits, warm.LP.WarmFallbacks)
	}
	t.Logf("T*=%d pivots warm=%d cold=%d; warm hits %d, fallbacks %d",
		warmT, warm.LP.Pivots, cold.Pivots, warm.LP.WarmHits, warm.LP.WarmFallbacks)
}

// countingCtx counts Err polls and turns canceled after limit of them
// (never, when limit is negative), so a search can be canceled in the
// middle of a given probe.
type countingCtx struct {
	context.Context
	polls, limit int
}

func (c *countingCtx) Err() error {
	if c.limit >= 0 && c.polls >= c.limit {
		return context.Canceled
	}
	c.polls++
	return nil
}

// TestWitnessAfterSearchMatchesFresh: the search's verdict probes skip
// pivot round-off residue, and no vertex solve may read a tableau they
// pivoted. On a workspace that just ran MinFeasibleT, whole or canceled
// in the middle of a probe, Feasible at T* returns the vertex of a fresh
// workspace bit for bit.
func TestWitnessAfterSearchMatchesFresh(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{42, 5, 9} {
		in := smpcmpInstance(t, []int{2, 2, 2}, 24, seed)
		tStar, err := relax.MinFeasibleT(ctx, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := relax.Feasible(ctx, in, tStar, nil)
		if err != nil || want == nil {
			t.Fatalf("seed %d: no witness at T*=%d: %v", seed, tStar, err)
		}

		// Count the search's polls, then cancel a second search halfway.
		whole := &countingCtx{Context: ctx, limit: -1}
		if _, err := relax.MinFeasibleT(whole, in, relax.NewWorkspace()); err != nil {
			t.Fatal(err)
		}
		search := func(limit int) *relax.Workspace {
			ws := relax.NewWorkspace()
			_, err := relax.MinFeasibleT(&countingCtx{Context: ctx, limit: limit}, in, ws)
			if limit >= 0 && !errors.Is(err, context.Canceled) {
				t.Fatalf("seed %d: search canceled at poll %d of %d returned %v", seed, limit, whole.polls, err)
			}
			if limit < 0 && err != nil {
				t.Fatal(err)
			}
			return ws
		}
		for _, limit := range []int{-1, whole.polls / 2} {
			_, got, err := relax.Feasible(ctx, in, tStar, search(limit))
			if err != nil || got == nil {
				t.Fatalf("seed %d: no witness on the searched workspace: %v", seed, err)
			}
			for s := range got.X {
				for j := range got.X[s] {
					if got.X[s][j] != want.X[s][j] {
						t.Fatalf("seed %d limit %d: witness differs at x[%d][%d]: %g, fresh %g",
							seed, limit, s, j, got.X[s][j], want.X[s][j])
					}
				}
			}
		}
	}
}
