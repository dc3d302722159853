package relax_test

import (
	"context"
	"testing"

	"hsp/internal/relax"
	"hsp/internal/workload"
)

// TestWorkspaceReuseMatchesFresh runs the binary search over several
// instances with one shared Workspace and asserts T* and the witness
// Fractional match fresh per-call state — workspace reuse must be
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
		tWS, frWS, errWS := relax.MinFeasibleT(ctx, ins, ws)
		tFresh, frFresh, errFresh := relax.MinFeasibleT(ctx, ins, nil)
		if (errWS == nil) != (errFresh == nil) {
			t.Fatalf("seed %d: err mismatch: ws=%v fresh=%v", cfg.Seed, errWS, errFresh)
		}
		if errWS != nil {
			continue
		}
		if tWS != tFresh {
			t.Fatalf("seed %d: T* mismatch: ws=%d fresh=%d", cfg.Seed, tWS, tFresh)
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
