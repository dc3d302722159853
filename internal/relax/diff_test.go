package relax_test

import (
	"context"
	"testing"

	"hsp/internal/model"
	"hsp/internal/relax"
	"hsp/internal/testdiff"
)

// TestDifferentialWarmVsCold drives the differential harness over 220
// seeded instances: for each one, a warm-starting binary search must
// return the same T* and the bitwise-same witness as the cold oracle,
// and the witness must satisfy the relaxation's constraints.
func TestDifferentialWarmVsCold(t *testing.T) {
	cases := testdiff.Cases(1, 220)
	if len(cases) < 200 {
		t.Fatalf("only %d cases generated", len(cases))
	}
	ctx := context.Background()
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if err := testdiff.RelaxDiff(ctx, c.In); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLemmaV1SingletonProjection drives testdiff.CheckLemmaV1 over the
// same 220 instances: the hierarchical T* equals the T* of the unrelated
// projection on the singleton family (up to one at an LP-tolerance tie,
// which TwoApprox must absorb), and TwoApprox's and LST's roundings of
// the projection stay within twice their bounds.
func TestLemmaV1SingletonProjection(t *testing.T) {
	ctx := context.Background()
	for _, c := range testdiff.Cases(1, 220) {
		if err := testdiff.CheckLemmaV1(ctx, c.In); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
}

// TestDifferentialProbeMonotone scans a window of T values around T* on
// a warm workspace: verdicts must match the cold oracle's and be
// monotone in T (infeasible below T*, feasible at and above it).
func TestDifferentialProbeMonotone(t *testing.T) {
	ctx := context.Background()
	for _, c := range testdiff.Cases(7, 24) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if err := testdiff.ProbeMonotone(ctx, c.In, 6); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWarmStalenessInterleaved interleaves structurally different
// instances on one workspace: the warm basis retained for instance A
// must be discarded — not misapplied — when instance B arrives, so
// every verdict matches a fresh-workspace solve.
func TestWarmStalenessInterleaved(t *testing.T) {
	ctx := context.Background()
	cases := testdiff.Cases(11, 12)
	shared := relax.NewWorkspace()
	// Two passes over the cases, alternating direction, so each instance
	// is seen right after a differently-shaped one (and once more later,
	// after the workspace grew on bigger instances in between).
	order := make([]int, 0, 2*len(cases))
	for i := range cases {
		order = append(order, i)
	}
	for i := len(cases) - 1; i >= 0; i-- {
		order = append(order, i)
	}
	for _, i := range order {
		c := cases[i]
		tShared, err := relax.MinFeasibleT(ctx, c.In, shared)
		if err != nil {
			t.Fatalf("%s shared: %v", c.Name, err)
		}
		fresh := relax.NewWorkspace()
		tFresh, err := relax.MinFeasibleT(ctx, c.In, fresh)
		if err != nil {
			t.Fatalf("%s fresh: %v", c.Name, err)
		}
		if tShared != tFresh {
			t.Fatalf("%s: shared-ws T*=%d, fresh T*=%d", c.Name, tShared, tFresh)
		}
		okShared, frShared, errShared := relax.Feasible(ctx, c.In, tShared, shared)
		okFresh, frFresh, errFresh := relax.Feasible(ctx, c.In, tFresh, fresh)
		if !okShared || !okFresh || errShared != nil || errFresh != nil {
			t.Fatalf("%s: no witness at T*=%d: shared %v/%v, fresh %v/%v",
				c.Name, tShared, okShared, errShared, okFresh, errFresh)
		}
		for s := range frShared.X {
			for j := range frShared.X[s] {
				if frShared.X[s][j] != frFresh.X[s][j] {
					t.Fatalf("%s: witness differs at x[%d][%d]", c.Name, s, j)
				}
			}
		}
	}
}

// bareSearchProbes counts the probes of a bare binary search over
// relax.Bracket's [lo, hi] whose verdict at mid is mid ≥ tStar. When no
// probe is feasible, tStar is hi, which the bracket's own assignment
// certifies without an LP.
func bareSearchProbes(in *model.Instance, tStar int64) int {
	lo, hi, _ := relax.Bracket(in, relax.NewWorkspace())
	probes := 0
	for ; lo < hi; probes++ {
		if mid := lo + (hi-lo)/2; mid >= tStar {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return probes
}

// TestBracketHoldsTStar checks relax.Bracket over the differential
// corpus: T* lies in [lo, hi], the bracket's assignment satisfies (IP-3)
// at hi exactly, and T* equals a cold search over the loose bracket.
func TestBracketHoldsTStar(t *testing.T) {
	ctx := context.Background()
	for _, c := range testdiff.Cases(1, 220) {
		tStar, err := relax.MinFeasibleT(ctx, c.In, relax.NewWorkspace())
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if err := testdiff.CheckBracket(ctx, c.In, tStar); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
}

// TestWarmStartActuallyFires guards the point of the whole exercise: on
// a reused workspace the binary search must answer a meaningful share of
// probes from the warm path, with strictly fewer pivots than cold. It
// also pins the search to verdict probes alone: no probe beyond the
// bare binary search's steps, so no witness solve at T*.
func TestWarmStartActuallyFires(t *testing.T) {
	ctx := context.Background()
	var warmHits, probes, warmPivots, coldPivots int
	for _, c := range testdiff.Cases(3, 40) {
		ws := relax.NewWorkspace()
		tStar, err := relax.MinFeasibleT(ctx, c.In, ws)
		if err != nil {
			continue
		}
		st := ws.Stats()
		if want := bareSearchProbes(c.In, tStar); st.Probes != want {
			t.Fatalf("%s: search ran %d probes, a bare binary search %d", c.Name, st.Probes, want)
		}
		warmHits += st.LP.WarmHits
		probes += st.Probes
		warmPivots += st.LP.Pivots

		_, cold, err := testdiff.ColdMinFeasibleT(ctx, c.In)
		if err != nil {
			continue
		}
		coldPivots += cold.Pivots
	}
	if probes == 0 || warmHits*2 < probes {
		t.Fatalf("warm path answered %d of %d probes — warm start effectively off", warmHits, probes)
	}
	if warmPivots*2 >= coldPivots {
		t.Fatalf("warm searches spent %d pivots vs %d cold — no meaningful saving", warmPivots, coldPivots)
	}
	t.Logf("warm hits %d/%d probes, pivots %d vs %d cold (%.1fx)",
		warmHits, probes, warmPivots, coldPivots, float64(coldPivots)/float64(warmPivots))
}
