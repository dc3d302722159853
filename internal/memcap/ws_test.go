package memcap

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"hsp/internal/relax"
	"hsp/internal/testenv"
)

// TestProbeRebuildSteadyStateAllocs pins the binary search's probe
// rebuild — enumerating the pairs at T, filling every packing and
// writing the LP into the workspace's problem — at zero allocations once
// the search's first (largest-T) probe has grown the buffers.
func TestProbeRebuildSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are gated by make bench-alloc")
	}
	rng := rand.New(rand.NewSource(5))
	ws := relax.NewWorkspace()
	for _, c := range []struct {
		name string
		b    *builder
	}{
		{"model1", model1Builder(randomModel1(rng))},
		{"model2", model2Builder(randomModel2(rng, 2, 2, 2))},
	} {
		in := c.b.in
		lo, hi := in.LowerBoundSimple(), in.TrivialUpperBound()
		c.b.build(hi)
		if !c.b.load(ws.Problem()) {
			t.Fatalf("%s: no variable for some job at the trivial upper bound", c.name)
		}
		allocs := testing.AllocsPerRun(10, func() {
			for _, T := range []int64{hi, lo + (hi-lo)/2, lo} {
				c.b.build(T)
				c.b.load(ws.Problem())
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warmed probe rebuild allocates %v/op, want 0", c.name, allocs)
		}
	}
}

// TestSolveDeterministic: the Lemma VI.2 drop rule sums each packing's
// residual in increasing variable order, so a packing at the ρ·B
// boundary is dropped on every run or on none. One instance per model,
// each of whose roundings drops packings, is solved 50 times on fresh and
// on one shared workspace; every Result must equal the first.
func TestSolveDeterministic(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(8))
	m1 := randomModel1(rng)
	m2 := randomModel2(rng, 2, 2, 2)
	for _, b := range []*builder{model1Builder(m1), model2Builder(m2)} {
		ws := relax.NewWorkspace()
		tlp, err := minFeasibleT(ctx, b, ws)
		if err != nil {
			t.Fatal(err)
		}
		b.build(tlp)
		rr, err := iterativeRound(ctx, b, ws)
		if err != nil {
			t.Fatal(err)
		}
		if rr.dropped == 0 {
			t.Fatal("the rounding dropped no packing; pick an instance that reaches the drop rule")
		}
	}
	want1, err := SolveModel1(ctx, m1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := SolveModel2(ctx, m2, nil)
	if err != nil {
		t.Fatal(err)
	}
	shared := relax.NewWorkspace()
	for i := 0; i < 50; i++ {
		for _, ws := range []*relax.Workspace{nil, shared} {
			got1, err := SolveModel1(ctx, m1, ws)
			if err != nil || !reflect.DeepEqual(got1, want1) {
				t.Fatalf("run %d (shared=%v): model 1 answered %+v, %v; want %+v", i, ws != nil, got1, err, want1)
			}
			got2, err := SolveModel2(ctx, m2, ws)
			if err != nil || !reflect.DeepEqual(got2, want2) {
				t.Fatalf("run %d (shared=%v): model 2 answered %+v, %v; want %+v", i, ws != nil, got2, err, want2)
			}
		}
	}
}
