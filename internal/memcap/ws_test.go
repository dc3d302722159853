package memcap

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"hsp/internal/relax"
)

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
	for _, r := range []relaxation{model1Relaxation(m1), model2Relaxation(m2)} {
		ws := relax.NewWorkspace()
		tlp, err := minFeasibleT(ctx, r.Relaxation, ws)
		if err != nil {
			t.Fatal(err)
		}
		r.Build(tlp)
		rr, err := iterativeRound(ctx, r, ws)
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
