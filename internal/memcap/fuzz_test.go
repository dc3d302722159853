package memcap_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"hsp/internal/memcap"
	"hsp/internal/relax"
	"hsp/internal/workload"
)

// FuzzMemcapWorkspace: memcap answers never depend on what the workspace
// solved before. One relax.Workspace runs a generated sequence of
// relax.MinFeasibleT, SolveModel1 and SolveModel2 calls on different
// instances; every memcap answer must equal a fresh-workspace solve of
// the same input, field for field, and its T_LP must pass checkTLP.
func FuzzMemcapWorkspace(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2})
	f.Add(int64(7), []byte{2, 1, 0, 1, 2})
	f.Add(int64(42), []byte{1, 4, 2, 5, 0, 3})
	f.Add(int64(3), []byte{0x41, 0xc5, 0x92, 0x80, 0xd6, 0xe9})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 6 {
			ops = ops[:6]
		}
		ctx := context.Background()
		ws := relax.NewWorkspace()
		for k, op := range ops {
			in, err := workload.Generate(workload.Config{
				Topology: []workload.Topology{workload.SemiPartitioned, workload.Clustered, workload.RandomLaminar}[int(op>>2)%3],
				Machines: 2 + int(op>>4)%5, Clusters: 2, ClusterSize: 1 + int(op>>4)%3,
				Jobs: 3 + int(op>>6)*3, Seed: seed + int64(k),
				MinWork: 2, MaxWork: 30, OverheadPerLevel: 0.25,
			})
			if err != nil {
				t.Skip(err)
			}
			step := fmt.Sprintf("op %d (%d)", k, op)
			switch op % 3 {
			case 0:
				if _, err := relax.MinFeasibleT(ctx, in, ws); err != nil {
					t.Fatalf("%s: MinFeasibleT: %v", step, err)
				}
			case 1:
				m1, err := workload.AttachModel1(in, workload.MemoryConfig{MinSize: 1, MaxSize: 10, BudgetSlack: 0.5 + float64(op%4)/2}, seed)
				if err != nil {
					t.Fatal(err)
				}
				got, gotErr := memcap.SolveModel1(ctx, m1, ws)
				want, wantErr := memcap.SolveModel1(ctx, m1, nil)
				sameAnswer(t, step+" model 1", got, gotErr, want, wantErr)
				checkTLP(t, step+" model 1", got, gotErr, m1)
			case 2:
				m2, err := workload.AttachModel2(in, workload.MemoryConfig{Mu: 1.2 + float64(op%4)/2}, seed)
				if err != nil {
					t.Fatal(err)
				}
				if m2.Validate() != nil {
					continue // Model 2 needs a tree with a uniform leaf level
				}
				got, gotErr := memcap.SolveModel2(ctx, m2, ws)
				want, wantErr := memcap.SolveModel2(ctx, m2, nil)
				sameAnswer(t, step+" model 2", got, gotErr, want, wantErr)
				checkTLP(t, step+" model 2", got, gotErr, m2)
			}
		}
	})
}

// sameAnswer fails unless both solves failed alike or agree on every
// reported field.
func sameAnswer(t *testing.T, step string, got *memcap.Result, gotErr error, want *memcap.Result, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: reused workspace: %v; fresh: %v", step, gotErr, wantErr)
		}
		return
	}
	if got.TLP != want.TLP || !reflect.DeepEqual(got.Assignment, want.Assignment) ||
		got.Makespan != want.Makespan || got.Fallbacks != want.Fallbacks ||
		math.Float64bits(got.MemFactor) != math.Float64bits(want.MemFactor) ||
		math.Float64bits(got.LoadFactor) != math.Float64bits(want.LoadFactor) {
		t.Fatalf("%s: reused workspace answered %+v, fresh %+v", step, got, want)
	}
}

// checkTLP fails unless a successful solve's T_LP lies in
// [lo, TrivialUpperBound], with lo relax.Bracket's, and equals the
// loose-bracket reference search memcap.LooseTLP. A solve whose search
// found no feasible T must agree with the reference; any other failure
// was already matched against a fresh solve by sameAnswer.
func checkTLP(t *testing.T, step string, got *memcap.Result, gotErr error, m any) {
	t.Helper()
	ref, err := memcap.LooseTLP(context.Background(), m)
	if gotErr != nil {
		if err == nil && strings.Contains(gotErr.Error(), "fractionally infeasible") {
			t.Fatalf("%s: search found no T_LP, the reference search %d", step, ref)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: T_LP=%d, reference search: %v", step, got.TLP, err)
	}
	lo, _, _ := relax.Bracket(got.Instance, relax.NewWorkspace())
	if got.TLP < lo || got.TLP > got.Instance.TrivialUpperBound() || got.TLP != ref {
		t.Fatalf("%s: T_LP=%d, bracket lo %d, trivial bound %d, reference %d",
			step, got.TLP, lo, got.Instance.TrivialUpperBound(), ref)
	}
}
