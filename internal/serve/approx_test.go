package serve

import (
	"context"
	"strings"
	"testing"

	"hsp/internal/approx"
	"hsp/internal/model"
	"hsp/internal/relax"
	"hsp/internal/workload"
)

// TestApproxAnswersCertified: a 2approx or best answer leaves only if
// it carries Theorem V.2's certificate, a positive LP bound T* with
// makespan ≤ 2·T*.
func TestApproxAnswersCertified(t *testing.T) {
	in, err := workload.Generate(workload.Config{
		Topology: workload.SMPCMP, Branching: []int{2, 2}, Jobs: 12, Seed: 5,
		MinWork: 10, MaxWork: 60, SpeedSpread: 0.3, OverheadPerLevel: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	origTwo, origBest := twoApprox, bestApprox
	t.Cleanup(func() { twoApprox, bestApprox = origTwo, origBest })
	type solveFunc = func(context.Context, *model.Instance, *relax.Workspace) (*approx.Result, error)
	bendWith := func(bend func(r *approx.Result)) {
		wrap := func(solve solveFunc) solveFunc {
			return func(ctx context.Context, in *model.Instance, ws *relax.Workspace) (*approx.Result, error) {
				r, err := solve(ctx, in, ws)
				if err == nil {
					bend(r)
				}
				return r, err
			}
		}
		twoApprox, bestApprox = wrap(origTwo), wrap(origBest)
	}
	run := func(algo string) (*Outcome, error) {
		return Run(context.Background(), in, &Request{Algo: algo}, nil)
	}
	algos := []string{Algo2Approx, AlgoBest}

	// An answer at exactly 2·T* passes.
	bendWith(func(r *approx.Result) { r.Makespan = 2 * r.LPBound })
	for _, algo := range algos {
		if _, err := run(algo); err != nil {
			t.Fatalf("%s: answer at 2·T* refused: %v", algo, err)
		}
	}
	for _, c := range []struct {
		name string
		bend func(r *approx.Result)
	}{
		{"makespan 2·T*+1", func(r *approx.Result) { r.Makespan = 2*r.LPBound + 1 }},
		{"zero bound", func(r *approx.Result) { r.LPBound = 0 }},
	} {
		bendWith(c.bend)
		for _, algo := range algos {
			if out, err := run(algo); err == nil || !strings.Contains(err.Error(), "Theorem V.2 violated") {
				t.Fatalf("%s/%s: answered %+v with err=%v", c.name, algo, out, err)
			}
		}
	}
}
