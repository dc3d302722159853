package serve

import (
	"context"
	"strings"
	"testing"

	"hsp/internal/workload"
)

// bent certifies a copy of out after bend has changed it, leaving out
// itself as the solver answered.
func bent(out *Outcome, bend func(o *Outcome)) error {
	o := *out
	bend(&o)
	return o.certify()
}

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
	for _, algo := range []string{Algo2Approx, AlgoBest} {
		out, err := Run(context.Background(), in, &Request{Algo: algo}, nil)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		// An answer at exactly 2·T* passes.
		if err := bent(out, func(o *Outcome) { o.Makespan = 2 * o.LPBound }); err != nil {
			t.Fatalf("%s: answer at 2·T* refused: %v", algo, err)
		}
		for _, c := range []struct {
			name string
			bend func(o *Outcome)
		}{
			{"makespan 2·T*+1", func(o *Outcome) { o.Makespan = 2*o.LPBound + 1 }},
			{"zero bound", func(o *Outcome) { o.LPBound = 0 }},
		} {
			if err := bent(out, c.bend); err == nil || !strings.Contains(err.Error(), "Theorem V.2 violated") {
				t.Fatalf("%s/%s: certified with err=%v", c.name, algo, err)
			}
		}
	}
}
