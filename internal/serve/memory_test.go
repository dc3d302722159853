package serve

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"hsp/internal/memcap"
	"hsp/internal/model"
	"hsp/internal/workload"
)

// TestMemoryAnswersCertified: a memory1/memory2 answer leaves only if its
// schedule validates, its makespan is at least its positive relaxation
// bound, and — when the rounding needed no fallback — its load and memory
// factors are within Theorem VI.1's 3 or Theorem VI.3's σ.
func TestMemoryAnswersCertified(t *testing.T) {
	in, err := workload.Generate(workload.Config{
		Topology: workload.SemiPartitioned, Machines: 4, Jobs: 10, Seed: 3,
		MinWork: 2, MaxWork: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	m1, err := workload.AttachModel1(in, workload.MemoryConfig{MinSize: 1, MaxSize: 10, BudgetSlack: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := workload.AttachModel2(in, workload.MemoryConfig{Mu: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs := map[string]*Request{
		AlgoMemory1: {Algo: AlgoMemory1, Instance: buf.Bytes(), Memory: &MemorySpec{Budget: m1.Budget, Size: m1.Size}},
		AlgoMemory2: {Algo: AlgoMemory2, Instance: buf.Bytes(), Memory: &MemorySpec{JobSize: m2.JobSize, Mu: m2.Mu}},
	}
	// σ = 3 + 1/m for this two-level family.
	bounds := map[string]float64{AlgoMemory1: 3, AlgoMemory2: memcap.SigmaTwoLevel(in.M())}

	outs := map[string]*Outcome{}
	// The real answers pass.
	for algo, req := range reqs {
		out, err := Run(context.Background(), in, req, nil)
		if err != nil {
			t.Fatalf("%s: unbent answer refused: %v", algo, err)
		}
		outs[algo] = out
	}
	for _, c := range []struct {
		name  string
		bend  func(o *Outcome, bound float64)
		error string
	}{
		{"invalid schedule", func(o *Outcome, _ float64) {
			s := *o.Schedule
			s.Intervals = s.Intervals[1:]
			o.Schedule = &s
		}, "failed validation"},
		{"makespan below bound", func(o *Outcome, _ float64) { o.LPBound = o.Makespan + 1 }, "below its relaxation bound"},
		{"zero bound", func(o *Outcome, _ float64) { o.LPBound = 0 }, "below its relaxation bound"},
		{"load factor", func(o *Outcome, b float64) { o.Fallbacks, o.LoadFactor = 0, b+0.01 }, "violated"},
		{"memory factor", func(o *Outcome, b float64) { o.Fallbacks, o.MemFactor = 0, b+0.01 }, "violated"},
	} {
		for algo, out := range outs {
			err := bent(out, func(o *Outcome) { c.bend(o, bounds[algo]) })
			if err == nil || !strings.Contains(err.Error(), c.error) {
				t.Fatalf("%s/%s: certified with err=%v, want %q", c.name, algo, err, c.error)
			}
		}
	}
	// The theorems cover fallback-free roundings only: with a fallback,
	// factors beyond the bound are answered.
	for algo, out := range outs {
		if err := bent(out, func(o *Outcome) { o.Fallbacks, o.MemFactor = 1, bounds[algo]+1 }); err != nil {
			t.Fatalf("%s: answer with a fallback refused: %v", algo, err)
		}
	}
}
