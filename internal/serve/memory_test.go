package serve

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"hsp/internal/memcap"
	"hsp/internal/model"
	"hsp/internal/relax"
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

	orig1, orig2 := solveModel1, solveModel2
	t.Cleanup(func() { solveModel1, solveModel2 = orig1, orig2 })
	bendWith := func(bend func(r *memcap.Result, bound float64)) {
		solveModel1 = func(ctx context.Context, m *memcap.Model1, ws *relax.Workspace) (*memcap.Result, error) {
			r, err := orig1(ctx, m, ws)
			if err == nil {
				bend(r, bounds[AlgoMemory1])
			}
			return r, err
		}
		solveModel2 = func(ctx context.Context, m *memcap.Model2, ws *relax.Workspace) (*memcap.Result, error) {
			r, err := orig2(ctx, m, ws)
			if err == nil {
				bend(r, bounds[AlgoMemory2])
			}
			return r, err
		}
	}
	run := func(algo string) (*Outcome, error) {
		return Run(context.Background(), in, reqs[algo], nil)
	}

	// The real answers pass.
	for algo := range reqs {
		if _, err := run(algo); err != nil {
			t.Fatalf("%s: unbent answer refused: %v", algo, err)
		}
	}
	for _, c := range []struct {
		name  string
		bend  func(r *memcap.Result, bound float64)
		error string
	}{
		{"invalid schedule", func(r *memcap.Result, _ float64) {
			s := *r.Schedule
			s.Intervals = s.Intervals[1:]
			r.Schedule = &s
		}, "failed validation"},
		{"makespan below bound", func(r *memcap.Result, _ float64) { r.TLP = r.Makespan + 1 }, "below its relaxation bound"},
		{"zero bound", func(r *memcap.Result, _ float64) { r.TLP = 0 }, "below its relaxation bound"},
		{"load factor", func(r *memcap.Result, b float64) { r.Fallbacks, r.LoadFactor = 0, b+0.01 }, "violated"},
		{"memory factor", func(r *memcap.Result, b float64) { r.Fallbacks, r.MemFactor = 0, b+0.01 }, "violated"},
	} {
		bendWith(c.bend)
		for algo := range reqs {
			if out, err := run(algo); err == nil || !strings.Contains(err.Error(), c.error) {
				t.Fatalf("%s/%s: answered %+v with err=%v, want %q", c.name, algo, out, err, c.error)
			}
		}
	}
	// The theorems cover fallback-free roundings only: with a fallback,
	// factors beyond the bound are answered.
	bendWith(func(r *memcap.Result, b float64) { r.Fallbacks, r.MemFactor = 1, b+1 })
	for algo := range reqs {
		if _, err := run(algo); err != nil {
			t.Fatalf("%s: answer with a fallback refused: %v", algo, err)
		}
	}
}
