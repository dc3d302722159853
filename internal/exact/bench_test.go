package exact_test

import (
	"context"
	"testing"

	"hsp/internal/exact"
	"hsp/internal/model"
	"hsp/internal/relax"
	"hsp/internal/workload"
)

// benchInstance is an E10-sized workload: small enough that the branch
// and bound terminates quickly, large enough that the DFS dominates.
func benchInstance(b *testing.B) *model.Instance {
	b.Helper()
	in, err := workload.Generate(workload.Config{
		Topology: workload.SMPCMP, Branching: []int{2, 2, 2},
		Jobs: 11, Seed: 42, MinWork: 25, MaxWork: 40,
		SpeedSpread: 0.15, OverheadPerLevel: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkSolve is the exact solver end to end: LP seeding, the binary
// search on T, and one branch-and-bound probe per search step.
func BenchmarkSolve(b *testing.B) {
	in := benchInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, opt, err := exact.Solve(context.Background(), in, exact.Options{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if opt <= 0 {
			b.Fatalf("opt = %d", opt)
		}
	}
}

// BenchmarkExactSolveWarm is the exact solver on a reused workspace: the
// LP seeding warm-starts probe to probe and the DFS scratch (twin
// tables, bound buffers) is reused. nodes/op counts canonical DFS nodes
// — the node-cap currency — per solve.
func BenchmarkExactSolveWarm(b *testing.B) {
	in := benchInstance(b)
	ctx := context.Background()
	ws := exact.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, opt, err := exact.Solve(ctx, in, exact.Options{}, ws)
		if err != nil {
			b.Fatal(err)
		}
		if opt <= 0 {
			b.Fatalf("opt = %d", opt)
		}
	}
	b.StopTimer()
	st := ws.Stats()
	b.ReportMetric(float64(st.Canonical)/float64(b.N), "nodes/op")
	if st.Relax.LP.Solves > 0 {
		b.ReportMetric(float64(st.Relax.LP.WarmHits)/float64(st.Relax.LP.Solves), "warmhit-ratio")
	}
}

// BenchmarkFeasibleAssignment is one branch-and-bound feasibility probe
// at the optimal makespan — the DFS inner loop the binary search runs
// once per step.
func BenchmarkFeasibleAssignment(b *testing.B) {
	in := benchInstance(b)
	T, _, err := relax.MinFeasibleT(context.Background(), in.WithSingletons(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := exact.FeasibleAssignment(context.Background(), in, T, exact.Options{}, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}
