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
	T, err := relax.MinFeasibleT(context.Background(), in.WithSingletons(), nil)
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

// BenchmarkFeasibleAssignmentCapped is one E15 probe that exhausts the
// experiment's 200,000-node cap: an E15-shaped instance (SMP-CMP 2·2·2,
// 12 jobs, work 20–60) at its LP bound, on a reused workspace. nodes/op
// counts canonical nodes (the cap's currency) and ns/node is the time per
// canonical node, the DFS kernel's cost.
func BenchmarkFeasibleAssignmentCapped(b *testing.B) {
	in, err := workload.Generate(workload.Config{
		Topology: workload.SMPCMP, Branching: []int{2, 2, 2},
		Jobs: 12, Seed: 2, MinWork: 20, MaxWork: 60,
		SpeedSpread: 0.2, OverheadPerLevel: 0.1,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	T, err := relax.MinFeasibleT(ctx, in, nil)
	if err != nil {
		b.Fatal(err)
	}
	opts := exact.Options{MaxNodes: 200_000}
	ws := exact.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exact.FeasibleAssignment(ctx, in, T, opts, ws); err == nil {
			b.Fatalf("probe at T=%d finished under the %d-node cap", T, opts.MaxNodes)
		}
	}
	b.StopTimer()
	nodes := float64(ws.Stats().Canonical)
	b.ReportMetric(nodes/float64(b.N), "nodes/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/nodes, "ns/node")
}
