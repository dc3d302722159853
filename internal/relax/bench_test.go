package relax_test

import (
	"context"
	"testing"

	"hsp/internal/model"
	"hsp/internal/relax"
	"hsp/internal/workload"
)

// benchInstance is the E12-shaped workload: an SMP-CMP hierarchy whose
// (IP-3) binary search re-solves ~10 near-identical LPs per call.
func benchInstance(b *testing.B, jobs int) *model.Instance {
	b.Helper()
	in, err := workload.Generate(workload.Config{
		Topology: workload.SMPCMP, Branching: []int{2, 2, 2},
		Jobs: jobs, Seed: 42, MinWork: 10, MaxWork: 100,
		SpeedSpread: 0.5, OverheadPerLevel: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	return in.WithSingletons()
}

// BenchmarkMinFeasibleT is the LP binary search of Section V — the
// measured hot path of E12 — end to end on a medium instance.
func BenchmarkMinFeasibleT(b *testing.B) {
	in := benchInstance(b, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		T, _, err := relax.MinFeasibleT(context.Background(), in, nil)
		if err != nil {
			b.Fatal(err)
		}
		if T <= 0 {
			b.Fatalf("T* = %d", T)
		}
	}
}

// BenchmarkMinFeasibleTWarm is the same binary search on a reused
// workspace, where consecutive probes re-enter the previous basis with
// dual-simplex pivots. The pivots/op and warm-hit metrics quantify the
// saving over the cold search above.
func BenchmarkMinFeasibleTWarm(b *testing.B) {
	in := benchInstance(b, 24)
	ctx := context.Background()
	ws := relax.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		T, _, err := relax.MinFeasibleT(ctx, in, ws)
		if err != nil {
			b.Fatal(err)
		}
		if T <= 0 {
			b.Fatalf("T* = %d", T)
		}
	}
	b.StopTimer()
	st := ws.Stats()
	if st.Probes > 0 {
		b.ReportMetric(float64(st.LP.Pivots)/float64(b.N), "pivots/op")
		b.ReportMetric(float64(st.LP.WarmHits)/float64(st.LP.Solves), "warmhit-ratio")
	}
}
