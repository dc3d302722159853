package relax_test

import (
	"context"
	"testing"

	"hsp/internal/lp"
	"hsp/internal/model"
	"hsp/internal/relax"
	"hsp/internal/testdiff"
	"hsp/internal/workload"
)

// benchInstance is the E12-shaped workload: an SMP-CMP hierarchy whose
// (IP-3) binary search re-solves four near-identical LPs per call.
func benchInstance(b *testing.B, jobs int) *model.Instance {
	return smpcmpInstance(b, []int{2, 2, 2}, jobs, 42)
}

// e12LargeSeed is the workload seed of E12's last full-size row (m=32,
// n=160) at hbench's default base seed 7: the fifth draw of E12's
// row-seed generator, rand.NewSource(expt.DeriveSeed(7, "E12") + 9).
const e12LargeSeed = 8994422357648994748

// e12LargeInstance is E12's largest row: 32 machines under a five-level
// binary SMP-CMP tree and 160 jobs. Each probe's (IP-3) LP has 10,080
// variables and 223 rows, a 223×10,303 tableau.
func e12LargeInstance(tb testing.TB) *model.Instance {
	return smpcmpInstance(tb, []int{2, 2, 2, 2, 2}, 160, e12LargeSeed)
}

// smpcmpInstance generates E12's workload shape with singletons added,
// as approx.TwoApprox presents it to MinFeasibleT.
func smpcmpInstance(tb testing.TB, branching []int, jobs int, seed int64) *model.Instance {
	tb.Helper()
	in, err := workload.Generate(workload.Config{
		Topology: workload.SMPCMP, Branching: branching,
		Jobs: jobs, Seed: seed, MinWork: 10, MaxWork: 100,
		SpeedSpread: 0.5, OverheadPerLevel: 0.3,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return in.WithSingletons()
}

// reportLPWork reports the simplex work of b.N searches: pivots/op and
// rowupdates/op, the tableau rows those pivots eliminated.
func reportLPWork(b *testing.B, c lp.Counters) {
	b.ReportMetric(float64(c.Pivots)/float64(b.N), "pivots/op")
	b.ReportMetric(float64(c.RowUpdates)/float64(b.N), "rowupdates/op")
}

// BenchmarkMinFeasibleT is the LP binary search of Section V — the
// measured hot path of E12 — end to end on a medium instance, on a fresh
// workspace per search.
func BenchmarkMinFeasibleT(b *testing.B) {
	in := benchInstance(b, 24)
	var work lp.Counters
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws := relax.NewWorkspace()
		T, err := relax.MinFeasibleT(context.Background(), in, ws)
		if err != nil {
			b.Fatal(err)
		}
		if T <= 0 {
			b.Fatalf("T* = %d", T)
		}
		st := ws.Stats().LP
		work.Pivots += st.Pivots
		work.RowUpdates += st.RowUpdates
	}
	b.StopTimer()
	reportLPWork(b, work)
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
		T, err := relax.MinFeasibleT(ctx, in, ws)
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
		reportLPWork(b, st.LP)
		b.ReportMetric(float64(st.LP.WarmHits)/float64(st.LP.Solves), "warmhit-ratio")
	}
}

// BenchmarkMinFeasibleTLarge runs the warm binary search on E12's
// largest row, the shape where an unbounded dual re-entry would run for
// minutes. The cold variant is the oracle, testdiff.ColdMinFeasibleT;
// compare the two pivots/op figures for the warm path's saving at this
// size.
func BenchmarkMinFeasibleTLarge(b *testing.B) {
	in := e12LargeInstance(b)
	ctx := context.Background()
	b.Run("warm", func(b *testing.B) {
		ws := relax.NewWorkspace()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := relax.MinFeasibleT(ctx, in, ws); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportLPWork(b, ws.Stats().LP)
	})
	b.Run("cold", func(b *testing.B) {
		var work lp.Counters
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, st, err := testdiff.ColdMinFeasibleT(ctx, in)
			if err != nil {
				b.Fatal(err)
			}
			work.Pivots += st.Pivots
			work.RowUpdates += st.RowUpdates
		}
		b.StopTimer()
		reportLPWork(b, work)
	})
}
