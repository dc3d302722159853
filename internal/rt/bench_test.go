package rt

import (
	"context"
	"testing"

	"hsp/internal/workload"
)

// BenchmarkSweep answers one admission sweep — frames T*−1, T*, the
// bracket's midpoint and the 2-approximation's makespan, as a daemon
// client's /v1/batch asks them — on a task set of the serve benchmark's
// large class (8 machines, 18 tasks, semi-partitioned). "fresh" runs
// four one-shot tests; "tester" runs one Tester for all four frames.
func BenchmarkSweep(b *testing.B) {
	in, err := workload.Generate(workload.Config{
		Topology: workload.SemiPartitioned, Machines: 8, Jobs: 18, Seed: 1,
		MinWork: 2, MaxWork: 30, OverheadPerLevel: 0.25,
	})
	if err != nil {
		b.Fatal(err)
	}
	t, a := bracket(b, in)
	frames := []int64{t - 1, t, (t + a) / 2, a}
	ctx := context.Background()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range frames {
				if _, err := newTester(b, in).Test(ctx, f, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("tester", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ts := newTester(b, in)
			for _, f := range frames {
				if _, err := ts.Test(ctx, f, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
