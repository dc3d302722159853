// Benchmarks regenerating the paper's quantitative claims: one benchmark
// per experiment in the E1–E12 index of DESIGN.md/EXPERIMENTS.md (the
// paper is theory-only, so the "tables and figures" are its worked
// examples and theorem constants). Custom metrics carry the reproduced
// quantities; run with:
//
//	go test -bench=. -benchmem
package hsp_test

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"hsp"
	"hsp/internal/expt"
)

func suite() expt.Suite { return expt.Suite{Quick: true, Seed: 7} }

// BenchmarkE1PaperExamples reproduces Examples II.1/III.1: OPT(I)=2 vs
// OPT(I_u)=3.
func BenchmarkE1PaperExamples(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		tab := suite().E1(context.Background())
		vals := map[string]string{}
		for _, r := range tab.Rows {
			vals[r[0]] = r[1]
		}
		optI, _ := strconv.ParseFloat(vals["OPT(I) hierarchical"], 64)
		optU, _ := strconv.ParseFloat(vals["OPT(I_u) unrelated"], 64)
		if optI == 0 {
			b.Fatal("missing OPT(I)")
		}
		gap = optU / optI
	}
	b.ReportMetric(gap, "gap(I_u/I)")
}

// BenchmarkE2SemiPartScheduler measures Algorithm 1 validity throughput.
func BenchmarkE2SemiPartScheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := suite().E2(context.Background())
		for _, r := range tab.Rows {
			if r[3] != r[2] {
				b.Fatalf("invalid schedules in %v", r)
			}
		}
	}
}

// BenchmarkE3MigrationBounds checks Proposition III.2's bounds hold.
func BenchmarkE3MigrationBounds(b *testing.B) {
	var worstSlack float64
	for i := 0; i < b.N; i++ {
		tab := suite().E3(context.Background())
		worstSlack = 1e9
		for _, r := range tab.Rows {
			mig, _ := strconv.Atoi(r[2])
			bound, _ := strconv.Atoi(r[3])
			if mig > bound {
				b.Fatalf("Proposition III.2 violated: %v", r)
			}
			if s := float64(bound - mig); s < worstSlack {
				worstSlack = s
			}
		}
	}
	b.ReportMetric(worstSlack, "min(bound-migr)")
}

// BenchmarkE4HierScheduler measures Algorithms 2+3 validity throughput.
func BenchmarkE4HierScheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := suite().E4(context.Background())
		for _, r := range tab.Rows {
			if r[4] != r[3] {
				b.Fatalf("invalid schedules in %v", r)
			}
		}
	}
}

// BenchmarkE5PushDown measures Lemma V.1's push-down.
func BenchmarkE5PushDown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := suite().E5(context.Background())
		for _, r := range tab.Rows {
			if r[2] != r[1] || r[3] != r[1] {
				b.Fatalf("push-down failed: %v", r)
			}
		}
	}
}

// BenchmarkE6TwoApprox reports the measured worst ALG/OPT ratio (≤ 2 by
// Theorem V.2).
func BenchmarkE6TwoApprox(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		tab := suite().E6(context.Background())
		worst = 0
		for _, r := range tab.Rows {
			v, _ := strconv.ParseFloat(r[4], 64)
			if v > worst {
				worst = v
			}
		}
		if worst > 2.0000001 {
			b.Fatalf("ratio %v exceeds 2", worst)
		}
	}
	b.ReportMetric(worst, "max(ALG/OPT)")
}

// BenchmarkE7IntegralityGapFamily reports the largest observed gap of
// Example V.1's family (→ 2).
func BenchmarkE7IntegralityGapFamily(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		tab := suite().E7(context.Background())
		for _, r := range tab.Rows {
			v, _ := strconv.ParseFloat(r[4], 64)
			if v >= 2 {
				b.Fatalf("gap must stay below 2: %v", r)
			}
			last = v
		}
	}
	b.ReportMetric(last, "gap@maxN")
}

// BenchmarkE8MemoryModel1 reports the worst bicriteria factor (≤ 3 by
// Theorem VI.1).
func BenchmarkE8MemoryModel1(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		tab := suite().E8(context.Background())
		worst = 0
		for _, r := range tab.Rows {
			load, _ := strconv.ParseFloat(r[3], 64)
			mem, _ := strconv.ParseFloat(r[4], 64)
			if load > worst {
				worst = load
			}
			if mem > worst {
				worst = mem
			}
		}
		if worst > 3.0000001 {
			b.Fatalf("factor %v exceeds 3", worst)
		}
	}
	b.ReportMetric(worst, "max-factor")
}

// BenchmarkE9MemoryModel2 reports the worst factor relative to σ = 2+H_k
// (≤ 1 by Theorem VI.3).
func BenchmarkE9MemoryModel2(b *testing.B) {
	var worstRel float64
	for i := 0; i < b.N; i++ {
		tab := suite().E9(context.Background())
		worstRel = 0
		for _, r := range tab.Rows {
			sigma, _ := strconv.ParseFloat(r[1], 64)
			load, _ := strconv.ParseFloat(r[3], 64)
			mem, _ := strconv.ParseFloat(r[4], 64)
			for _, v := range []float64{load, mem} {
				if rel := v / sigma; rel > worstRel {
					worstRel = rel
				}
			}
		}
		if worstRel > 1.0000001 {
			b.Fatalf("factor exceeds σ: %v", worstRel)
		}
	}
	b.ReportMetric(worstRel, "max-factor/σ")
}

// BenchmarkE10RegimeComparison regenerates the regime-crossover series.
func BenchmarkE10RegimeComparison(b *testing.B) {
	var globalSpread float64
	for i := 0; i < b.N; i++ {
		tab := suite().E10(context.Background())
		if len(tab.Rows) < 2 {
			b.Fatal("no crossover series")
		}
		first := parseCell(tab.Rows[0][1])
		last := parseCell(tab.Rows[len(tab.Rows)-1][1])
		if first > 0 && last > 0 {
			globalSpread = float64(last) / float64(first)
		}
	}
	// Global scheduling must degrade sharply with migration overhead.
	if globalSpread < 2 {
		b.Fatalf("global regime did not degrade: spread %v", globalSpread)
	}
	b.ReportMetric(globalSpread, "global-degradation")
}

// BenchmarkE11GeneralMasks reports the measured 8-approximation quality.
func BenchmarkE11GeneralMasks(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		tab := suite().E11(context.Background())
		worst = 0
		for _, r := range tab.Rows {
			v, _ := strconv.ParseFloat(r[5], 64)
			if v > worst {
				worst = v
			}
		}
		if worst > 2.0000001 {
			b.Fatalf("LST ratio above 2: %v", worst)
		}
	}
	b.ReportMetric(worst, "max(ALG/LP)")
}

// BenchmarkE12Scaling times the full 2-approximation pipeline end to end
// on a medium SMP-CMP instance.
func BenchmarkE12Scaling(b *testing.B) {
	in, err := hsp.GenerateWorkload(hsp.WorkloadConfig{
		Topology:  hsp.TopoSMPCMP,
		Branching: []int{2, 2, 2},
		Jobs:      60, Seed: 42, MinWork: 10, MaxWork: 100,
		SpeedSpread: 0.5, OverheadPerLevel: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var mk int64
	for i := 0; i < b.N; i++ {
		res, err := hsp.Solve(context.Background(), in)
		if err != nil {
			b.Fatal(err)
		}
		mk = res.Makespan
	}
	b.ReportMetric(float64(mk), "makespan")
}

// BenchmarkE13HeuristicAblation reports the average advantage of the best
// heuristic over the certified 2-approximation.
func BenchmarkE13HeuristicAblation(b *testing.B) {
	var lpRatio float64
	for i := 0; i < b.N; i++ {
		tab := suite().E13(context.Background())
		if len(tab.Rows) == 0 {
			b.Fatal("no ablation rows")
		}
		lpRatio = 0
		for _, r := range tab.Rows {
			v, _ := strconv.ParseFloat(r[3], 64)
			if v > lpRatio {
				lpRatio = v
			}
		}
		if lpRatio > 2.0000001 {
			b.Fatalf("2-approx ratio above 2: %v", lpRatio)
		}
	}
	b.ReportMetric(lpRatio, "max(2approx/T*)")
}

// BenchmarkE14AffinitySweep regenerates the pinned-jobs sweep.
func BenchmarkE14AffinitySweep(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		tab := suite().E14(context.Background())
		worst = 0
		for _, r := range tab.Rows {
			v, _ := strconv.ParseFloat(r[5], 64)
			if v > worst {
				worst = v
			}
		}
		if worst > 2.0000001 {
			b.Fatalf("ratio above 2: %v", worst)
		}
	}
	b.ReportMetric(worst, "max(ALG/T*)")
}

// BenchmarkE15Simulation regenerates the migration-cost simulation and
// reports the final coverage fraction.
func BenchmarkE15Simulation(b *testing.B) {
	var coverage float64
	for i := 0; i < b.N; i++ {
		tab := suite().E15(context.Background())
		if len(tab.Rows) == 0 {
			b.Fatal("no simulation rows")
		}
		last := tab.Rows[len(tab.Rows)-1][6]
		var x, y int
		if _, err := fmt.Sscanf(last, "%d/%d", &x, &y); err != nil || y == 0 {
			b.Fatalf("bad coverage cell %q", last)
		}
		coverage = float64(x) / float64(y)
	}
	b.ReportMetric(coverage, "allowance-coverage")
}

// BenchmarkSuiteRunnerParallel drives the whole quick suite through the
// registry-driven runner on a bounded worker pool — the end-to-end cost
// of one CI reproduction gate.
func BenchmarkSuiteRunnerParallel(b *testing.B) {
	var experiments float64
	for i := 0; i < b.N; i++ {
		r := expt.Runner{Suite: expt.Suite{Quick: true, Seed: 7}}
		results, err := r.Run(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if summary, failed := expt.Summarize(results); failed {
			b.Fatalf("suite failed: %s", summary)
		}
		experiments = float64(len(results))
	}
	b.ReportMetric(experiments, "experiments")
}

// parseCell strips the upper-bound marker and parses the value.
func parseCell(s string) int64 {
	s = strings.TrimPrefix(s, "≤")
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return -1
	}
	return v
}
