package expt

import (
	"context"
	"fmt"
	"math/rand"

	"hsp/internal/laminar"
	"hsp/internal/memcap"
	"hsp/internal/relax"
	"hsp/internal/workload"
)

// The memcap pack stresses the Section VI memory-model variants
// (internal/memcap) beyond the settings E8/E9 reproduce: MC1 tightens
// Model 1's per-machine budgets toward the feasibility edge, MC2 sweeps
// Model 2's capacity growth factor µ. The theorems' bicriteria factors
// are claimed on every trial the Lemma VI.2 rounding finishes without a
// fallback — the regime the proofs cover — while fallback trials are
// counted and reported.
func init() {
	RegisterPack(Pack{
		Name: "memcap",
		Description: "memory-capacity stress: Model 1 budget tightening and Model 2 µ sweeps " +
			"against the Theorem VI.1/VI.3 bicriteria factors (internal/memcap)",
	})
	Register(Experiment{ID: "MC1", Pack: "memcap",
		Title: "Model 1 stress: bicriteria factors as budgets tighten",
		Claim: "fallback-free roundings stay within makespan ≤ 3T and memory ≤ 3B at every budget slack (Theorem VI.1)",
		Run:   Suite.MC1})
	Register(Experiment{ID: "MC2", Pack: "memcap",
		Title: "Model 2 stress: bicriteria factors across capacity growth µ",
		Claim: "fallback-free roundings stay within σ = 2 + H_k on both criteria for every µ (Theorem VI.3)",
		Run:   Suite.MC2})
}

// MC1 tightens Model 1's budget slack from comfortable (3.0) down to just
// above the feasibility edge (1.15): budgets are slack × (average memory
// load per machine), so smaller slack forces the iterative rounding to
// work against nearly-tight packing constraints. Theorem VI.1's factors
// must hold on every trial rounded without a fallback.
func (s Suite) MC1(ctx context.Context) *Table {
	t := newTable("MC1", "budget slack", "trials", "solved", "fallback-free", "max load factor", "max mem factor")
	rng := rand.New(rand.NewSource(s.Seed + 2))
	ws := relax.NewWorkspace()
	slacks := []float64{3.0, 2.0, 1.4, 1.15}
	if s.Quick {
		slacks = []float64{3.0, 1.15}
	}
	for _, slack := range slacks {
		if ctx.Err() != nil {
			return t
		}
		trials := s.trials(10)
		solved, clean := 0, 0
		var maxLoad, maxMem float64
		for k := 0; k < trials; k++ {
			if ctx.Err() != nil {
				return t
			}
			in := generatedMN(rng, workload.SemiPartitioned, 5, 15, 0.3, 0)
			m1, err := workload.AttachModel1(in, workload.MemoryConfig{MinSize: 1, MaxSize: 10, BudgetSlack: slack}, rng.Int63())
			if err != nil {
				continue
			}
			res, err := memcap.SolveModel1(ctx, m1, ws)
			if err != nil {
				continue
			}
			solved++
			if res.Fallbacks > 0 {
				continue
			}
			clean++
			if res.LoadFactor > maxLoad {
				maxLoad = res.LoadFactor
			}
			if res.MemFactor > maxMem {
				maxMem = res.MemFactor
			}
		}
		t.AddRow(fmt.Sprintf("%.2f", slack), trials, solved, clean, maxLoad, maxMem)
		t.CheckGE(fmt.Sprintf("slack=%.2f solved", slack), float64(solved), 1, 0)
		// The factor claims must never pass vacuously: at least one trial
		// has to reach the fallback-free regime the theorem covers.
		t.CheckGE(fmt.Sprintf("slack=%.2f fallback-free", slack), float64(clean), 1, 0)
		t.CheckLE(fmt.Sprintf("slack=%.2f load factor", slack), maxLoad, 3, 1e-7)
		t.CheckLE(fmt.Sprintf("slack=%.2f mem factor", slack), maxMem, 3, 1e-7)
	}
	t.Notes = append(t.Notes,
		"factors are maxima over fallback-free trials — the regime Lemma VI.2's drop rule certifies;",
		"solved − fallback-free counts trials where a largest-fraction fix fired instead")
	return t
}

// MC2 sweeps Model 2's capacity growth factor µ: level-h nodes hold µ^h,
// so µ near 1 starves the upper levels while large µ makes memory slack.
// Theorem VI.3's σ = 2 + H_k bound (sharpened to 3 + 1/m for two levels,
// which the solver exploits) must hold on every fallback-free trial, at
// every µ and both tree depths.
func (s Suite) MC2(ctx context.Context) *Table {
	t := newTable("MC2", "µ", "branching", "σ", "trials", "solved", "fallback-free", "max load factor", "max mem factor")
	rng := rand.New(rand.NewSource(s.Seed + 3))
	ws := relax.NewWorkspace()
	mus := []float64{1.3, 2.5, 5.0}
	shapes := [][]int{{2, 2}, {2, 2, 2}}
	if s.Quick {
		mus = []float64{1.3, 5.0}
		shapes = [][]int{{2, 2, 2}}
	}
	for _, mu := range mus {
		for _, br := range shapes {
			if ctx.Err() != nil {
				return t
			}
			trials := s.trials(8)
			solved, clean, levels := 0, 0, 0
			var maxLoad, maxMem float64
			for k := 0; k < trials; k++ {
				if ctx.Err() != nil {
					return t
				}
				f, err := laminar.Hierarchy(br...)
				if err != nil {
					continue
				}
				levels = f.Levels()
				in := instanceOn(rng, f, 2*f.M(), 0.3)
				m2, err := workload.AttachModel2(in, workload.MemoryConfig{Mu: mu}, rng.Int63())
				if err != nil {
					continue
				}
				res, err := memcap.SolveModel2(ctx, m2, ws)
				if err != nil {
					continue
				}
				solved++
				if res.Fallbacks > 0 {
					continue
				}
				clean++
				if res.LoadFactor > maxLoad {
					maxLoad = res.LoadFactor
				}
				if res.MemFactor > maxMem {
					maxMem = res.MemFactor
				}
			}
			sigma := memcap.Sigma(levels)
			t.AddRow(fmt.Sprintf("%.1f", mu), fmt.Sprint(br), sigma, trials, solved, clean, maxLoad, maxMem)
			t.CheckGE(fmt.Sprintf("µ=%.1f k=%d solved", mu, levels), float64(solved), 1, 0)
			// Never vacuous: the σ claims need at least one fallback-free trial.
			t.CheckGE(fmt.Sprintf("µ=%.1f k=%d fallback-free", mu, levels), float64(clean), 1, 0)
			t.CheckLE(fmt.Sprintf("µ=%.1f k=%d load factor vs σ", mu, levels), maxLoad, sigma, 1e-6)
			t.CheckLE(fmt.Sprintf("µ=%.1f k=%d mem factor vs σ", mu, levels), maxMem, sigma, 1e-6)
		}
	}
	t.Notes = append(t.Notes,
		"σ = 2 + H_k per depth k; factors are maxima over fallback-free trials (see MC1)")
	return t
}
