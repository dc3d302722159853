// Package memcap implements Section VI of the paper: hierarchical
// scheduling under memory-capacity constraints. Model 1 gives every machine
// i a budget B_i consumed by s_ij for each job whose affinity mask contains
// i (Theorem VI.1: bicriteria (3T, 3B_i)). Model 2 gives every level-h node
// of a uniform tree capacity µ^h consumed by s_j for the jobs assigned
// exactly to that node (Theorem VI.3: σ = 2 + H_k on both criteria, and
// 3 + 1/m for two levels).
//
// Both models are rounded with the iterative-relaxation scheme of Lemma
// VI.2 (the constructive proof is in the unpublished full version; this
// implementation follows the paradigm the lemma cites [Jain'01, LRS'11]):
// repeatedly solve a vertex LP, fix (near-)integral variables, and drop a
// packing constraint l once its worst-case residual violation
// Σ_{q fractional in l} a_lq·(1 − z_q) is at most ρ·b_l — dropping then
// costs at most ρ·b_l beyond the LP-feasible b_l, for a final bound of
// (1+ρ)·b_l. If neither step applies, a largest-fraction variable is fixed
// and counted as a fallback (experiments E8/E9 report zero fallbacks on the
// generated workloads, and the achieved factors stay within the theorems').
package memcap

import (
	"context"
	"fmt"

	"hsp/internal/lp"
)

// Packing is one packing constraint Σ a_q·z_q ≤ B over master variables,
// allowed to be violated up to (1+Rho)·B after rounding.
type Packing struct {
	Name string
	Coef map[int]float64 // master var index → a_q (> 0 entries only)
	B    float64
	Rho  float64
}

// roundResult reports the rounding outcome.
type roundResult struct {
	choice    []int // job → chosen master var
	fallbacks int
	dropped   int
}

// iterativeRound selects one variable per job subject to the packings, in
// the sense of Lemma VI.2: assignment constraints hold exactly, packing l
// ends within (1+ρ_l)·B_l unless a fallback fired. varJob[v] is the job of
// master variable v. Each residual LP solve polls ctx between pivots, so
// cancellation aborts the rounding mid-iteration.
func iterativeRound(ctx context.Context, varJob []int, nJobs int, packings []Packing) (*roundResult, error) {
	const tol = 1e-7
	alive := make([]bool, len(varJob))
	for v := range alive {
		alive[v] = true
	}
	choice := make([]int, nJobs)
	for j := range choice {
		choice[j] = -1
	}
	fixedUse := make([]float64, len(packings))
	droppedFlag := make([]bool, len(packings))
	res := &roundResult{choice: choice}

	// One LP problem and one simplex workspace for all rounding
	// iterations: each residual LP rebuilds into the same arenas. Every
	// solve here materializes a vertex the rounding reads, so warm start
	// stays off: rounded assignments must be the cold path's, bit for bit.
	var p lp.Problem
	ws := lp.NewWorkspace()
	ws.SetWarmStart(false)
	unassigned := nJobs
	for iter := 0; unassigned > 0; iter++ {
		if iter > 4*(len(varJob)+len(packings)+4) {
			return nil, fmt.Errorf("memcap: iterative rounding did not converge")
		}
		// Build the residual LP over alive vars of unassigned jobs.
		idxOf := make(map[int]int)
		var vars []int
		for v, ok := range alive {
			if ok && choice[varJob[v]] < 0 {
				idxOf[v] = len(vars)
				vars = append(vars, v)
			}
		}
		p.Reset(len(vars))
		jobVars := make(map[int][]int)
		for _, v := range vars {
			jobVars[varJob[v]] = append(jobVars[varJob[v]], idxOf[v])
		}
		for j := 0; j < nJobs; j++ {
			if choice[j] >= 0 {
				continue
			}
			vs := jobVars[j]
			if len(vs) == 0 {
				return nil, fmt.Errorf("memcap: job %d lost all candidate variables", j)
			}
			val := make([]float64, len(vs))
			for k := range val {
				val[k] = 1
			}
			p.MustAddConstraint(vs, val, lp.EQ, 1)
		}
		for l, pk := range packings {
			if droppedFlag[l] {
				continue
			}
			var idx []int
			var val []float64
			for v, a := range pk.Coef {
				if k, ok := idxOf[v]; ok {
					idx = append(idx, k)
					val = append(val, a)
				}
			}
			if len(idx) > 0 {
				p.MustAddConstraint(idx, val, lp.LE, pk.B-fixedUse[l])
			}
		}
		sol, err := p.Solve(ctx, ws)
		if err != nil {
			return nil, fmt.Errorf("memcap: %w", err)
		}
		if sol.Status != lp.Optimal {
			// The LP can only become infeasible after a fallback fix; relax
			// by dropping the tightest remaining packing and retry.
			worst, worstRatio := -1, 0.0
			for l, pk := range packings {
				if droppedFlag[l] || pk.B <= 0 {
					continue
				}
				if r := fixedUse[l] / pk.B; worst < 0 || r > worstRatio {
					worst, worstRatio = l, r
				}
			}
			if worst < 0 {
				return nil, fmt.Errorf("memcap: residual LP infeasible with no packings left")
			}
			droppedFlag[worst] = true
			res.dropped++
			continue
		}

		progress := false
		// Remove zero variables; fix integral ones.
		for _, v := range vars {
			z := sol.X[idxOf[v]]
			j := varJob[v]
			if choice[j] >= 0 {
				continue
			}
			switch {
			case z <= tol:
				// Safe: the job's assignment row sums to one, so support
				// above tol remains.
				if countAlive(jobVars[j], sol.X, tol) > 0 {
					alive[v] = false
					progress = true
				}
			case z >= 1-tol:
				fixVar(v, varJob, choice, alive, packings, fixedUse)
				unassigned--
				progress = true
			}
		}
		if progress {
			continue
		}
		// Drop rule of Lemma VI.2: residual worst-case violation ≤ ρ·B.
		for l, pk := range packings {
			if droppedFlag[l] {
				continue
			}
			residual := 0.0
			for v, a := range pk.Coef {
				if k, ok := idxOf[v]; ok {
					residual += a * (1 - sol.X[k])
				}
			}
			if residual <= pk.Rho*pk.B+tol {
				droppedFlag[l] = true
				res.dropped++
				progress = true
			}
		}
		if progress {
			continue
		}
		// Fallback: fix the largest fractional variable.
		bestV, bestZ := -1, -1.0
		for _, v := range vars {
			if choice[varJob[v]] >= 0 {
				continue
			}
			if z := sol.X[idxOf[v]]; z > bestZ {
				bestV, bestZ = v, z
			}
		}
		if bestV < 0 {
			return nil, fmt.Errorf("memcap: no variable left to round")
		}
		fixVar(bestV, varJob, choice, alive, packings, fixedUse)
		unassigned--
		res.fallbacks++
	}
	return res, nil
}

// countAlive counts the job's variables with value above tol — used to
// ensure a job never loses its whole support.
func countAlive(jobVarIdx []int, x []float64, tol float64) int {
	n := 0
	for _, k := range jobVarIdx {
		if x[k] > tol {
			n++
		}
	}
	return n
}

// fixVar assigns varJob[v]'s job to v and charges every packing.
func fixVar(v int, varJob []int, choice []int, alive []bool, packings []Packing, fixedUse []float64) {
	j := varJob[v]
	choice[j] = v
	for l := range packings {
		if a, ok := packings[l].Coef[v]; ok {
			fixedUse[l] += a
		}
	}
	alive[v] = false
}
