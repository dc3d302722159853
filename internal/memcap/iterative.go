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
//
// Both models build their relaxation with relax.Relaxation, the one
// (IP-3) builder, adding only their memory packings (and Model 1 its
// admission filter). Its packings are sparse and sorted, built in one
// pass over the (set, job) pairs, so every LP row and every residual sum
// of the drop rule follows one fixed order and a solve's answer never
// depends on iteration order. Both models run
// every binary-search probe and every rounding LP on one caller-held
// relax.Workspace: its problem arenas and its simplex tableau. The
// search's probes are relax.Workspace.Verdict calls, which warm-start
// from each other and return no vertex; the rounding's LPs are
// lp.Problem.Solve vertices, always cold.
package memcap

import (
	"context"
	"fmt"

	"hsp/internal/lp"
	"hsp/internal/relax"
)

// roundResult reports the rounding outcome.
type roundResult struct {
	choice    []int // job → chosen master var
	fallbacks int
	dropped   int
}

// iterativeRound selects one of r's variables per job subject to
// r's packings, in the sense of Lemma VI.2: assignment constraints hold
// exactly, packing l ends within (1+ρ)·B_l unless a fallback fired. The
// relaxation enumerates j-major, so each job's variables are contiguous.
// Every residual LP is rebuilt into ws's problem and solved on its
// tableau by lp.Problem.Solve, which is always cold, so the rounded
// assignment is the cold path's bit for bit; the solve polls ctx between
// pivots, so cancellation aborts the rounding mid-iteration.
func iterativeRound(ctx context.Context, r relaxation, ws *relax.Workspace) (*roundResult, error) {
	const tol = 1e-7
	nv, nJobs, packings := len(r.Pairs), r.In.N(), r.Packs
	job := func(v int) int { return r.Pairs[v][1] }
	alive := make([]bool, nv)
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

	// Fixing a variable charges the packings build entered it in: the load
	// rows of its set's chain and its set's memory rows.
	fixVar := func(v int) {
		s, j := r.Pairs[v][0], r.Pairs[v][1]
		choice[j] = v
		for _, a := range r.In.Family.Chain(s) {
			fixedUse[a] += float64(r.In.Proc[j][s])
		}
		for _, l := range r.Extra[s] {
			fixedUse[l] += r.Size(j, l)
		}
		alive[v] = false
	}

	// Residual LP scratch: idxOf[v] is v's column (-1 = not in the
	// residual LP), vars lists the columns' variables, and job j's columns
	// are [jobLo[j], jobHi[j]).
	idxOf := make([]int, nv)
	vars := make([]int, 0, nv)
	jobLo := make([]int, nJobs)
	jobHi := make([]int, nJobs)
	var rowIdx []int
	var rowVal []float64
	p := ws.Problem()
	unassigned := nJobs
	for iter := 0; unassigned > 0; iter++ {
		if iter > 4*(nv+len(packings)+4) {
			return nil, fmt.Errorf("memcap: iterative rounding did not converge")
		}
		// Build the residual LP over alive vars of unassigned jobs.
		vars = vars[:0]
		for j := range jobLo {
			jobLo[j], jobHi[j] = 0, 0
		}
		for v, ok := range alive {
			idxOf[v] = -1
			if j := job(v); ok && choice[j] < 0 {
				k := len(vars)
				idxOf[v] = k
				vars = append(vars, v)
				if jobHi[j] == 0 {
					jobLo[j] = k
				}
				jobHi[j] = k + 1
			}
		}
		p.Reset(len(vars))
		for j := 0; j < nJobs; j++ {
			if choice[j] >= 0 {
				continue
			}
			if jobHi[j] == 0 {
				return nil, fmt.Errorf("memcap: job %d lost all candidate variables", j)
			}
			idx, ones := r.Span(jobLo[j], jobHi[j])
			p.MustAddConstraint(idx, ones, lp.EQ, 1)
		}
		for l, pk := range packings {
			if droppedFlag[l] {
				continue
			}
			rowIdx, rowVal = rowIdx[:0], rowVal[:0]
			for t, v := range pk.Idx {
				if k := idxOf[v]; k >= 0 {
					rowIdx = append(rowIdx, k)
					rowVal = append(rowVal, pk.Val[t])
				}
			}
			if len(rowIdx) > 0 {
				p.MustAddConstraint(rowIdx, rowVal, lp.LE, pk.B-fixedUse[l])
			}
		}
		sol, err := p.Solve(ctx, ws.LP)
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
			j := job(v)
			if choice[j] >= 0 {
				continue
			}
			switch {
			case z <= tol:
				// Safe: the job's assignment row sums to one, so support
				// above tol remains.
				if countAbove(sol.X[jobLo[j]:jobHi[j]], tol) > 0 {
					alive[v] = false
					progress = true
				}
			case z >= 1-tol:
				fixVar(v)
				unassigned--
				progress = true
			}
		}
		if progress {
			continue
		}
		// Drop rule of Lemma VI.2: residual worst-case violation ≤ ρ·B,
		// summed in increasing variable order.
		for l, pk := range packings {
			if droppedFlag[l] {
				continue
			}
			residual := 0.0
			for t, v := range pk.Idx {
				if k := idxOf[v]; k >= 0 {
					residual += pk.Val[t] * (1 - sol.X[k])
				}
			}
			if residual <= r.rho*pk.B+tol {
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
			if choice[job(v)] >= 0 {
				continue
			}
			if z := sol.X[idxOf[v]]; z > bestZ {
				bestV, bestZ = v, z
			}
		}
		if bestV < 0 {
			return nil, fmt.Errorf("memcap: no variable left to round")
		}
		fixVar(bestV)
		unassigned--
		res.fallbacks++
	}
	return res, nil
}

// countAbove counts the values above tol — used to ensure a job never
// loses its whole support.
func countAbove(x []float64, tol float64) int {
	n := 0
	for _, z := range x {
		if z > tol {
			n++
		}
	}
	return n
}
