package lp

import (
	"fmt"
	"math"

	"hsp/internal/scratch"
)

// Warm-start: a caller-held Workspace retains the optimal basis of its
// last solve together with a signature of the problem that produced it.
// When the next Solve presents a problem that is structurally identical
// — same variables, objective, constraint operators, sparsity pattern and
// coefficients — and differs only in constraint right-hand sides, the
// solver re-enters from the retained basis with dual-simplex pivots
// instead of two-phase primal simplex from scratch. The retained basis is
// optimal, hence dual-feasible, and an RHS change preserves dual
// feasibility: typically a handful of pivots restore primal feasibility
// where the cold path would pay its full pivot count again.
//
// Fallback rules (any failure is silent — the cold path answers):
//   - signature mismatch, including any negative RHS on either side (the
//     cold path's sign normalization would flip row scaling);
//   - an artificial variable still basic in the retained tableau;
//   - the dual re-entry exceeds its pivot budget (cycling guard);
//   - an infeasibility certificate with a violation too small to trust
//     against the cold path's phase-1 tolerance.
//
// The retained state never influences *what* is returned, only how fast:
// a warm Optimal exhibits a primal-feasible basis (so the cold verdict
// could not be Infeasible), and a warm Infeasible is only reported when
// the Farkas violation is decisively larger than the feasibility
// tolerance. Callers that must reproduce cold-path vertices bit-for-bit
// (golden witnesses) call InvalidateWarmStart first.

// warmState is the signature of the problem whose optimal basis the
// tableau currently holds.
type warmState struct {
	valid bool
	nvars int
	ops   []Op
	ns    []int
	idxs  []int
	vals  []float64
	obj   []float64
	keys  []uint64 // variable identity keys, empty when the problem had none
	o2n   []int    // scratch: anchor column → new column (-1 = pruned)
}

// Counters aggregates solver effort across the lifetime of a Workspace
// (reset with ResetStats). Pivots counts both phases of cold solves and
// the dual re-entry pivots of warm solves.
type Counters struct {
	Solves        int // Solve entries (cold, warm, and fallbacks)
	ColdSolves    int // solves answered by two-phase simplex
	WarmHits      int // solves answered from the retained basis
	SubsetHits    int // warm hits that mapped into a variable subset of the anchor
	WarmFallbacks int // warm attempts that fell back to the cold path
	Pivots        int // total simplex pivots (all paths)
	WarmPivots    int // dual-simplex pivots inside warm hits
}

// Stats snapshots the workspace counters.
func (ws *Workspace) Stats() Counters { return ws.counters }

// ResetStats zeroes the workspace counters.
func (ws *Workspace) ResetStats() { ws.counters = Counters{} }

// InvalidateWarmStart drops the retained basis: the next solve runs the
// cold two-phase path (and re-arms warm start for the solves after it).
// Callers use this to pin down the exact cold-path vertex — the witness
// solves behind golden outputs invalidate before solving.
func (ws *Workspace) InvalidateWarmStart() { ws.warm.valid = false }

// SetWarmStart enables or disables the warm-start path. Disabling also
// drops any retained basis; it makes every solve cold, which the
// differential tests use as the oracle configuration.
func (ws *Workspace) SetWarmStart(enabled bool) {
	ws.warmOff = !enabled
	if !enabled {
		ws.warm.valid = false
	}
}

// warmMap reports whether the retained basis applies to p. An exact match
// — identical structure except for constraint right-hand sides, all of
// them nonnegative so the cold path's sign normalization is the identity —
// returns (nil, true). When both problems carry variable keys, a subset
// match is also accepted: p's variables are a keyed subset of the anchor's
// (same constraint rows restricted to the surviving columns), which is the
// shape a binary search produces when a shrinking T prunes variables. The
// returned oldToNew maps anchor columns to p's columns (-1 = pruned, to be
// banned from entering); it aliases workspace scratch, valid until the
// next warmMap call.
func (ws *Workspace) warmMap(p *Problem) ([]int, bool) {
	w := &ws.warm
	if !w.valid || ws.warmOff {
		return nil, false
	}
	if len(p.cons) != len(w.ops) {
		return nil, false
	}
	for i, c := range p.cons {
		if c.op != w.ops[i] || c.rhs < 0 {
			return nil, false
		}
	}
	if p.nvars == w.nvars && len(p.idxs) == len(w.idxs) {
		exact := true
		for i, c := range p.cons {
			if c.n != w.ns[i] {
				exact = false
				break
			}
		}
		if exact {
			for i, v := range p.idxs {
				if v != w.idxs[i] {
					exact = false
					break
				}
			}
		}
		if exact {
			for i, v := range p.vals {
				if v != w.vals[i] {
					exact = false
					break
				}
			}
		}
		if exact {
			for i, v := range p.obj {
				if v != w.obj[i] {
					exact = false
					break
				}
			}
		}
		if exact {
			return nil, true
		}
	}
	// Subset match. Keys are strictly increasing (SetVarKeys enforces it),
	// so a single merge walk computes the injection or rejects.
	if len(w.keys) != w.nvars || len(p.keys) != p.nvars || p.nvars > w.nvars {
		return nil, false
	}
	o2n := scratch.Grow(w.o2n, w.nvars)
	ni := 0
	for oi := 0; oi < w.nvars; oi++ {
		if ni < p.nvars && p.keys[ni] == w.keys[oi] {
			o2n[oi] = ni
			ni++
		} else {
			o2n[oi] = -1
		}
	}
	if ni != p.nvars {
		return nil, false
	}
	w.o2n = o2n
	// Every constraint row of p must equal the anchor's row restricted to
	// the surviving columns, entry for entry and in the same order.
	woff := 0
	for i, c := range p.cons {
		wend := woff + w.ns[i]
		pj := c.off
		pend := c.off + c.n
		for k := woff; k < wend; k++ {
			nv := o2n[w.idxs[k]]
			if nv < 0 {
				continue
			}
			if pj >= pend || p.idxs[pj] != nv || p.vals[pj] != w.vals[k] {
				return nil, false
			}
			pj++
		}
		if pj != pend {
			return nil, false
		}
		woff = wend
	}
	for oi, nv := range o2n {
		if nv >= 0 && p.obj[nv] != w.obj[oi] {
			return nil, false
		}
	}
	return o2n, true
}

// retain records p as the problem whose optimal basis the tableau now
// holds. It declines (leaving warm start invalid) when the basis could
// not be re-entered safely: a negative RHS, or an artificial variable
// still basic (a redundant row kept its artificial at zero).
func (ws *Workspace) retain(p *Problem) {
	w := &ws.warm
	w.valid = false
	if ws.warmOff {
		return
	}
	t := &ws.t
	for _, c := range p.cons {
		if c.rhs < 0 {
			return
		}
	}
	for r := 0; r < t.nrows; r++ {
		if t.basis[r] >= t.artStart {
			return
		}
	}
	n := len(p.cons)
	w.nvars = p.nvars
	w.ops = scratch.Grow(w.ops, n)
	w.ns = scratch.Grow(w.ns, n)
	for i, c := range p.cons {
		w.ops[i] = c.op
		w.ns[i] = c.n
	}
	w.idxs = scratch.Grow(w.idxs, len(p.idxs))
	copy(w.idxs, p.idxs)
	w.vals = scratch.Grow(w.vals, len(p.vals))
	copy(w.vals, p.vals)
	w.obj = scratch.Grow(w.obj, len(p.obj))
	copy(w.obj, p.obj)
	w.keys = scratch.Grow(w.keys, len(p.keys))
	copy(w.keys, p.keys)
	w.valid = true
}

// decisiveInfeasTol is the scaled Farkas-row violation above which a warm
// infeasibility verdict is trusted without a cold confirmation. Below it,
// the verdict could disagree with the cold path's phase-1 tolerance
// (feasTol-scaled), so the warm path declines and the cold path decides.
const decisiveInfeasTol = 1e-4

// certTol bounds the dual-ray and primal-residual noise tolerated when a
// warm verdict is rechecked against the original problem data. The
// tableau accumulates rounding drift across re-entries (it is never
// refactorized), so a verdict read off the tableau alone can be wrong by
// far more than any pivot tolerance; the recheck below recomputes the
// certificate from the exact input arena, where only the certificate
// vector itself carries drift.
const certTol = 1e-7

// solveWarm re-enters the retained basis with p's right-hand sides.
// oldToNew, when non-nil, maps anchor columns to p's columns (-1 = a
// variable p pruned; banned from entering, it stays nonbasic at zero so
// the anchor tableau solves exactly p). The boolean reports whether the
// warm path produced a trustworthy answer; false means fall back to the
// cold path (never an error by itself).
func (ws *Workspace) solveWarm(p *Problem, oldToNew []int) (*Solution, bool, error) {
	t := &ws.t
	if oldToNew != nil {
		t.banned = scratch.Grow(t.banned, t.ncols)
		scratch.Clear(t.banned)
		for oi, nv := range oldToNew {
			if nv < 0 {
				t.banned[oi] = true
			}
		}
		t.hasBanned = true
		defer func() { t.hasBanned = false }()
	}
	// New reduced RHS under the retained basis: rhs = B⁻¹·S·b where S is
	// the retained row scaling and B⁻¹ sits in the idCol columns of the
	// tableau (they started as the identity).
	nr, nc := t.nrows, t.ncols
	for r := 0; r < nr; r++ {
		row := t.a[r*nc : (r+1)*nc]
		sum := 0.0
		for k := 0; k < nr; k++ {
			if v := row[t.idCol[k]]; v != 0 {
				sum += v * (p.cons[k].rhs / t.rowScale[k])
			}
		}
		if sum < 0 && sum > -zeroTol {
			sum = 0
		}
		t.rhs[r] = sum
	}
	// Objective entry of the reduced-cost row for the new RHS. Basic
	// structural columns are anchor columns; one that p pruned is fixed at
	// zero in p (cost 0) and will be pivoted out by the dual loop.
	obj := 0.0
	for r := 0; r < nr; r++ {
		if v := t.basis[r]; v < t.nstruct {
			if oldToNew != nil {
				v = oldToNew[v]
			}
			if v >= 0 {
				obj += p.obj[v] * t.rhs[r]
			}
		}
	}
	t.cost2[nc] = -obj
	t.unbounded = false
	t.degenStreak = 0
	t.blandMode = false

	pivots, worst, err := t.dualIterate()
	if err != nil {
		return nil, false, err
	}
	sol := &Solution{Iterations: pivots, Warm: true}
	switch {
	case worst >= -zeroTol:
		// Primal feasibility restored; polish with primal pivots in case
		// the ratio-test tolerances left a marginally negative reduced
		// cost, then read the vertex off the basis.
		it, err := t.iterate(t.cost2, false)
		sol.Iterations += it
		if err != nil || t.unbounded {
			// A cycling or unbounded polish under a basis that is already
			// primal-feasible signals numerical trouble: let the cold
			// path answer (and surface ctx cancellation as an error).
			if err != nil && t.ctx != nil && t.ctx.Err() != nil {
				return nil, false, fmt.Errorf("lp: warm re-entry: %w", err)
			}
			return nil, false, nil
		}
		sol.Status = Optimal
		sol.X = make([]float64, p.nvars) // fresh: results survive workspace reuse
		for r := 0; r < nr; r++ {
			if v := t.basis[r]; v < t.nstruct {
				if oldToNew != nil {
					// A pruned anchor column still basic here sits within
					// zeroTol of zero (larger values leave via the dual
					// loop's bounded ratio test) — it has no slot in X.
					v = oldToNew[v]
				}
				if v < 0 {
					continue
				}
				sol.X[v] = t.rhs[r]
				if sol.X[v] < 0 && sol.X[v] > -zeroTol {
					sol.X[v] = 0
				}
			}
		}
		if !verifyPrimal(p, sol.X, t.rowScale) {
			return nil, false, nil
		}
		for i, c := range p.obj {
			sol.Objective += c * sol.X[i]
		}
		return sol, true, nil
	case worst < -decisiveInfeasTol:
		// A Farkas row with a decisive violation: the dual ray proves the
		// primal infeasible by a margin the cold tolerance cannot flip —
		// but only after the ray is re-verified against the exact input
		// data, because the tableau row it was read from carries drift.
		if !t.verifyFarkas(p) {
			return nil, false, nil
		}
		sol.Status = Infeasible
		return sol, true, nil
	default:
		// Ambiguous: stalled, or an infeasibility too marginal to trust.
		return nil, false, nil
	}
}

// verifyPrimal checks a warm-start vertex against the original problem
// arena: every constraint must hold within certTol in its scaled units
// (the same units the cold path's feasibility tolerance lives in). A
// failure means tableau drift corrupted the basis solve — the answer
// falls back to the cold path rather than risking a verdict flip.
func verifyPrimal(p *Problem, x []float64, rowScale []float64) bool {
	for r, c := range p.cons {
		sum := 0.0
		for e := c.off; e < c.off+c.n; e++ {
			sum += p.vals[e] * x[p.idxs[e]]
		}
		resid := (sum - c.rhs) / rowScale[r]
		switch c.op {
		case LE:
			if resid > certTol {
				return false
			}
		case GE:
			if resid < -certTol {
				return false
			}
		case EQ:
			if math.Abs(resid) > certTol {
				return false
			}
		}
	}
	return true
}

// verifyFarkas re-verifies the dual ray behind a warm infeasibility
// verdict against the original problem data. The ray y is row r* of B⁻¹
// (read from the idCol columns of the certificate row dualIterate
// recorded, negated when the certificate is a fixed variable stuck above
// zero); the tableau asserts y·A ≥ 0 over the presented problem's
// columns, dual sign conditions on the slacks, and y·b < 0 — but its own
// row may have drifted, so each condition is recomputed from the exact
// input arena, where only y itself carries error. Margins are relative
// to ‖y‖∞: accepted rays certify an infeasibility far outside the cold
// path's phase-1 tolerance.
func (t *tableau) verifyFarkas(p *Problem) bool {
	nc := t.ncols
	if t.certRow < 0 {
		return false
	}
	row := t.a[t.certRow*nc : (t.certRow+1)*nc]
	sign := 1.0
	if t.certFlip {
		sign = -1
	}
	ynorm := 1.0
	for k := 0; k < t.nrows; k++ {
		if av := math.Abs(row[t.idCol[k]]); av > ynorm {
			ynorm = av
		}
	}
	tolZ := certTol * ynorm
	z := scratch.Grow(t.farkas, p.nvars)
	scratch.Clear(z)
	t.farkas = z
	viol := 0.0
	for k, c := range p.cons {
		yk := sign * row[t.idCol[k]]
		// Dual sign conditions from the slack/surplus columns (coefficient
		// ±1 in the scaled system): y must price them nonnegatively.
		switch c.op {
		case LE:
			if yk < -tolZ {
				return false
			}
		case GE:
			if yk > tolZ {
				return false
			}
		}
		if yk == 0 {
			continue
		}
		inv := 1 / t.rowScale[k]
		viol += yk * c.rhs * inv
		for e := c.off; e < c.off+c.n; e++ {
			z[p.idxs[e]] += yk * p.vals[e] * inv
		}
	}
	if viol > -decisiveInfeasTol*ynorm {
		return false
	}
	for _, v := range z {
		if v < -tolZ {
			return false
		}
	}
	return true
}

// dualIterate runs dual-simplex pivots from a dual-feasible basis until
// primal feasibility (worst ≥ -zeroTol), a Farkas infeasibility
// certificate (worst < -zeroTol with no admissible entering column; the
// certificate row and ray orientation land in t.certRow / t.certFlip),
// or a pivot budget that guards against cycling (a stall reports the
// current worst violation clamped into the ambiguous band, with
// pivots = budget). Banned columns are variables the presented problem
// fixed at zero: they may not enter, and one still basic at a positive
// value is itself a violation — it leaves through the sign-mirrored
// ratio test (bounded dual simplex with a [0,0] box on banned columns).
// The context is polled between pivots like the primal loop.
func (t *tableau) dualIterate() (int, float64, error) {
	maxIter := 2000 + 200*(t.nrows+t.ncols)
	nc := t.ncols
	bland := false
	t.certRow, t.certFlip = -1, false
	for iters := 0; iters < maxIter; iters++ {
		if t.ctx != nil {
			if err := t.ctx.Err(); err != nil {
				return iters, 0, fmt.Errorf("canceled after %d dual pivots: %w", iters, err)
			}
		}
		// Leaving row: the largest violation — a negative RHS, or a banned
		// basic variable sitting above zero.
		leave, worst, above := -1, zeroTol, false
		for r := 0; r < t.nrows; r++ {
			v := t.rhs[r]
			switch {
			case v < -worst:
				leave, worst, above = r, -v, false
			case v > worst && t.hasBanned && t.basis[r] < t.artStart && t.banned[t.basis[r]]:
				leave, worst, above = r, v, true
			}
		}
		if leave < 0 {
			for r := 0; r < t.nrows; r++ {
				if t.rhs[r] < 0 {
					t.rhs[r] = 0
				}
			}
			return iters, 0, nil
		}
		// Entering column: dual ratio test over columns that can restore
		// this row — negative coefficient for a row below zero, positive
		// for a banned basic above zero — minimizing reduced cost per
		// unit; both signs preserve dual feasibility (banned columns are
		// fixed, so they carry no dual-feasibility condition and never
		// enter). Artificials stay banned as in the primal loop; basic
		// columns are unit columns, so their coefficient here is 0 or +1
		// and they are skipped implicitly (the leaving banned basic itself
		// is caught by the banned check).
		row := t.a[leave*nc : (leave+1)*nc]
		sign := 1.0
		if above {
			sign = -1
		}
		enter, bestRatio, bestMag := -1, math.Inf(1), 0.0
		for j := 0; j < t.artStart; j++ {
			if t.hasBanned && t.banned[j] {
				continue
			}
			v := sign * row[j]
			if v >= -pivTol {
				continue
			}
			ratio := t.cost2[j] / -v
			switch {
			case ratio < bestRatio-zeroTol:
				enter, bestRatio, bestMag = j, ratio, -v
			case ratio <= bestRatio+zeroTol:
				if bland {
					if enter < 0 || j < enter {
						enter, bestRatio, bestMag = j, ratio, -v
					}
				} else if -v > bestMag {
					// Stability: prefer the largest pivot magnitude.
					enter, bestRatio, bestMag = j, ratio, -v
				}
			}
		}
		if enter < 0 {
			t.certRow, t.certFlip = leave, above
			return iters, -worst, nil
		}
		if worst < zeroTol*8 {
			// Barely-violated rows make degenerate pivots; switch to
			// Bland-style entering ties to break potential cycles.
			bland = true
		}
		t.pivot(leave, enter)
	}
	// Budget exhausted: report the current violation as ambiguous.
	worst := 0.0
	for r := 0; r < t.nrows; r++ {
		if t.rhs[r] < worst {
			worst = t.rhs[r]
		}
	}
	if worst >= -zeroTol {
		worst = -zeroTol * 2 // stalled at near-feasibility: still ambiguous
	}
	if worst < -decisiveInfeasTol {
		worst = -decisiveInfeasTol // a stall is never a certificate
	}
	return maxIter, worst, nil
}
