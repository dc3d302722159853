package lp

import (
	"fmt"
	"math"

	"hsp/internal/scratch"
)

// Warm start: a caller-held Workspace retains the basis of its last
// feasible cold solve together with a signature of the problem that
// produced it. When the next Verdict presents a problem with the same
// constraint operators and rows over a keyed subset of the anchor's
// variables — differing only in constraint right-hand sides and by
// pruned variables — the solver re-enters from the retained basis with
// dual-simplex pivots instead of phase-1 simplex from scratch. With no
// objective every basis is dual feasible, so a dual re-entry needs no
// optimal anchor, and an RHS change or a pruned variable leaves nothing
// for it to repair but primal feasibility: typically a handful of pivots
// where the cold path would pay its full pivot count again.
//
// Every problem carries variable keys: identity keys 0…n−1 from Reset,
// or the stable keys SetVarKeys gave it. A problem with the anchor's
// keys re-enters as it is; one whose keys are a proper subset re-enters
// with the missing columns banned. Keys never change a verdict.
//
// Only Verdict re-enters; Solve is always cold, so every vertex the
// package returns is the cold path's, bit for bit, and only verdicts are
// ever answered warm. Both kinds of cold solve retain a feasible basis.
//
// Fallback rules (any failure is silent — the cold path answers):
//   - signature mismatch, including any negative RHS on either side (the
//     cold path's sign normalization would flip row scaling);
//   - an artificial variable still basic in the retained tableau;
//   - the dual re-entry exceeds its budget of 3·nrows pivots (see
//     dualIterate for why the budget is safe);
//   - an infeasibility certificate with a violation too small to trust
//     against the cold path's phase-1 tolerance.
//
// The retained state never influences *what* a Verdict returns, only how
// fast: a warm feasible verdict exhibits a vertex that satisfies the
// input data (so the cold verdict could not be Infeasible), and a warm
// infeasible one is only reported when the Farkas violation is decisively
// larger than the feasibility tolerance.

// warmState is the signature of the problem whose feasible basis the
// tableau currently holds.
type warmState struct {
	valid bool
	nvars int
	ops   []Op
	ns    []int
	idxs  []int
	vals  []float64
	keys  []uint64 // variable identity keys
	o2n   []int    // scratch: anchor column → new column (-1 = pruned)
}

// Counters aggregates solver effort across the lifetime of a Workspace
// (reset with ResetStats). Pivots counts the phase-1 pivots of cold
// solves and the pivots of every warm re-entry, including re-entries
// that fell back to the cold path; WarmPivots counts only those of warm
// hits.
type Counters struct {
	Solves        int // Solve and Verdict entries (cold, warm, and fallbacks)
	ColdSolves    int // solves answered by phase-1 simplex
	WarmHits      int // verdicts answered from the retained basis
	SubsetHits    int // warm hits that mapped into a variable subset of the anchor
	WarmFallbacks int // warm attempts that fell back to the cold path
	Pivots        int // total simplex pivots (all paths)
	WarmPivots    int // dual-simplex pivots inside warm hits
	RowUpdates    int // tableau rows the pivots eliminated, pivot rows excluded
}

// Stats snapshots the workspace counters.
func (ws *Workspace) Stats() Counters { return ws.counters }

// ResetStats zeroes the workspace counters.
func (ws *Workspace) ResetStats() { ws.counters = Counters{} }

// warmMap reports whether the retained basis applies to p: p's
// variables are a keyed subset of the anchor's, every constraint row of
// p is the anchor's row restricted to the surviving columns, and the
// operators agree with every right-hand side nonnegative, so the cold
// path's sign normalization is the identity. A binary search produces
// this shape when its probes differ in T alone, and when a shrinking T
// prunes variables. It returns (nil, true) when no anchor variable was
// pruned; otherwise oldToNew maps anchor columns to p's columns (-1 =
// pruned, to be banned from entering). oldToNew aliases workspace
// scratch, valid until the next warmMap call.
func (ws *Workspace) warmMap(p *Problem) ([]int, bool) {
	w := &ws.warm
	if !w.valid || len(p.cons) != len(w.ops) || p.nvars > w.nvars {
		return nil, false
	}
	for i, c := range p.cons {
		if c.op != w.ops[i] || c.rhs < 0 {
			return nil, false
		}
	}
	// Keys are strictly increasing, so a single merge walk computes the
	// injection or rejects.
	o2n := scratch.Grow(w.o2n, w.nvars)
	w.o2n = o2n
	ni := 0
	for oi, k := range w.keys {
		if ni < p.nvars && p.keys[ni] == k {
			o2n[oi] = ni
			ni++
		} else {
			o2n[oi] = -1
		}
	}
	if ni != p.nvars {
		return nil, false
	}
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
	if p.nvars == w.nvars {
		return nil, true
	}
	return o2n, true
}

// verdict answers from the retained basis when it can and cold otherwise.
func (p *Problem) verdict(ws *Workspace) (bool, error) {
	if oldToNew, match := ws.warmMap(p); match {
		feasible, ok, err := ws.solveWarm(p, oldToNew)
		if err != nil {
			ws.warm.valid = false
			return false, err
		}
		if ok {
			return feasible, nil
		}
		ws.counters.WarmFallbacks++
	}
	st, _, err := p.solveCold(ws)
	if err != nil {
		return false, err
	}
	return st != Infeasible, nil
}

// retain records p as the problem whose feasible basis the tableau now
// holds. It declines (leaving warm start invalid) when the basis could
// not be re-entered safely: a negative RHS, or an artificial variable
// still basic (a redundant row kept its artificial at zero).
func (ws *Workspace) retain(p *Problem) {
	w := &ws.warm
	w.valid = false
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

// solveWarm answers a Verdict by re-entering the retained basis with p's
// right-hand sides. oldToNew, when non-nil, maps anchor columns to p's
// columns (-1 = a variable p pruned; banned from entering, it stays
// nonbasic at zero so the anchor tableau solves exactly p). ok reports
// whether the warm path produced a trustworthy verdict; false means fall
// back to the cold path (never an error by itself). Its pivots count
// toward Pivots on every path, fallbacks and errors included.
func (ws *Workspace) solveWarm(p *Problem, oldToNew []int) (feasible, ok bool, err error) {
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

	pivots, worst, err := t.dualIterate()
	ws.counters.Pivots += pivots
	if err != nil {
		return false, false, err
	}
	switch {
	case worst >= -zeroTol:
		// Primal feasibility restored: the vertex the basis holds must
		// satisfy the exact input data.
		t.x = scratch.Grow(t.x, p.nvars)
		scratch.Clear(t.x)
		t.vertex(t.x, oldToNew)
		if !verifyPrimal(p, t.x, t.rowScale) {
			return false, false, nil
		}
		feasible = true
	case worst < -decisiveInfeasTol:
		// A Farkas row with a decisive violation: the dual ray proves the
		// primal infeasible by a margin the cold tolerance cannot flip —
		// but only after the ray is re-verified against the exact input
		// data, because the tableau row it was read from carries drift.
		if !t.verifyFarkas(p) {
			return false, false, nil
		}
	default:
		// Ambiguous: stalled, or an infeasibility too marginal to trust.
		return false, false, nil
	}
	// The anchor signature still describes the tableau: pivots moved the
	// basis within the anchor's column space, so the retained state stays
	// valid for the next probe. Not re-retaining keeps subset re-entry
	// anchored at the largest variable set seen, which the shrinking
	// probes of a binary search all map into.
	ws.counters.WarmHits++
	if oldToNew != nil {
		ws.counters.SubsetHits++
	}
	ws.counters.WarmPivots += pivots
	return feasible, true, nil
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

// dualIterate runs dual-simplex pivots from the retained basis (dual
// feasible, as every basis is with no objective) until primal
// feasibility (worst ≥ -zeroTol), a Farkas infeasibility certificate
// (worst < -zeroTol with no admissible entering column; the certificate
// row and ray orientation land in t.certRow / t.certFlip), or a budget
// of 3·nrows pivots. Running out reports the current worst
// violation clamped into the ambiguous band, with pivots = budget, and
// solveWarm hands an ambiguous result to the cold path — so the budget
// decides how long a re-entry may try, never what is returned. A
// converging re-entry repairs about one violated row per pivot; one that
// has used three pivots per row is cycling or drifting in a tableau that
// is never refactorized, and handing over to the cold solve is cheaper
// than continuing. Banned columns are variables the presented problem
// fixed at zero: they may not enter, and one still basic at a positive
// value is itself a violation — it leaves through the sign-mirrored
// ratio test (bounded dual simplex with a [0,0] box on banned columns).
// The context is polled between pivots like the primal loop.
func (t *tableau) dualIterate() (int, float64, error) {
	maxIter := 3 * t.nrows
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
		// Entering column: one that can restore this row — a negative
		// coefficient for a row below zero, a positive one for a banned
		// basic above zero. Every reduced cost is zero, so the dual ratio
		// test ties on every such column: take the first one under Bland,
		// otherwise the largest pivot magnitude (the first on ties), for
		// stability. Banned columns are fixed and never enter;
		// artificials stay out as in the primal loop; basic columns are
		// unit columns, so their coefficient here is 0 or +1 and they are
		// skipped implicitly (the leaving banned basic itself is caught by
		// the banned check).
		row := t.a[leave*nc : (leave+1)*nc]
		sign := 1.0
		if above {
			sign = -1
		}
		enter, bestMag := -1, 0.0
		for j := 0; j < t.artStart; j++ {
			if t.hasBanned && t.banned[j] {
				continue
			}
			if v := sign * row[j]; -v > pivTol && -v > bestMag {
				enter, bestMag = j, -v
				if bland {
					break
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
