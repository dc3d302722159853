package lp

import (
	"context"
	"fmt"
	"math"

	"hsp/internal/scratch"
)

// Op is a constraint comparison operator.
type Op int8

// Constraint operators.
const (
	LE Op = iota // ≤
	GE           // ≥
	EQ           // =
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Status describes the outcome of a solve.
type Status int8

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// constraint references a slice [off, off+n) of the problem's index/value
// arenas — constraints share two flat backing arrays instead of owning a
// pair of slices each, so rebuilding a problem after Reset allocates
// nothing once the arenas have grown to size.
type constraint struct {
	off, n int
	op     Op
	rhs    float64
}

// Problem is a linear program under construction. All variables are
// implicitly nonnegative. The zero objective turns Solve into a pure
// feasibility check. The zero Problem is not ready for use: construct
// with NewProblem, or re-dimension an existing one in place with Reset.
type Problem struct {
	nvars int
	obj   []float64
	cons  []constraint
	idxs  []int     // constraint index arena
	vals  []float64 // constraint coefficient arena
	keys  []uint64  // optional per-variable identity keys (see SetVarKeys)
	stamp []int     // per-variable marks for duplicate detection
	gen   int       // current AddConstraint generation for stamp
}

// NewProblem creates a problem with the given number of nonnegative
// variables and a zero objective.
func NewProblem(nvars int) *Problem {
	p := &Problem{}
	p.Reset(nvars)
	return p
}

// Reset re-dimensions the problem in place: nvars fresh nonnegative
// variables, a zero objective, no constraints. The constraint arenas and
// scratch buffers are retained, so callers that repeatedly rebuild
// near-identical problems (the binary searches in internal/relax and
// internal/unrelated) stop allocating once the arenas reach steady-state
// size.
func (p *Problem) Reset(nvars int) {
	if nvars < 0 {
		panic("lp: negative variable count")
	}
	p.nvars = nvars
	p.obj = scratch.Grow(p.obj, nvars)
	scratch.Clear(p.obj)
	p.cons = p.cons[:0]
	p.idxs = p.idxs[:0]
	p.vals = p.vals[:0]
	p.keys = p.keys[:0]
	p.stamp = scratch.Grow(p.stamp, nvars)
	scratch.Clear(p.stamp)
	p.gen = 0
}

// SetVarKeys attaches a stable identity key to every variable (len(keys)
// must equal NumVars; keys must be strictly increasing). Keys let the
// warm-start path recognize a problem whose variable set is a subset of
// the one whose basis the workspace retains — the binary searches prune
// variables as T shrinks, and without keys every pruning step would force
// a cold solve. Keys never change what is solved, only whether a retained
// basis may be re-entered. Reset clears them.
func (p *Problem) SetVarKeys(keys []uint64) {
	if len(keys) != p.nvars {
		panic(fmt.Sprintf("lp: %d keys for %d variables", len(keys), p.nvars))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			panic("lp: variable keys must be strictly increasing")
		}
	}
	p.keys = append(p.keys[:0], keys...)
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return p.nvars }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// SetObjectiveCoeff sets the minimization objective coefficient of var i.
func (p *Problem) SetObjectiveCoeff(i int, c float64) {
	p.obj[i] = c
}

// AddConstraint appends the constraint Σ val[k]·x[idx[k]] op rhs.
// idx entries must be distinct, in range, and idx/val of equal length.
// The entries are copied into the problem's arenas; the caller may reuse
// idx and val.
func (p *Problem) AddConstraint(idx []int, val []float64, op Op, rhs float64) error {
	if len(idx) != len(val) {
		return fmt.Errorf("lp: idx/val length mismatch: %d vs %d", len(idx), len(val))
	}
	p.gen++
	for _, i := range idx {
		if i < 0 || i >= p.nvars {
			return fmt.Errorf("lp: variable index %d out of range [0,%d)", i, p.nvars)
		}
		if p.stamp[i] == p.gen {
			return fmt.Errorf("lp: variable index %d repeated in constraint", i)
		}
		p.stamp[i] = p.gen
	}
	p.cons = append(p.cons, constraint{off: len(p.idxs), n: len(idx), op: op, rhs: rhs})
	p.idxs = append(p.idxs, idx...)
	p.vals = append(p.vals, val...)
	return nil
}

// MustAddConstraint is AddConstraint, panicking on malformed input. The
// relaxation builders construct indices programmatically, so a failure is a
// programming error, not an input error.
func (p *Problem) MustAddConstraint(idx []int, val []float64, op Op, rhs float64) {
	if err := p.AddConstraint(idx, val, op, rhs); err != nil {
		panic(err)
	}
}

// Solution is the result of Solve.
type Solution struct {
	Status     Status
	X          []float64 // structural variable values (valid when Optimal)
	Objective  float64   // c·X (valid when Optimal)
	Iterations int       // total simplex pivots across both phases
	Warm       bool      // answered by the warm-start dual-simplex path
}

const (
	pivTol  = 1e-9 // minimum magnitude of an acceptable pivot element
	zeroTol = 1e-9 // values below this are treated as zero
	feasTol = 1e-7 // phase-1 objective threshold for feasibility
)

// Solve runs two-phase simplex and returns the solution. An error is
// returned only for resource exhaustion (iteration cap) or cancellation,
// never for infeasible or unbounded problems, which are reported in
// Status. The pivot loop polls ctx and aborts with an error wrapping
// ctx.Err() once the context is done, so a canceled caller never waits
// for a long simplex run to finish; a nil ctx disables the polls.
//
// The tableau lives in ws, whose backing arrays are reused, so re-solving
// near-identical problems allocates nothing but the returned Solution. A
// nil ws draws a workspace from an internal pool. The Workspace must not
// be used concurrently (see its doc).
//
// A caller-held Workspace additionally retains the optimal basis between
// solves: when the next problem differs from the retained one only in
// constraint right-hand sides, the solve re-enters via dual-simplex
// pivots from that basis instead of two-phase simplex from scratch (see
// the warm-start contract on Workspace). Pool-backed solves never warm
// start — a pooled workspace may be handed to unrelated callers, whose
// witness vertices must not depend on who solved before them.
func (p *Problem) Solve(ctx context.Context, ws *Workspace) (*Solution, error) {
	pooled := ws == nil
	if pooled {
		ws = wsPool.Get().(*Workspace)
		defer wsPool.Put(ws)
	}
	ws.counters.Solves++
	t := &ws.t
	t.ctx = ctx
	defer func() { t.ctx = nil }() // don't retain the context in the pool
	if !pooled {
		if oldToNew, match := ws.warmMap(p); match {
			sol, ok, err := ws.solveWarm(p, oldToNew)
			if err != nil {
				ws.warm.valid = false
				return nil, err
			}
			if ok {
				// The anchor signature still describes the tableau: pivots
				// moved the basis within the anchor's column space, so the
				// retained state stays valid for the next probe. Not
				// re-retaining keeps subset re-entry anchored at the
				// largest variable set seen, which the shrinking probes of
				// a binary search all map into.
				ws.counters.WarmHits++
				if oldToNew != nil {
					ws.counters.SubsetHits++
				}
				ws.counters.WarmPivots += sol.Iterations
				ws.counters.Pivots += sol.Iterations
				return sol, nil
			}
			ws.counters.WarmFallbacks++
		}
	}
	sol, err := p.solveCold(ws)
	if err == nil && !pooled && sol.Status == Optimal {
		ws.retain(p)
	} else {
		ws.warm.valid = false
	}
	return sol, err
}

// solveCold runs the regular two-phase simplex on a freshly initialized
// tableau.
func (p *Problem) solveCold(ws *Workspace) (*Solution, error) {
	t := &ws.t
	t.init(p)
	sol := &Solution{}
	ws.counters.ColdSolves++
	defer func() { ws.counters.Pivots += sol.Iterations }()

	// Phase 1: minimize the sum of artificial variables.
	if t.nart > 0 {
		it, err := t.iterate(t.cost1, true)
		sol.Iterations += it
		if err != nil {
			return nil, fmt.Errorf("lp: phase 1: %w", err)
		}
		if t.cost1[t.ncols] < -feasTol*(1+float64(t.nrows)) {
			sol.Status = Infeasible
			return sol, nil
		}
		t.driveOutArtificials()
	}

	// Phase 2: minimize the true objective with artificials banned.
	t.priceOut(t.cost2)
	it, err := t.iterate(t.cost2, false)
	sol.Iterations += it
	if err != nil {
		return nil, fmt.Errorf("lp: phase 2: %w", err)
	}
	if t.unbounded {
		sol.Status = Unbounded
		return sol, nil
	}

	sol.Status = Optimal
	sol.X = make([]float64, p.nvars) // fresh: results survive workspace reuse
	for r := 0; r < t.nrows; r++ {
		if v := t.basis[r]; v < p.nvars {
			sol.X[v] = t.rhs[r]
			if sol.X[v] < 0 && sol.X[v] > -zeroTol {
				sol.X[v] = 0
			}
		}
	}
	for i, c := range p.obj {
		sol.Objective += c * sol.X[i]
	}
	return sol, nil
}

// Feasible reports whether the constraint system admits any x ≥ 0,
// together with a witness vertex when it does. ctx and ws are as for
// Solve.
func (p *Problem) Feasible(ctx context.Context, ws *Workspace) (bool, []float64, error) {
	sol, err := p.Solve(ctx, ws)
	if err != nil {
		return false, nil, err
	}
	if sol.Status == Infeasible {
		return false, nil, nil
	}
	return true, sol.X, nil
}

// tableau is the dense simplex working state. The matrix is one flat
// nrows×ncols array (row r at a[r*ncols:]) backed by a Workspace, so a
// re-solve reuses the previous solve's memory and the pivot loops walk
// contiguous cache lines.
type tableau struct {
	nrows, ncols  int // ncols excludes the RHS
	nstruct, nart int
	artStart      int
	a             []float64 // flat nrows × ncols
	rhs           []float64
	basis         []int     // basic variable of each row
	cost1, cost2  []float64 // reduced-cost rows, length ncols+1 (last = -objective)
	unbounded     bool
	degenStreak   int
	blandMode     bool
	rowScale      []float64       // applied scaling per row (reused by warm re-entry)
	idCol         []int           // per row: its initial basic column (slack or artificial)
	hasBanned     bool            // warm subset re-entry: some columns are fixed at zero
	banned        []bool          // per column; only meaningful when hasBanned
	farkas        []float64       // scratch for re-verifying warm infeasibility rays
	certRow       int             // dual-simplex certificate row (-1 = none)
	certFlip      bool            // certificate came from a fixed basic above zero: negate the ray
	ctx           context.Context // polled between pivots; nil = never canceled
}

// init builds the tableau for p in place, reusing backing arrays from the
// previous solve where they are large enough.
func (t *tableau) init(p *Problem) {
	nrows := len(p.cons)
	// Column layout: [structural | slacks+surpluses | artificials].
	// Counting must use the op AFTER rhs-sign normalization: an LE row with
	// negative rhs becomes a GE row and needs an artificial.
	normOp := func(c constraint) Op {
		if c.rhs >= 0 || c.op == EQ {
			return c.op
		}
		if c.op == LE {
			return GE
		}
		return LE
	}
	nslack, nart := 0, 0
	for _, c := range p.cons {
		switch normOp(c) {
		case LE:
			nslack++
		case GE:
			nslack++
			nart++
		case EQ:
			nart++
		}
	}
	ncols := p.nvars + nslack + nart
	t.nrows, t.ncols = nrows, ncols
	t.nstruct, t.nart = p.nvars, nart
	t.artStart = p.nvars + nslack
	t.unbounded = false
	t.hasBanned = false
	t.degenStreak = 0
	t.blandMode = false
	t.a = scratch.Grow(t.a, nrows*ncols)
	scratch.Clear(t.a)
	t.rhs = scratch.Grow(t.rhs, nrows)
	t.basis = scratch.Grow(t.basis, nrows)
	t.cost1 = scratch.Grow(t.cost1, ncols+1)
	scratch.Clear(t.cost1)
	t.cost2 = scratch.Grow(t.cost2, ncols+1)
	scratch.Clear(t.cost2)
	t.rowScale = scratch.Grow(t.rowScale, nrows)
	t.idCol = scratch.Grow(t.idCol, nrows)

	slack := p.nvars
	art := t.artStart
	for r, c := range p.cons {
		row := t.a[r*ncols : (r+1)*ncols]
		rhs := c.rhs
		op := c.op
		idx := p.idxs[c.off : c.off+c.n]
		val := p.vals[c.off : c.off+c.n]
		for k, i := range idx {
			row[i] = val[k]
		}
		// Normalize to rhs ≥ 0.
		if rhs < 0 {
			rhs = -rhs
			for i := range row {
				row[i] = -row[i]
			}
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		// Row equilibration: divide by the largest structural magnitude so
		// tolerances behave uniformly across constraints with very
		// different coefficient scales (loads vs. memory sizes).
		scale := 0.0
		for _, v := range row {
			if av := math.Abs(v); av > scale {
				scale = av
			}
		}
		if av := math.Abs(rhs); av > scale {
			scale = av
		}
		if scale == 0 {
			scale = 1
		}
		inv := 1 / scale
		for i := range row {
			row[i] *= inv
		}
		rhs *= inv
		t.rowScale[r] = scale

		switch op {
		case LE:
			row[slack] = 1
			t.basis[r] = slack
			slack++
		case GE:
			row[slack] = -1
			slack++
			row[art] = 1
			t.basis[r] = art
			art++
		case EQ:
			row[art] = 1
			t.basis[r] = art
			art++
		}
		// The initial basic column of each row is a unit column, so after
		// any pivot sequence the tableau's idCol columns hold B⁻¹ — the
		// warm-start path reads them to reduce a fresh RHS.
		t.idCol[r] = t.basis[r]
		t.rhs[r] = rhs
	}

	// Phase-1 reduced costs: minimize Σ artificials, priced out over the
	// initial basis (each basic artificial contributes -row to the cost).
	for j := t.artStart; j < ncols; j++ {
		t.cost1[j] = 1
	}
	for r := 0; r < nrows; r++ {
		if t.basis[r] >= t.artStart {
			row := t.a[r*ncols : (r+1)*ncols]
			for j := 0; j <= ncols; j++ {
				if j == ncols {
					t.cost1[j] -= t.rhs[r]
				} else {
					t.cost1[j] -= row[j]
				}
			}
		}
	}
	// Phase-2 costs are priced out after phase 1 (the basis changes).
	for i, c := range p.obj {
		t.cost2[i] = c
	}
}

// priceOut recomputes the reduced-cost row so basic columns cost zero.
func (t *tableau) priceOut(cost []float64) {
	for r := 0; r < t.nrows; r++ {
		v := t.basis[r]
		cv := cost[v]
		if cv == 0 {
			continue
		}
		row := t.a[r*t.ncols : (r+1)*t.ncols]
		for j := 0; j < t.ncols; j++ {
			cost[j] -= cv * row[j]
		}
		cost[t.ncols] -= cv * t.rhs[r]
	}
}

// iterate runs simplex pivots until optimality for the given cost row.
// banArtificialsEnter=false is used in phase 2 where artificial columns may
// never re-enter the basis; in phase 1 they may (they are the basis).
func (t *tableau) iterate(cost []float64, phase1 bool) (int, error) {
	maxIter := 2000 + 200*(t.nrows+t.ncols)
	iters := 0
	for ; iters < maxIter; iters++ {
		// Each pivot is O(rows·cols); a per-pivot context poll is noise
		// next to that and keeps the cancellation latency to one pivot.
		// The poll stays here, at the top of the loop — never inside the
		// per-element pivot arithmetic below.
		if t.ctx != nil {
			if err := t.ctx.Err(); err != nil {
				return iters, fmt.Errorf("canceled after %d pivots: %w", iters, err)
			}
		}
		enter := t.chooseEntering(cost, phase1)
		if enter < 0 {
			return iters, nil // optimal for this phase
		}
		leave := t.chooseLeaving(enter)
		if leave < 0 {
			if phase1 {
				// Phase-1 objective is bounded below by 0; an unbounded ray
				// indicates numerical trouble.
				return iters, fmt.Errorf("unbounded phase-1 ray (numerical instability)")
			}
			t.unbounded = true
			return iters, nil
		}
		if t.rhs[leave] < zeroTol {
			t.degenStreak++
			if t.degenStreak > 2*(t.nrows+8) {
				t.blandMode = true
			}
		} else {
			t.degenStreak = 0
			t.blandMode = false
		}
		t.pivot(leave, enter)
	}
	return iters, fmt.Errorf("iteration cap %d exceeded (rows=%d cols=%d)", maxIter, t.nrows, t.ncols)
}

// chooseEntering picks a column with negative reduced cost, or -1 at
// optimality. Dantzig rule normally; Bland's smallest-index rule when a
// degenerate streak indicates cycling risk. Artificial columns never enter:
// they start basic in phase 1 and once out they stay out.
func (t *tableau) chooseEntering(cost []float64, _ bool) int {
	limit := t.artStart
	if t.blandMode {
		for j := 0; j < limit; j++ {
			if t.hasBanned && t.banned[j] {
				continue
			}
			if cost[j] < -zeroTol {
				return j
			}
		}
		return -1
	}
	best, bestVal := -1, -zeroTol
	for j := 0; j < limit; j++ {
		if t.hasBanned && t.banned[j] {
			continue
		}
		if cost[j] < bestVal {
			best, bestVal = j, cost[j]
		}
	}
	return best
}

// chooseLeaving runs the ratio test for the entering column, or returns -1
// if the column is unbounded.
func (t *tableau) chooseLeaving(enter int) int {
	best := -1
	bestRatio := math.Inf(1)
	bestPivot := 0.0
	for r := 0; r < t.nrows; r++ {
		a := t.a[r*t.ncols+enter]
		if a <= pivTol {
			continue
		}
		ratio := t.rhs[r] / a
		switch {
		case ratio < bestRatio-zeroTol:
			best, bestRatio, bestPivot = r, ratio, a
		case ratio <= bestRatio+zeroTol:
			if t.blandMode {
				// Bland: among ties, leave the row whose basic variable has
				// the smallest index.
				if best < 0 || t.basis[r] < t.basis[best] {
					best, bestRatio, bestPivot = r, ratio, a
				}
			} else if a > bestPivot {
				// Stability: prefer the largest pivot element.
				best, bestRatio, bestPivot = r, ratio, a
			}
		}
	}
	return best
}

// pivot makes column enter basic in row leave, updating both cost rows.
func (t *tableau) pivot(leave, enter int) {
	nc := t.ncols
	prow := t.a[leave*nc : (leave+1)*nc]
	pval := prow[enter]
	inv := 1 / pval
	for j := 0; j < nc; j++ {
		prow[j] *= inv
	}
	prow[enter] = 1 // exact
	t.rhs[leave] *= inv
	for r := 0; r < t.nrows; r++ {
		if r == leave {
			continue
		}
		f := t.a[r*nc+enter]
		if f == 0 {
			continue
		}
		row := t.a[r*nc : (r+1)*nc]
		for j := 0; j < nc; j++ {
			row[j] -= f * prow[j]
		}
		row[enter] = 0 // exact
		t.rhs[r] -= f * t.rhs[leave]
		if t.rhs[r] < 0 && t.rhs[r] > -zeroTol {
			t.rhs[r] = 0
		}
	}
	for _, cost := range [2][]float64{t.cost1, t.cost2} {
		f := cost[enter]
		if f == 0 {
			continue
		}
		for j := 0; j < nc; j++ {
			cost[j] -= f * prow[j]
		}
		cost[enter] = 0
		cost[nc] -= f * t.rhs[leave]
	}
	t.basis[leave] = enter
}

// driveOutArtificials pivots zero-valued basic artificials out of the basis
// where possible. Rows where every non-artificial coefficient vanishes are
// redundant constraints; their artificial stays basic at zero and is
// harmless because no phase-2 pivot can change an all-zero row.
func (t *tableau) driveOutArtificials() {
	for r := 0; r < t.nrows; r++ {
		if t.basis[r] < t.artStart {
			continue
		}
		row := t.a[r*t.ncols : (r+1)*t.ncols]
		bestJ, bestA := -1, pivTol
		for j := 0; j < t.artStart; j++ {
			if av := math.Abs(row[j]); av > bestA {
				bestJ, bestA = j, av
			}
		}
		if bestJ >= 0 {
			t.pivot(r, bestJ)
		}
	}
}
