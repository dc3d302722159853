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

// Solve outcomes: Optimal means phase 1 reached a feasible vertex.
const (
	Optimal Status = iota
	Infeasible
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
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

// Problem is a feasibility LP under construction: constraints over
// implicitly nonnegative variables, with no objective. The zero Problem
// is not ready for use: construct with NewProblem, or re-dimension an
// existing one in place with Reset.
type Problem struct {
	nvars int
	cons  []constraint
	idxs  []int     // constraint index arena
	vals  []float64 // constraint coefficient arena
	keys  []uint64  // per-variable identity keys (see SetVarKeys)
	stamp []int     // per-variable marks for duplicate detection
	gen   int       // current AddConstraint generation for stamp
}

// NewProblem creates a problem with the given number of nonnegative
// variables and no constraints.
func NewProblem(nvars int) *Problem {
	p := &Problem{}
	p.Reset(nvars)
	return p
}

// Reset re-dimensions the problem in place: nvars fresh nonnegative
// variables with identity keys 0…nvars−1, no constraints. The constraint
// arenas and scratch buffers are retained, so callers that repeatedly
// rebuild near-identical problems (the binary searches in internal/relax
// and internal/memcap) stop allocating once the arenas reach
// steady-state size.
func (p *Problem) Reset(nvars int) {
	if nvars < 0 {
		panic("lp: negative variable count")
	}
	p.nvars = nvars
	p.cons = p.cons[:0]
	p.idxs = p.idxs[:0]
	p.vals = p.vals[:0]
	p.keys = scratch.Grow(p.keys, nvars)
	for i := range p.keys {
		p.keys[i] = uint64(i)
	}
	p.stamp = scratch.Grow(p.stamp, nvars)
	scratch.Clear(p.stamp)
	p.gen = 0
}

// SetVarKeys overrides the identity keys Reset gave the variables with
// stable ones (len(keys) must equal NumVars; keys must be strictly
// increasing). Keys let the warm-start path recognize a problem whose
// variable set is a subset of the one whose basis the workspace retains:
// the binary searches prune variables as T shrinks, and with identity
// keys a pruned problem would seldom match. Keys never change what is
// solved, only whether a retained basis may be re-entered. Reset restores
// the identity keys.
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
	X          []float64 // a vertex's structural values (valid when Optimal)
	Iterations int       // simplex pivots
}

const (
	pivTol  = 1e-9 // minimum magnitude of an acceptable pivot element
	zeroTol = 1e-9 // values below this are treated as zero
	feasTol = 1e-7 // phase-1 objective threshold for feasibility
)

// Solve runs phase-1 simplex and returns a vertex of the feasible
// polyhedron, or Infeasible. An error is returned only for resource
// exhaustion (iteration cap), numerical trouble or cancellation, never
// for an infeasible problem, which is reported in Status. The pivot loop polls ctx and aborts with an error wrapping
// ctx.Err() once the context is done, so a canceled caller never waits
// for a long simplex run to finish; a nil ctx disables the polls.
//
// The tableau lives in ws, whose backing arrays are reused, so re-solving
// near-identical problems allocates nothing but the returned Solution. A
// nil ws allocates a private workspace for this solve alone. The
// Workspace must not be used concurrently (see its doc).
//
// Solve is always cold: it never re-enters a retained basis, so its
// vertex is the same bit for bit whatever ws solved before. A feasible
// Solve leaves its basis retained for the next Verdict on ws (see the
// warm-start contract in warm.go).
func (p *Problem) Solve(ctx context.Context, ws *Workspace) (*Solution, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.begin(ctx, 0)
	st, pivots, err := p.solveCold(ws)
	ws.end()
	if err != nil {
		return nil, err
	}
	sol := &Solution{Status: st, Iterations: pivots}
	if st == Optimal {
		sol.X = make([]float64, p.nvars) // fresh: results survive workspace reuse
		ws.t.vertex(sol.X, nil)
	}
	return sol, nil
}

// Verdict reports whether the constraint system admits any x ≥ 0,
// without a witness, and it pivots without round-off work: while it
// runs, an entering-column entry below residueTol in magnitude counts as
// zero, so its row is not updated (see pivot). ctx and ws are as for
// Solve.
//
// Verdict is the only solve that re-enters a retained basis: on a
// caller-held Workspace it answers from dual-simplex pivots whenever the
// previous feasible solve's problem differs from p only in right-hand
// sides or by pruned keyed variables (see warm.go). Such an answer is
// checked against the input data before it is returned, and a Verdict
// allocates nothing once ws has grown to p's size.
func (p *Problem) Verdict(ctx context.Context, ws *Workspace) (bool, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.begin(ctx, residueTol)
	ok, err := p.verdict(ws)
	ws.end()
	return ok, err
}

// begin opens a solve on ws: it counts the solve, hands ctx to the pivot
// loops and sets the pivot's residue threshold (0 = exact).
func (ws *Workspace) begin(ctx context.Context, drop float64) {
	ws.counters.Solves++
	ws.t.ctx, ws.t.drop = ctx, drop
}

// end closes the solve begin opened: the workspace keeps neither the
// context nor the threshold, and the solve's row updates fold into the
// counters.
func (ws *Workspace) end() {
	ws.t.ctx, ws.t.drop = nil, 0
	ws.counters.RowUpdates += ws.t.rowUpdates
	ws.t.rowUpdates = 0
}

// solveCold runs phase-1 simplex on a freshly initialized tableau and
// reports the status and its pivots. It retains the basis of a feasible
// answer for the next Verdict and drops the retained basis otherwise.
func (p *Problem) solveCold(ws *Workspace) (Status, int, error) {
	st, pivots, err := ws.t.solve(p)
	ws.counters.ColdSolves++
	ws.counters.Pivots += pivots
	if err == nil && st == Optimal {
		ws.retain(p)
	} else {
		ws.warm.valid = false
	}
	return st, pivots, err
}

// solve builds the tableau for p and runs phase 1 on it: it minimizes
// the sum of the artificial variables, so the basis it ends on is a
// vertex exactly when that sum reaches zero. Without artificials the
// slack basis already is one.
func (t *tableau) solve(p *Problem) (Status, int, error) {
	t.init(p)
	if t.nart == 0 {
		return Optimal, 0, nil
	}
	pivots, err := t.iterate()
	if err != nil {
		return Optimal, pivots, fmt.Errorf("lp: phase 1: %w", err)
	}
	if t.cost[t.ncols] < -feasTol*(1+float64(t.nrows)) {
		return Infeasible, pivots, nil
	}
	t.driveOutArtificials()
	return Optimal, pivots, nil
}

// vertex writes the basic solution's structural values into x, which
// holds zeros and one slot per variable of the presented problem.
// oldToNew, when non-nil, maps the tableau's columns to those slots; a
// pruned column (-1) still basic sits within zeroTol of zero (larger
// values leave through the dual loop's bounded ratio test) and has no
// slot.
func (t *tableau) vertex(x []float64, oldToNew []int) {
	for r := 0; r < t.nrows; r++ {
		v := t.basis[r]
		if v >= t.nstruct {
			continue
		}
		if oldToNew != nil {
			if v = oldToNew[v]; v < 0 {
				continue
			}
		}
		x[v] = t.rhs[r]
		if x[v] < 0 && x[v] > -zeroTol {
			x[v] = 0
		}
	}
}

// residueTol is Verdict's threshold below which an entering-column entry
// counts as zero. Pivoting leaves round-off residue far below it (most of
// it under 1e-12) where exact arithmetic leaves zeros; the rows that hold
// only such residue are most of a dense (IP-3) tableau's rows.
const residueTol = 1e-11

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
	cost          []float64 // phase-1 reduced costs, length ncols+1 (last = -Σ artificials)
	degenStreak   int
	blandMode     bool
	rowScale      []float64       // applied scaling per row (reused by warm re-entry)
	idCol         []int           // per row: its initial basic column (slack or artificial)
	hasBanned     bool            // warm subset re-entry: some columns are fixed at zero
	banned        []bool          // per column; only meaningful when hasBanned
	farkas        []float64       // scratch for re-verifying warm infeasibility rays
	x             []float64       // scratch for re-verifying warm vertices
	certRow       int             // dual-simplex certificate row (-1 = none)
	certFlip      bool            // certificate came from a fixed basic above zero: negate the ray
	ctx           context.Context // polled between pivots; nil = never canceled
	drop          float64         // entering-column entries below this count as zero (0 = exact)
	rowUpdates    int             // rows pivot eliminated since the last Solve folded them in
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
	t.hasBanned = false
	t.degenStreak = 0
	t.blandMode = false
	t.a = scratch.Grow(t.a, nrows*ncols)
	scratch.Clear(t.a)
	t.rhs = scratch.Grow(t.rhs, nrows)
	t.basis = scratch.Grow(t.basis, nrows)
	t.cost = scratch.Grow(t.cost, ncols+1)
	scratch.Clear(t.cost)
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
		t.cost[j] = 1
	}
	for r := 0; r < nrows; r++ {
		if t.basis[r] >= t.artStart {
			row := t.a[r*ncols : (r+1)*ncols]
			for j := 0; j <= ncols; j++ {
				if j == ncols {
					t.cost[j] -= t.rhs[r]
				} else {
					t.cost[j] -= row[j]
				}
			}
		}
	}
}

// iterate runs phase-1 pivots until no column prices negative. The
// phase-1 objective is bounded below by 0, so an unbounded ray means
// numerical trouble and is an error.
func (t *tableau) iterate() (int, error) {
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
		enter := t.chooseEntering()
		if enter < 0 {
			return iters, nil // phase-1 optimum
		}
		leave := t.chooseLeaving(enter)
		if leave < 0 {
			return iters, fmt.Errorf("unbounded phase-1 ray (numerical instability)")
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
// they start basic and once out they stay out.
func (t *tableau) chooseEntering() int {
	cost := t.cost[:t.artStart]
	if t.blandMode {
		for j, c := range cost {
			if c < -zeroTol {
				return j
			}
		}
		return -1
	}
	best, bestVal := -1, -zeroTol
	for j, c := range cost {
		if c < bestVal {
			best, bestVal = j, c
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

// pivot makes column enter basic in row leave, updating the cost row.
// A row whose entering-column entry is zero needs no update. Under a
// Verdict, an entry below t.drop in magnitude is set to zero and its row
// skipped as well. Each row update is one subScaled call.
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
	updates := 0
	for r := 0; r < t.nrows; r++ {
		if r == leave {
			continue
		}
		f := t.a[r*nc+enter]
		if f == 0 {
			continue
		}
		if math.Abs(f) < t.drop {
			t.a[r*nc+enter] = 0
			continue
		}
		updates++
		row := t.a[r*nc : (r+1)*nc]
		subScaled(row, prow, f)
		row[enter] = 0 // exact
		t.rhs[r] -= f * t.rhs[leave]
		if t.rhs[r] < 0 && t.rhs[r] > -zeroTol {
			t.rhs[r] = 0
		}
	}
	if f := t.cost[enter]; f != 0 {
		cost := t.cost
		subScaled(cost[:nc], prow, f)
		cost[enter] = 0
		cost[nc] -= f * t.rhs[leave]
	}
	t.basis[leave] = enter
	t.rowUpdates += updates
}

// driveOutArtificials pivots zero-valued basic artificials out of the basis
// where possible. Rows where every non-artificial coefficient vanishes are
// redundant constraints; their artificial stays basic at zero, which
// leaves the vertex unchanged, and retain then declines the basis for
// warm re-entry.
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
