// Package testdiff is a differential-testing harness for the solver
// stack: it generates seeded random instances across topologies, sizes,
// laminar depths and volume distributions, and checks that solver
// configurations that must agree — warm-started against cold, shared
// workspace against fresh — agree exactly. The oracle in every check is
// the cold path: warm start and workspace reuse are performance
// machinery and must never change an answer.
//
// The harness lives in its own package so the lp, relax and exact test
// suites can all drive it over the same instance corpus.
package testdiff

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"hsp/internal/approx"
	"hsp/internal/laminar"
	"hsp/internal/lp"
	"hsp/internal/model"
	"hsp/internal/relax"
	"hsp/internal/unrelated"
	"hsp/internal/workload"
)

// Case is one generated instance with a reproducible name.
type Case struct {
	Name string
	In   *model.Instance
}

// Cases returns n deterministic instances (seed fixes everything),
// cycling through topologies, job counts, machine counts, laminar
// depths and both uniform and heavy-tailed volume distributions.
func Cases(seed int64, n int) []Case {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Case, 0, n)
	for i := 0; len(out) < n; i++ {
		caseSeed := rng.Int63()
		var in *model.Instance
		var name string
		var err error
		switch i % 8 {
		case 0:
			name = "flat"
			in, err = workload.Generate(workload.Config{
				Topology: workload.Flat, Machines: 2 + i%7,
				Jobs: 4 + i%13, Seed: caseSeed,
				MinWork: 1, MaxWork: 50 + int64(i%5)*200,
			})
		case 1:
			name = "semipart"
			in, err = workload.Generate(workload.Config{
				Topology: workload.SemiPartitioned, Machines: 2 + i%6,
				Jobs: 5 + i%11, Seed: caseSeed,
				MinWork: 1, MaxWork: 100,
				SpeedSpread: 0.7 * rng.Float64(),
			})
		case 2:
			name = "clustered"
			in, err = workload.Generate(workload.Config{
				Topology: workload.Clustered, Clusters: 2 + i%3, ClusterSize: 2 + i%3,
				Jobs: 6 + i%17, Seed: caseSeed,
				MinWork: 2, MaxWork: 300,
				PinFraction: 0.4 * rng.Float64(),
			})
		case 3:
			name = "smp-cmp" // three-level hierarchy: deepest laminar depth here
			in, err = workload.Generate(workload.Config{
				Topology: workload.SMPCMP, Branching: []int{2, 1 + i%3, 2},
				Jobs: 5 + i%14, Seed: caseSeed,
				MinWork: 5, MaxWork: 80,
				SpeedSpread: 0.5, OverheadPerLevel: 0.25 * rng.Float64(),
			})
		case 4:
			name = "random-laminar"
			in, err = workload.Generate(workload.Config{
				Topology: workload.RandomLaminar, Machines: 3 + i%10,
				Jobs: 4 + i%19, Seed: caseSeed,
				MinWork: 1, MaxWork: 1000,
				PinFraction: 0.25,
			})
		case 5:
			name = "heavy-flat"
			in, err = heavyTailed(laminar.Flat(2+i%6), 5+i%12, caseSeed, 0)
		case 6:
			name = "heavy-hier"
			f, ferr := laminar.Hierarchy(2, 2, 1+i%2)
			if ferr != nil {
				err = ferr
				break
			}
			in, err = heavyTailed(f, 6+i%10, caseSeed, 0.2)
		default:
			name = "heavy-clustered"
			f, ferr := laminar.Clustered(2+i%2, 3)
			if ferr != nil {
				err = ferr
				break
			}
			in, err = heavyTailed(f, 8+i%9, caseSeed, 0.1)
		}
		if err != nil {
			// Generator rejected the parameter combination; skip it. The
			// loop keeps going until n cases exist.
			continue
		}
		out = append(out, Case{Name: fmt.Sprintf("%s/%d", name, i), In: in})
	}
	return out
}

// heavyTailed builds an instance whose job volumes follow a bounded
// Pareto distribution (alpha ≈ 1.1): a few elephants dominate total
// volume, which stresses the load rows of the relaxation and the
// forced-volume pruning of the exact search.
func heavyTailed(f *laminar.Family, jobs int, seed int64, overhead float64) (*model.Instance, error) {
	rng := rand.New(rand.NewSource(seed))
	in := model.New(f)
	maxLevel := f.Levels()
	for j := 0; j < jobs; j++ {
		u := rng.Float64()
		if u < 1e-6 {
			u = 1e-6
		}
		work := int64(math.Ceil(5 * math.Pow(1/u, 1/1.1)))
		if work > 100_000 {
			work = 100_000
		}
		proc := make([]int64, f.Len())
		for _, s := range f.BottomUp() {
			levelsAboveLeaf := maxLevel - f.Level(s)
			v := int64(math.Ceil(float64(work) * math.Pow(1+overhead, float64(levelsAboveLeaf))))
			if v < 1 {
				v = 1
			}
			for _, c := range f.Children(s) {
				if proc[c] > v {
					v = proc[c]
				}
			}
			proc[s] = v
		}
		in.AddJob(proc)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// CheckFractional verifies that fr is a feasible solution of the (IP-3)
// relaxation at T: every job's mass sums to 1 over admissible sets with
// p ≤ T, and every subtree load row holds within tolerance.
func CheckFractional(in *model.Instance, T int64, fr *relax.Fractional) error {
	const tol = 1e-6
	f := in.Family
	for j := 0; j < in.N(); j++ {
		sum := 0.0
		for s := 0; s < f.Len(); s++ {
			x := fr.X[s][j]
			if x < -tol {
				return fmt.Errorf("x[%d][%d] = %g < 0", s, j, x)
			}
			if x > tol && in.Proc[j][s] > T {
				return fmt.Errorf("x[%d][%d] = %g on a set with p=%d > T=%d", s, j, x, in.Proc[j][s], T)
			}
			sum += x
		}
		if math.Abs(sum-1) > tol*float64(f.Len()+1) {
			return fmt.Errorf("job %d mass %g != 1", j, sum)
		}
	}
	for s := 0; s < f.Len(); s++ {
		load := 0.0
		for _, b := range f.SubsetIDs(s) {
			for j := 0; j < in.N(); j++ {
				if x := fr.X[b][j]; x > 0 {
					load += x * float64(in.Proc[j][b])
				}
			}
		}
		limit := float64(f.Size(s)) * float64(T)
		if load > limit+tol*(limit+1) {
			return fmt.Errorf("set %d load %g exceeds %g", s, load, limit)
		}
	}
	return nil
}

// RelaxDiff runs relax.MinFeasibleT on a warm-starting workspace and
// ColdMinFeasibleT (the cold oracle) on in, and asks for each one's
// witness at T* with relax.Feasible, the warm one on the searched
// workspace. It fails unless both return the same T*, bitwise identical
// witnesses, and a witness that CheckFractional accepts.
func RelaxDiff(ctx context.Context, in *model.Instance) error {
	warmWS := relax.NewWorkspace()
	tWarm, errWarm := relax.MinFeasibleT(ctx, in, warmWS)
	tCold, _, errCold := ColdMinFeasibleT(ctx, in)
	if (errWarm == nil) != (errCold == nil) {
		return fmt.Errorf("error disagreement: warm=%v cold=%v", errWarm, errCold)
	}
	if errWarm != nil {
		return nil // both failed identically (e.g. no admissible set)
	}
	if tWarm != tCold {
		return fmt.Errorf("T* disagreement: warm=%d cold=%d", tWarm, tCold)
	}
	frWarm, err := witness(ctx, in, tWarm, warmWS)
	if err != nil {
		return fmt.Errorf("warm workspace: %w", err)
	}
	frCold, err := witness(ctx, in, tCold, relax.NewWorkspace())
	if err != nil {
		return fmt.Errorf("cold workspace: %w", err)
	}
	for s := range frWarm.X {
		for j := range frWarm.X[s] {
			if frWarm.X[s][j] != frCold.X[s][j] {
				return fmt.Errorf("witness differs at x[%d][%d]: warm=%g cold=%g",
					s, j, frWarm.X[s][j], frCold.X[s][j])
			}
		}
	}
	if err := CheckFractional(in, tWarm, frWarm); err != nil {
		return fmt.Errorf("warm witness invalid at T*=%d: %w", tWarm, err)
	}
	if st := warmWS.Stats(); st.LP.Solves != st.LP.ColdSolves+st.LP.WarmHits {
		return fmt.Errorf("counter imbalance: %+v", st.LP)
	}
	return nil
}

// ColdMinFeasibleT is the cold reference for relax.MinFeasibleT: the
// same bisection over relax.Bracket and the same check of the bracket's
// assignment at its top, but every probe is a relax.Workspace.Verdict on
// a fresh lp.Workspace, so none re-enters a retained basis. It returns
// T* and the probes' simplex work summed: each fresh workspace serves
// one cold Verdict, so Solves, ColdSolves, Pivots and RowUpdates are the
// only counters that move.
func ColdMinFeasibleT(ctx context.Context, in *model.Instance) (int64, lp.Counters, error) {
	var work lp.Counters
	ws := relax.NewWorkspace()
	lo, hi, a := relax.Bracket(in, ws)
	if hi >= model.Infinity {
		return 0, work, fmt.Errorf("relax: some job has no admissible set")
	}
	r := relax.NewRelaxation(in)
	top := hi
	for lo < hi {
		mid := lo + (hi-lo)/2
		ws.LP = lp.NewWorkspace()
		ok, err := ws.Verdict(ctx, r, mid)
		st := ws.LP.Stats()
		work.Solves += st.Solves
		work.ColdSolves += st.ColdSolves
		work.Pivots += st.Pivots
		work.RowUpdates += st.RowUpdates
		if err != nil {
			return 0, work, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == top {
		if err := a.Check(in, lo); err != nil {
			return 0, work, fmt.Errorf("relax: bracket assignment infeasible at its bound %d: %w", lo, err)
		}
	}
	return lo, work, nil
}

// witness solves the relaxation at T for its fractional solution and
// fails unless it is feasible.
func witness(ctx context.Context, in *model.Instance, T int64, ws *relax.Workspace) (*relax.Fractional, error) {
	ok, fr, err := relax.Feasible(ctx, in, T, ws)
	if err == nil && !ok {
		err = fmt.Errorf("no witness at T*=%d", T)
	}
	return fr, err
}

// ProbeMonotone binary-searches like relax.MinFeasibleT, then probes
// every T in [T*-pad, T*+pad] with relax.Workspace.Verdict on the
// searched workspace, failing if feasibility is not monotone in T or
// disagrees with relax.Feasible's cold, exact solve.
func ProbeMonotone(ctx context.Context, in *model.Instance, pad int64) error {
	ws := relax.NewWorkspace()
	tStar, err := relax.MinFeasibleT(ctx, in, ws)
	if err != nil {
		return nil // nothing to scan
	}
	r := relax.NewRelaxation(in)
	cold := relax.NewWorkspace()
	lo := tStar - pad
	if lo < 1 {
		lo = 1
	}
	for T := lo; T <= tStar+pad; T++ {
		okWarm, err := ws.Verdict(ctx, r, T)
		if err != nil {
			return fmt.Errorf("probe T=%d: %w", T, err)
		}
		okCold, _, err := relax.Feasible(ctx, in, T, cold)
		if err != nil {
			return fmt.Errorf("cold probe T=%d: %w", T, err)
		}
		if okWarm != okCold {
			return fmt.Errorf("verdict disagreement at T=%d: warm=%v cold=%v", T, okWarm, okCold)
		}
		if okWarm != (T >= tStar) {
			return fmt.Errorf("verdict not monotone: T*=%d but feasible(%d)=%v", tStar, T, okWarm)
		}
	}
	return nil
}

// CheckBracket checks relax.Bracket against tStar, a T* that
// relax.MinFeasibleT returned for in: the bracket must contain it, the
// bracket's assignment must satisfy (IP-3) at hi, and tStar must equal
// LooseMinFeasibleT's. The (IP-3) check sums every row exactly in int64
// here, apart from model.Assignment.Check, which the search itself uses.
func CheckBracket(ctx context.Context, in *model.Instance, tStar int64) error {
	lo, hi, a := relax.Bracket(in, relax.NewWorkspace())
	if tStar < lo || tStar > hi {
		return fmt.Errorf("T*=%d outside the bracket [%d, %d]", tStar, lo, hi)
	}
	if len(a) != in.N() {
		return fmt.Errorf("bracket assignment covers %d of %d jobs", len(a), in.N())
	}
	f := in.Family
	vol := make([]int64, f.Len())
	for j, s := range a {
		if p := in.Proc[j][s]; p > hi {
			return fmt.Errorf("job %d on set %d needs %d > hi=%d", j, s, p, hi)
		}
		vol[s] += in.Proc[j][s]
	}
	for s := 0; s < f.Len(); s++ {
		var load int64
		for _, b := range f.SubsetIDs(s) {
			load += vol[b]
		}
		if limit := int64(f.Size(s)) * hi; load > limit {
			return fmt.Errorf("bracket assignment loads set %d with %d > %d", s, load, limit)
		}
	}
	ref, err := LooseMinFeasibleT(ctx, in)
	if err != nil {
		return fmt.Errorf("reference search: %w", err)
	}
	if ref != tStar {
		return fmt.Errorf("T*=%d, the reference search over the loose bracket %d", tStar, ref)
	}
	return nil
}

// LooseMinFeasibleT is the reference search: relax.MinFeasibleT as it ran
// over the loose bracket [LowerBoundSimple, TrivialUpperBound] before
// relax.Bracket, with cold, exact probes only (relax.Feasible) and an LP
// probe at the upper bound when no other probe was feasible.
func LooseMinFeasibleT(ctx context.Context, in *model.Instance) (int64, error) {
	ws := relax.NewWorkspace()
	lo := max(in.LowerBoundSimple(), 1)
	top := max(in.TrivialUpperBound(), lo)
	for hi := top; lo < hi; {
		mid := lo + (hi-lo)/2
		ok, _, err := relax.Feasible(ctx, in, mid, ws)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == top {
		if ok, _, err := relax.Feasible(ctx, in, lo, ws); err != nil || !ok {
			return 0, fmt.Errorf("infeasible at the trivial upper bound %d (err=%v)", lo, err)
		}
	}
	return lo, nil
}

// CheckLemmaV1 checks Lemma V.1 through the one (IP-3) builder: the T*
// of in's singleton-extended instance must equal the T* of that
// instance's unrelated projection on the singleton family, and
// unrelated.LST must round the projection at that T* to a makespan of at
// most 2·T* (Theorem V.2). Both searches fail together when some job has
// no admissible set.
//
// The simplex decides feasibility within a tolerance, so when the exact
// LP optimum lies just above an integer either search may call that
// integer feasible while the other does not, and the two T* then differ
// by one. That gap is allowed only where the pipeline built on it holds:
// approx.TwoApprox, which rounds the projection at the hierarchical T*,
// must succeed on in with its bound at the larger of the two T* and a
// makespan of at most twice that bound. LST's bound is the projection's
// T* either way.
func CheckLemmaV1(ctx context.Context, in *model.Instance) error {
	ins := in.WithSingletons()
	tStar, errHier := relax.MinFeasibleT(ctx, ins, nil)
	u := unrelated.FromProjection(ins.UnrelatedProjection())
	tProj, errProj := relax.MinFeasibleT(ctx, u.Hierarchical(), nil)
	if (errHier == nil) != (errProj == nil) {
		return fmt.Errorf("error disagreement: hierarchical=%v projection=%v", errHier, errProj)
	}
	if errHier != nil {
		return nil
	}
	if tProj < tStar-1 || tProj > tStar+1 {
		return fmt.Errorf("Lemma V.1: hierarchical T*=%d but projection T*=%d", tStar, tProj)
	}
	res, err := approx.TwoApprox(ctx, in, nil)
	if err != nil {
		return fmt.Errorf("hierarchical T*=%d, projection T*=%d: %w", tStar, tProj, err)
	}
	if want := max(tStar, tProj); res.LPBound != want {
		return fmt.Errorf("TwoApprox bound %d, want %d (hierarchical T*=%d, projection T*=%d)", res.LPBound, want, tStar, tProj)
	}
	if res.Makespan > 2*res.LPBound {
		return fmt.Errorf("Theorem V.2: TwoApprox makespan %d exceeds 2·T* = %d", res.Makespan, 2*res.LPBound)
	}
	assign, lpT, err := unrelated.LST(ctx, u, nil)
	if err != nil {
		return fmt.Errorf("LST: %w", err)
	}
	if lpT != tProj {
		return fmt.Errorf("LST bound %d differs from the projection's T*=%d", lpT, tProj)
	}
	if mk := u.Makespan(assign); mk > 2*tProj {
		return fmt.Errorf("Theorem V.2: LST makespan %d exceeds 2·T* = %d", mk, 2*tProj)
	}
	return nil
}
