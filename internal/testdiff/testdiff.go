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

	"hsp/internal/laminar"
	"hsp/internal/model"
	"hsp/internal/relax"
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

// RelaxDiff runs relax.MinFeasibleT twice on in — once on a
// warm-starting workspace, once on a workspace with warm start disabled
// (the cold oracle) — and fails unless both return the same T*, bitwise
// identical witnesses, and a witness that CheckFractional accepts.
func RelaxDiff(ctx context.Context, in *model.Instance) error {
	warmWS := relax.NewWorkspace()
	tWarm, frWarm, errWarm := relax.MinFeasibleT(ctx, in, warmWS)
	coldWS := relax.NewWorkspace()
	coldWS.LP.SetWarmStart(false)
	tCold, frCold, errCold := relax.MinFeasibleT(ctx, in, coldWS)
	if (errWarm == nil) != (errCold == nil) {
		return fmt.Errorf("error disagreement: warm=%v cold=%v", errWarm, errCold)
	}
	if errWarm != nil {
		return nil // both failed identically (e.g. no admissible set)
	}
	if tWarm != tCold {
		return fmt.Errorf("T* disagreement: warm=%d cold=%d", tWarm, tCold)
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

// ProbeMonotone binary-searches like relax.MinFeasibleT but probes
// every T in [T*-pad, T*+pad] on the warm workspace afterwards, failing
// if feasibility is not monotone in T or disagrees with a cold probe.
func ProbeMonotone(ctx context.Context, in *model.Instance, pad int64) error {
	ws := relax.NewWorkspace()
	tStar, _, err := relax.MinFeasibleT(ctx, in, ws)
	if err != nil {
		return nil // nothing to scan
	}
	cold := relax.NewWorkspace()
	cold.LP.SetWarmStart(false)
	lo := tStar - pad
	if lo < 1 {
		lo = 1
	}
	for T := lo; T <= tStar+pad; T++ {
		okWarm, err := relax.ProbeFeasible(ctx, in, T, ws)
		if err != nil {
			return fmt.Errorf("probe T=%d: %w", T, err)
		}
		okCold, err := relax.ProbeFeasible(ctx, in, T, cold)
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
