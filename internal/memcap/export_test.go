package memcap

import (
	"context"
	"fmt"

	"hsp/internal/lp"
)

// LooseTLP is the reference T_LP of m, a *Model1 or a *Model2: the binary
// search as it ran before relax.Bracket, over [LowerBoundSimple,
// TrivialUpperBound] with its first probe at the trivial bound, every
// probe a cold, exact lp.Problem.Solve.
func LooseTLP(ctx context.Context, m any) (int64, error) {
	var r relaxation
	switch m := m.(type) {
	case *Model1:
		r = model1Relaxation(m)
	case *Model2:
		r = model2Relaxation(m)
	default:
		return 0, fmt.Errorf("LooseTLP: %T is not a memory model", m)
	}
	p := lp.NewProblem(0)
	feasible := func(T int64) (bool, error) {
		r.Build(T)
		if !r.Load(p) {
			return false, nil
		}
		sol, err := p.Solve(ctx, nil)
		if err != nil {
			return false, err
		}
		return sol.Status != lp.Infeasible, nil
	}
	lo := max(r.In.LowerBoundSimple(), 1)
	hi := max(r.In.TrivialUpperBound(), lo)
	if ok, err := feasible(hi); err != nil || !ok {
		return 0, fmt.Errorf("infeasible at the trivial upper bound %d (err=%v)", hi, err)
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, err := feasible(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}
