// Package approx implements the paper's approximation pipelines: the
// polynomial-time 2-approximation for hierarchical scheduling (Theorem
// V.2) and the 8-approximation for general, non-laminar affinity masks
// sketched in Section II.
//
// The 2-approximation follows the proof of Theorem V.2 exactly:
//
//  1. binary-search the minimal T* with a feasible LP relaxation of
//     (IP-3) — a lower bound on the optimal makespan;
//  2. by Lemma V.1, a fractional solution at T* pushes down to the
//     singleton sets, so the unrelated-machines relaxation with
//     p'_ij = P_j({i}) is feasible at T* (or at T*+1, which then becomes
//     the bound, when the float search read T* one low; TwoApprox fails
//     if it is neither; experiment E5 reproduces the push-down itself);
//  3. round a vertex of that unrelated relaxation with the classic
//     Lenstra–Shmoys–Tardos algorithm, yielding an integral assignment
//     with makespan at most 2·T* ≤ 2·OPT;
//  4. realize the assignment as a valid schedule with the hierarchical
//     scheduler of Section IV.
package approx

import (
	"context"
	"fmt"

	"hsp/internal/baselines"
	"hsp/internal/hier"
	"hsp/internal/model"
	"hsp/internal/relax"
	"hsp/internal/sched"
	"hsp/internal/unrelated"
)

// Result is the outcome of the 2-approximation.
type Result struct {
	// Instance is the solved instance: the input extended with any missing
	// singleton sets (Section V's preprocessing). Assignment and Schedule
	// refer to this instance's family.
	Instance   *model.Instance
	Assignment model.Assignment
	LPBound    int64 // T*: minimal T with feasible (IP-3) relaxation, ≤ OPT
	Makespan   int64 // achieved makespan, ≤ 2·T*
	Schedule   *sched.Schedule
}

// TwoApprox runs the Theorem V.2 pipeline on a hierarchical instance. The
// dominant stages — the binary search over LP relaxations and the
// unrelated-machines vertex LP — poll ctx between simplex pivots and
// abort with an error wrapping ctx.Err() once it is done, and the whole
// pipeline runs on the caller-held relaxation workspace (nil allocates a
// private one): the binary search reuses it probe to probe, and the
// unrelated vertex LP, one more relax probe, reuses its arenas and
// tableau.
func TwoApprox(ctx context.Context, in *model.Instance, ws *relax.Workspace) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("approx: %w", err)
	}
	ins := in.WithSingletons()
	if ws == nil {
		ws = relax.NewWorkspace()
	}
	tStar, err := relax.MinFeasibleT(ctx, ins, ws)
	if err != nil {
		return nil, fmt.Errorf("approx: %w", err)
	}

	// Lemma V.1: a singleton-supported feasible solution exists at T*, so
	// the unrelated relaxation with p'_ij = P_j({i}) is feasible at T*.
	// On a singleton-complete instance, machine i's minimal containing
	// set is {i}, so the unrelated projection is exactly that relaxation:
	// (IP-3) on the singleton family, solved for its cold vertex.
	u := unrelated.FromProjection(ins.UnrelatedProjection())
	uh := u.Hierarchical()
	ok, x, err := relax.Feasible(ctx, uh, tStar, ws)
	if err == nil && !ok {
		// The simplex decides feasibility within a tolerance, so when the
		// exact LP optimum lies just above an integer the search can call
		// that integer feasible while this LP, its equal in exact
		// arithmetic, does not. T* then read one low; the bound is the
		// next integer, where this LP is feasible.
		tStar++
		ok, x, err = relax.Feasible(ctx, uh, tStar, ws)
	}
	if err != nil {
		return nil, fmt.Errorf("approx: unrelated relaxation: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("approx: unrelated relaxation infeasible at T*=%d, contradicting Lemma V.1", tStar)
	}
	massign, err := unrelated.RoundVertex(u, tStar, x.X)
	if err != nil {
		return nil, fmt.Errorf("approx: %w", err)
	}

	a := make(model.Assignment, ins.N())
	for j, i := range massign {
		a[j] = ins.Family.Singleton(i)
	}
	mk := u.Makespan(massign)
	s, err := hier.Schedule(ins, a, mk)
	if err != nil {
		return nil, fmt.Errorf("approx: scheduling the rounded assignment: %w", err)
	}
	return &Result{
		Instance:   ins,
		Assignment: a,
		LPBound:    tStar,
		Makespan:   mk,
		Schedule:   s,
	}, nil
}

// TwoApproxCtx is TwoApprox with a private workspace. It remains only
// for the benchmark module (hspbench), which pins this spelling.
//
// Deprecated: call TwoApprox(ctx, in, nil).
func TwoApproxCtx(ctx context.Context, in *model.Instance) (*Result, error) {
	return TwoApprox(ctx, in, nil)
}

// Best runs the 2-approximation and the greedy+local-search heuristic and
// returns whichever schedule is shorter, keeping the LP bound as the
// quality certificate (Makespan ≤ 2·T* still holds — the heuristic can
// only improve on the certified solution). ctx aborts the certified
// pipeline mid-pivot (the heuristic improvement runs uninterrupted — it
// is polynomial and cheap), and the caller-held relaxation workspace is
// threaded through the 2-approximation (nil allocates a private one).
func Best(ctx context.Context, in *model.Instance, ws *relax.Workspace) (*Result, error) {
	res, err := TwoApprox(ctx, in, ws)
	if err != nil {
		return nil, err
	}
	heur, err := baselines.GreedyWithLocalSearch(res.Instance)
	if err != nil || heur.Makespan >= res.Makespan {
		return res, nil
	}
	s, err := hier.Schedule(res.Instance, heur.Assignment, heur.Makespan)
	if err != nil {
		return res, nil
	}
	res.Assignment = heur.Assignment
	res.Makespan = heur.Makespan
	res.Schedule = s
	return res, nil
}

// GeneralResult is the outcome of the 8-approximation on general masks.
type GeneralResult struct {
	MachineAssign []int // job → machine
	LPBound       int64 // unrelated nonpreemptive LP bound (≤ 4·OPT by [15])
	Makespan      int64 // ≤ 2·LPBound ≤ 8·OPT
	Schedule      *sched.Schedule
}

// EightApprox implements the Section II algorithm for arbitrary admissible
// families: project to unrelated machines by taking, for each machine, the
// cheapest admissible set containing it; solve that nonpreemptively with
// the 2-approximate LST rounding. The optimal preemptive makespan of the
// projection lower-bounds the original optimum, and nonpreemptive vs
// preemptive optima differ by at most a factor 4 [Lin–Vitter], giving a
// factor 8 overall. The LST binary search polls ctx between simplex
// pivots and aborts with an error wrapping ctx.Err() once it is done, and
// runs on the caller-held relaxation workspace (nil allocates a private
// one).
func EightApprox(ctx context.Context, g *model.GeneralInstance, ws *relax.Workspace) (*GeneralResult, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("approx: %w", err)
	}
	u := unrelated.FromProjection(g.UnrelatedProjection())
	assign, lpT, err := unrelated.LST(ctx, u, ws)
	if err != nil {
		return nil, fmt.Errorf("approx: %w", err)
	}
	return &GeneralResult{
		MachineAssign: assign,
		LPBound:       lpT,
		Makespan:      u.Makespan(assign),
		Schedule:      unrelated.ScheduleAssignment(u, assign),
	}, nil
}
