package expt

import (
	"context"
	"fmt"
	"math/rand"

	"hsp/internal/model"
	"hsp/internal/rt"
	"hsp/internal/sched"
	"hsp/internal/workload"
)

// The rt pack opens the engine to frame-based real-time workloads
// (internal/rt): recurrent task sets where every task releases one job
// per frame and the frame is schedulable iff the induced makespan
// instance fits the frame length. RT1 sweeps the schedulability ratio
// over target utilizations; RT2 certifies the minimal-frame bracket and
// the periodic unrolling.
func init() {
	RegisterPack(Pack{
		Name: "rt",
		Description: "frame-based real-time schedulability: utilization sweeps and " +
			"minimal-frame brackets over generated task sets (internal/rt)",
	})
	Register(Experiment{ID: "RT1", Pack: "rt",
		Title: "Frame sweep: schedulability verdicts vs target utilization",
		Claim: "verdicts partition the trials, schedulability degrades monotonically with utilization, and utilization > 1 is always unschedulable",
		Run:   Suite.RT1})
	Register(Experiment{ID: "RT2", Pack: "rt",
		Title: "Minimal-frame bracket: T* ≤ F* ≤ 2·T*, with periodic unrolling",
		Claim: "upper/lower ≤ 2 (Theorem V.2), the upper end is constructively schedulable, below the lower end is certified unschedulable",
		Run:   Suite.RT2})
}

// rtTaskSets draws the task sets an rt experiment sweeps: SMP-CMP
// instances (m = 8) whose jobs are the tasks and whose processing times
// are the mask-dependent WCETs, plus each set's total minimum work.
func rtTaskSets(rng *rand.Rand, trials, jobs int) ([]*rtTaskSet, bool) {
	sets := make([]*rtTaskSet, 0, trials)
	for k := 0; k < trials; k++ {
		in := generatedN(rng, workload.SMPCMP, jobs, 0.3, 0)
		var sumMin int64
		for j := 0; j < in.N(); j++ {
			v, _ := in.MinProc(j)
			sumMin += v
		}
		if sumMin <= 0 {
			return nil, false
		}
		tester, err := rt.NewTester(in, nil)
		if err != nil {
			return nil, false
		}
		sets = append(sets, &rtTaskSet{in: in, tester: tester, sumMin: sumMin})
	}
	return sets, true
}

// rtTaskSet is one task set with the Tester that answers every frame
// RT1 probes it at, so T* and the constructive schedules are computed
// once per set, not once per utilization row.
type rtTaskSet struct {
	in     *model.Instance
	tester *rt.Tester
	sumMin int64
}

// RT1 sweeps target utilization u over fixed task sets by shrinking the
// frame: F = ⌊Σ_j minWCET_j / (u·m)⌋. Per task set the frame is
// non-increasing in u, and every verdict of the trichotomy test is
// monotone in F, so the aggregate counts must be monotone across rows —
// a structural claim no tuned threshold can fake. At u > 1 the volume
// bound m·F < Σ minWCET makes the root LP infeasible, so the final row
// must be uniformly unschedulable.
func (s Suite) RT1(ctx context.Context) *Table {
	t := newTable("RT1", "target util", "trials", "schedulable", "unknown", "unschedulable", "valid schedules")
	rng := rand.New(rand.NewSource(s.Seed))
	trials := s.trials(10)
	sets, ok := rtTaskSets(rng, trials, 12)
	if !ok {
		t.CheckFail("task set generation", "degenerate task set (zero total work)")
		return t
	}
	utils := []float64{0.35, 0.55, 0.75, 0.95, 1.15}
	if s.Quick {
		utils = []float64{0.35, 0.75, 1.15}
	}
	prevSched, prevUnsched := -1, -1
	for _, u := range utils {
		if ctx.Err() != nil {
			return t
		}
		sched0, unknown, unsched, valid := 0, 0, 0, 0
		for _, ts := range sets {
			frame := int64(float64(ts.sumMin) / (u * float64(ts.in.M())))
			if frame < 1 {
				frame = 1
			}
			res, err := ts.tester.Test(ctx, frame, rt.Options{ExactNodes: 100_000})
			if err != nil {
				continue
			}
			switch res.Verdict {
			case rt.Schedulable:
				sched0++
				demand, allowed := res.Assignment.Requirement(res.Instance)
				if res.Makespan <= frame &&
					res.Schedule.Validate(sched.Requirement{Demand: demand, Allowed: allowed}) == nil {
					valid++
				}
			case rt.Unknown:
				unknown++
			case rt.Unschedulable:
				unsched++
			}
		}
		t.AddRow(fmt.Sprintf("%.2f", u), trials, sched0, unknown, unsched, valid)
		t.CheckEq(fmt.Sprintf("u=%.2f verdicts partition trials", u), sched0+unknown+unsched, trials)
		t.CheckEq(fmt.Sprintf("u=%.2f schedulable certificates valid", u), valid, sched0)
		if prevSched >= 0 {
			// Per task set the frame shrank, and each verdict region is
			// monotone in the frame, so the aggregates must be monotone.
			t.CheckLE(fmt.Sprintf("u=%.2f schedulable non-increasing", u), float64(sched0), float64(prevSched), 0)
			t.CheckGE(fmt.Sprintf("u=%.2f unschedulable non-decreasing", u), float64(unsched), float64(prevUnsched), 0)
		}
		if u > 1 {
			t.CheckEq(fmt.Sprintf("u=%.2f overload all unschedulable", u), unsched, trials)
		}
		prevSched, prevUnsched = sched0, unsched
	}
	t.Notes = append(t.Notes,
		"same task sets in every row; only the frame shrinks with the target utilization,",
		"so schedulable can only fall and unschedulable can only rise; u > 1 is a volume certificate")
	return t
}

// RT2 brackets the minimal schedulable frame F* per task set:
// lower = T* (the Section V LP bound — no smaller frame can ever work)
// and upper = the best constructive makespan. Theorem V.2 pins
// upper ≤ 2·lower; testing at F = upper must come back schedulable and
// testing at F = lower − 1 must come back unschedulable with the LP
// certificate. The schedulable frame is unrolled over three frames to
// certify the periodic reading of the wrap-around schedules.
func (s Suite) RT2(ctx context.Context) *Table {
	t := newTable("RT2", "trials", "max upper/lower", "schedulable @upper", "unschedulable @lower-1", "periodic ok")
	rng := rand.New(rand.NewSource(s.Seed + 1))
	trials := s.trials(8)
	var maxRatio float64
	cnt, schedUp, tight, unschedLow, periodic := 0, 0, 0, 0, 0
	for k := 0; k < trials; k++ {
		if ctx.Err() != nil {
			return t
		}
		in := generatedN(rng, workload.SMPCMP, 10, 0.3, 0)
		tester, err := rt.NewTester(in, nil)
		if err != nil {
			continue
		}
		lower, upper, err := tester.MinFrame(ctx)
		if err != nil || lower <= 0 {
			continue
		}
		cnt++
		if r := float64(upper) / float64(lower); r > maxRatio {
			maxRatio = r
		}
		if res, err := tester.Test(ctx, upper, rt.Options{}); err == nil && res.Verdict == rt.Schedulable {
			schedUp++
			if res.Makespan <= upper {
				tight++
			}
			un := rt.Unroll(res.Schedule, upper, 3)
			if un.Makespan() <= 3*upper && len(un.Intervals) >= len(res.Schedule.Intervals) {
				periodic++
			}
		}
		if lower >= 2 {
			if res, err := tester.Test(ctx, lower-1, rt.Options{}); err == nil &&
				res.Verdict == rt.Unschedulable && res.LPBound > lower-1 {
				unschedLow++
			}
		} else {
			unschedLow++ // frame 0 is vacuously unschedulable; nothing to test
		}
	}
	t.AddRow(cnt, maxRatio, schedUp, unschedLow, periodic)
	t.CheckGE("brackets computed", float64(cnt), 1, 0)
	t.CheckLE("max upper/lower", maxRatio, 2, 1e-9)
	t.CheckEq("upper end schedulable", schedUp, cnt)
	t.CheckEq("upper end tight", tight, cnt)
	t.CheckEq("below lower end unschedulable", unschedLow, cnt)
	t.CheckEq("periodic unroll valid", periodic, cnt)
	t.Notes = append(t.Notes,
		"lower = LP bound T*, upper = best constructive makespan; Theorem V.2 gives upper ≤ 2·lower,",
		"and the one-frame schedule repeats verbatim (Unroll) as the periodic schedule")
	return t
}
