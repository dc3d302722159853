// Package rt layers frame-based real-time schedulability on top of the
// makespan machinery. Semi-partitioned and clustered scheduling originate
// in the real-time literature the paper builds on (Bastoni–Brandenburg–
// Anderson); the natural recurrent-workload reading of the makespan model
// is frame-based periodic tasks: every task releases one job per frame of
// length F, with a mask-dependent worst-case execution time, and the frame
// is schedulable iff the induced makespan instance fits in F. The
// wrap-around schedules of Algorithms 1–3 repeat verbatim every frame, so
// one frame's schedule is the periodic schedule.
//
// The schedulability test is the trichotomy real-time papers use:
//
//   - LP bound T* > F           → Unschedulable (certificate: Section V's
//     relaxation is a lower bound on every valid schedule's makespan);
//   - some algorithm fits in F  → Schedulable (constructive: the schedule
//     is returned and repeats each frame);
//   - otherwise                 → Unknown (the gap of the 2-approximation;
//     an exact search with a node budget can close it on small task sets).
package rt

import (
	"context"
	"fmt"

	"hsp/internal/approx"
	"hsp/internal/baselines"
	"hsp/internal/exact"
	"hsp/internal/hier"
	"hsp/internal/model"
	"hsp/internal/relax"
	"hsp/internal/sched"
)

// Verdict is the outcome of a schedulability test.
type Verdict int

// Test outcomes.
const (
	Unschedulable Verdict = iota
	Schedulable
	Unknown
)

func (v Verdict) String() string {
	switch v {
	case Unschedulable:
		return "unschedulable"
	case Schedulable:
		return "schedulable"
	case Unknown:
		return "unknown"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Options tunes the test.
type Options struct {
	// ExactNodes > 0 additionally runs the branch-and-bound with this node
	// budget before giving up, turning Unknown into a definitive answer
	// when the search completes.
	ExactNodes int
}

// Result reports a schedulability test.
type Result struct {
	Verdict    Verdict
	Frame      int64
	LPBound    int64            // T* of the task set's makespan instance
	Makespan   int64            // of the constructed schedule (Schedulable only)
	Assignment model.Assignment // valid for Instance (Schedulable only)
	Instance   *model.Instance  // instance the schedule refers to
	Schedule   *sched.Schedule  // one frame; repeats every Frame time units
}

// Test decides whether the task set (tasks = jobs of the instance, WCETs =
// processing times) is schedulable with frame length F. The LP
// certificate, the constructive attempts and the optional exact search
// all poll ctx and abort with an error wrapping ctx.Err() once it is done.
func Test(ctx context.Context, in *model.Instance, frame int64, opts Options) (*Result, error) {
	if frame <= 0 {
		return nil, fmt.Errorf("rt: frame length must be positive, got %d", frame)
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("rt: %w", err)
	}
	res := &Result{Frame: frame, Instance: in}

	tStar, _, err := relax.MinFeasibleT(ctx, in, nil)
	if err != nil {
		return nil, fmt.Errorf("rt: %w", err)
	}
	res.LPBound = tStar
	if tStar > frame {
		res.Verdict = Unschedulable
		return res, nil
	}

	// Constructive attempts, cheapest first: the certified 2-approximation,
	// then the greedy + local search, then (optionally) exact search.
	if ar, err := approx.TwoApprox(ctx, in, nil); err == nil && ar.Makespan <= frame {
		res.Verdict = Schedulable
		res.Makespan = ar.Makespan
		res.Assignment = ar.Assignment
		res.Instance = ar.Instance
		res.Schedule = ar.Schedule
		return res, nil
	}
	if hr, err := baselines.GreedyWithLocalSearch(in); err == nil && hr.Makespan <= frame {
		if s, err := hier.Schedule(in, hr.Assignment, hr.Makespan); err == nil {
			res.Verdict = Schedulable
			res.Makespan = hr.Makespan
			res.Assignment = hr.Assignment
			res.Schedule = s
			return res, nil
		}
	}
	if opts.ExactNodes > 0 {
		a, opt, err := exact.Solve(ctx, in, exact.Options{MaxNodes: opts.ExactNodes}, nil)
		if err == nil {
			if opt <= frame {
				s, err := hier.Schedule(in, a, opt)
				if err != nil {
					return nil, fmt.Errorf("rt: scheduling optimal assignment: %w", err)
				}
				res.Verdict = Schedulable
				res.Makespan = opt
				res.Assignment = a
				res.Schedule = s
			} else {
				res.Verdict = Unschedulable
			}
			return res, nil
		}
	}
	res.Verdict = Unknown
	return res, nil
}

// MinFrame brackets the minimal schedulable frame length F*:
// lower = the LP bound (no smaller frame can ever be schedulable),
// upper = the best constructive makespan found (that frame provably works).
// ctx is polled as in Test.
func MinFrame(ctx context.Context, in *model.Instance) (lower, upper int64, err error) {
	if err := in.Validate(); err != nil {
		return 0, 0, fmt.Errorf("rt: %w", err)
	}
	lower, _, err = relax.MinFeasibleT(ctx, in, nil)
	if err != nil {
		return 0, 0, err
	}
	ar, err := approx.TwoApprox(ctx, in, nil)
	if err != nil {
		return 0, 0, err
	}
	upper = ar.Makespan
	if hr, err := baselines.GreedyWithLocalSearch(ar.Instance); err == nil && hr.Makespan < upper {
		if _, err := hier.Schedule(ar.Instance, hr.Assignment, hr.Makespan); err == nil {
			upper = hr.Makespan
		}
	}
	return lower, upper, nil
}

// Utilization returns Σ_j (cheapest WCET of task j) / (m · F): the load of
// the task set relative to platform capacity. Values above 1 are a trivial
// unschedulability certificate.
func Utilization(in *model.Instance, frame int64) float64 {
	var total int64
	for j := 0; j < in.N(); j++ {
		v, _ := in.MinProc(j)
		total += v
	}
	return float64(total) / (float64(in.M()) * float64(frame))
}

// Unroll repeats a one-frame schedule for the given number of frames,
// yielding the explicit periodic schedule (for inspection or simulation).
func Unroll(s *sched.Schedule, frame int64, frames int) *sched.Schedule {
	out := sched.New(s.NumJobs, s.NumMachines, frame*int64(frames))
	for k := 0; k < frames; k++ {
		off := frame * int64(k)
		for _, iv := range s.Intervals {
			out.Add(iv.Job, iv.Machine, iv.Start+off, iv.End+off)
		}
	}
	return out.Normalize()
}
