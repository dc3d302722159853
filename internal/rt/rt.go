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
//
// None of the three checks depends on the frame, so a Tester holds one
// task set and answers any number of frames from one T*, one
// 2-approximation and one greedy + local-search schedule: an admission
// sweep over k frames costs one test plus k cheap comparisons. NewTester
// takes the caller's relaxation workspace, so a daemon worker runs rt's
// LP work on the same warm tableau as every other solver.
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

// Tester answers schedulability questions about one task set (tasks =
// jobs of the instance, WCETs = processing times) at any frame length.
// The three frame-independent stages of the trichotomy — the LP bound
// T*, the certified 2-approximation and the greedy + local-search
// schedule (on the task set for Test, on the 2-approximation's
// singleton-extended copy for MinFrame, as the bracket has always been
// defined) — are computed at most once each, on the Tester's relaxation
// workspace, and reused by every later Test and MinFrame call. Only
// successes are memoized: a stage that failed, including one whose
// context died, runs again on the next call, so every answer equals what
// a fresh Tester would return. The exact fallback (Options.ExactNodes)
// runs per call and is never memoized.
//
// Results of one Tester share the memoized assignments and schedules;
// treat them as read-only. A Tester is not goroutine-safe.
type Tester struct {
	in     *model.Instance
	ws     *relax.Workspace
	tStar  int64          // 0 until the LP bound succeeded
	approx *approx.Result // nil until the 2-approximation succeeded
	greedy heuristic      // on in, for Test
	ext    heuristic      // on approx.Instance, for MinFrame
}

// heuristic memoizes the greedy + local-search result on one instance
// and the schedule that realizes it (nil when the hierarchical
// scheduler rejects the assignment; the heuristic then never answers).
type heuristic struct {
	res *baselines.Result
	s   *sched.Schedule
}

// NewTester validates the task set and returns a Tester that runs its
// LP work on ws (nil allocates a private workspace for the Tester).
func NewTester(in *model.Instance, ws *relax.Workspace) (*Tester, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("rt: %w", err)
	}
	if ws == nil {
		ws = relax.NewWorkspace()
	}
	return &Tester{in: in, ws: ws}, nil
}

// lpBound returns T*(in), the Section V LP bound. A dead ctx fails even
// when T* is memoized, as the search it stands for would have.
func (t *Tester) lpBound(ctx context.Context) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if t.tStar == 0 {
		tStar, err := relax.MinFeasibleT(ctx, t.in, t.ws)
		if err != nil {
			return 0, err
		}
		t.tStar = tStar
	}
	return t.tStar, nil
}

// twoApprox returns the Theorem V.2 2-approximation.
func (t *Tester) twoApprox(ctx context.Context) (*approx.Result, error) {
	if t.approx == nil {
		ar, err := approx.TwoApprox(ctx, t.in, t.ws)
		if err != nil {
			return nil, err
		}
		t.approx = ar
	}
	return t.approx, nil
}

// heuristicOn returns the greedy + local-search result on inst (in, or
// the 2-approximation's singleton-extended copy), nil when it failed.
func (t *Tester) heuristicOn(inst *model.Instance) *heuristic {
	h := &t.greedy
	if inst != t.in {
		h = &t.ext
	}
	if h.res == nil {
		hr, err := baselines.GreedyWithLocalSearch(inst)
		if err != nil {
			return nil
		}
		h.res = hr
		if s, err := hier.Schedule(inst, hr.Assignment, hr.Makespan); err == nil {
			h.s = s
		}
	}
	return h
}

// Test decides whether the task set is schedulable with frame length F.
// The LP certificate, the constructive attempts and the optional exact
// search all poll ctx and abort with an error wrapping ctx.Err() once it
// is done.
func (t *Tester) Test(ctx context.Context, frame int64, opts Options) (*Result, error) {
	if frame <= 0 {
		return nil, fmt.Errorf("rt: frame length must be positive, got %d", frame)
	}
	in := t.in
	res := &Result{Frame: frame, Instance: in}

	tStar, err := t.lpBound(ctx)
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
	if ar, err := t.twoApprox(ctx); err == nil && ar.Makespan <= frame {
		res.Verdict = Schedulable
		res.Makespan = ar.Makespan
		res.Assignment = ar.Assignment
		res.Instance = ar.Instance
		res.Schedule = ar.Schedule
		return res, nil
	}
	if h := t.heuristicOn(in); h != nil && h.s != nil && h.res.Makespan <= frame {
		res.Verdict = Schedulable
		res.Makespan = h.res.Makespan
		res.Assignment = h.res.Assignment
		res.Schedule = h.s
		return res, nil
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
func (t *Tester) MinFrame(ctx context.Context) (lower, upper int64, err error) {
	lower, err = t.lpBound(ctx)
	if err != nil {
		return 0, 0, err
	}
	ar, err := t.twoApprox(ctx)
	if err != nil {
		return 0, 0, err
	}
	upper = ar.Makespan
	if h := t.heuristicOn(ar.Instance); h != nil && h.s != nil && h.res.Makespan < upper {
		upper = h.res.Makespan
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
