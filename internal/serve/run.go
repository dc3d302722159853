package serve

import (
	"bytes"
	"context"
	"fmt"

	"hsp/internal/approx"
	_ "hsp/internal/dag" // register the "dag" scenario for Algo routing
	"hsp/internal/exact"
	"hsp/internal/hier"
	"hsp/internal/memcap"
	"hsp/internal/model"
	"hsp/internal/relax"
	"hsp/internal/rt"
	"hsp/internal/scenario"
	"hsp/internal/sched"
)

// Workspaces is one worker's reusable solver state: the relaxation
// workspace (simplex tableau plus constraint arenas, threaded through
// the LP bound, the 2-approximation, the heuristic pipeline, rt's tests
// and both memory models) and the exact branch-and-bound workspace. Both
// grow to the largest instance seen and are reused request to request;
// neither retains the previous request's instance or context between
// runs.
//
// The one piece of per-instance state is a one-entry rt memo: the
// instance bytes of the last rt request and the rt.Tester that answered
// it, so an admission sweep of several frames on one task set computes
// T* and the constructive schedules once. The Server's worker drops it
// at the end of every task, so nothing from one task's instance outlives
// that task. Not goroutine-safe — one Workspaces per worker.
type Workspaces struct {
	Relax *relax.Workspace
	Exact *exact.Workspace

	rtDoc    []byte // instance bytes rtTester was built from
	rtTester *rt.Tester
}

// NewWorkspaces returns warmed-up-able empty workspaces.
func NewWorkspaces() *Workspaces {
	return &Workspaces{Relax: relax.NewWorkspace(), Exact: exact.NewWorkspace()}
}

// tester returns the rt.Tester for in, reusing the memoized one when doc
// (the request's instance bytes, which in was decoded from) is byte-equal
// to the memo's key. A request without instance bytes is never memoized.
func (ws *Workspaces) tester(in *model.Instance, doc []byte) (*rt.Tester, error) {
	if ws.rtTester != nil && len(doc) > 0 && bytes.Equal(doc, ws.rtDoc) {
		return ws.rtTester, nil
	}
	t, err := rt.NewTester(in, ws.Relax)
	if err != nil {
		return nil, err
	}
	if len(doc) > 0 {
		ws.rtDoc, ws.rtTester = doc, t
	}
	return t, nil
}

// endTask drops the rt memo, ending its task-scoped lifetime.
func (ws *Workspaces) endTask() { ws.rtDoc, ws.rtTester = nil, nil }

// testRT runs one rt test; tests replace it to feed the certification
// checks an answer no real Tester would give.
var testRT = (*rt.Tester).Test

// solveModel1 and solveModel2 run the memory models, and twoApprox and
// bestApprox the Theorem V.2 pipelines; tests replace them as testRT is
// replaced.
var (
	solveModel1 = memcap.SolveModel1
	solveModel2 = memcap.SolveModel2
	twoApprox   = approx.TwoApprox
	bestApprox  = approx.Best
)

// Outcome is the typed result of one query: what the daemon serializes
// into a Response and what cmd/hsched prints. Instance is the instance
// Assignment and Schedule refer to — the input itself for "exact"/"lp",
// the singleton-extended copy for the approximation pipelines.
type Outcome struct {
	Algo       string
	Instance   *model.Instance
	Assignment model.Assignment
	LPBound    int64
	Makespan   int64
	Optimal    bool
	Verdict    rt.Verdict
	HasVerdict bool
	Frame      int64
	MemFactor  float64
	LoadFactor float64
	Fallbacks  int
	// Scenario fields, set when the query routed through the scenario
	// layer (see RunScenario).
	Scenario   string
	ScenarioLB int64
	Segments   int
	MaxLive    int64
	Schedule   *sched.Schedule
}

// Run dispatches one typed query on a decoded instance. This is the
// single spelling of "solve a request" shared by the CLI and the daemon;
// every solver call is the canonical (ctx, ..., ws) form, so deadlines
// cancel mid-pivot/mid-DFS and a caller-held Workspaces (nil allocates
// private ones) is reused across requests.
func Run(ctx context.Context, in *model.Instance, req *Request, ws *Workspaces) (*Outcome, error) {
	if ws == nil {
		ws = NewWorkspaces()
	}
	out := &Outcome{Algo: req.Algo, Instance: in}
	switch req.Algo {
	case AlgoLP:
		t, err := relax.MinFeasibleT(ctx, in, ws.Relax)
		if err != nil {
			return nil, err
		}
		out.LPBound = t
		return out, nil

	case AlgoExact:
		a, opt, err := exact.Solve(ctx, in, exact.Options{MaxNodes: req.MaxNodes}, ws.Exact)
		if err != nil {
			return nil, err
		}
		out.Assignment, out.Makespan, out.Optimal = a, opt, true
		out.LPBound = opt // the optimum is its own tight bound
		s, err := hier.Schedule(in, a, opt)
		if err != nil {
			return nil, fmt.Errorf("scheduling: %w", err)
		}
		if err := validate(in, a, s); err != nil {
			return nil, err
		}
		out.Schedule = s
		return out, nil

	case Algo2Approx, AlgoBest:
		solve := twoApprox
		if req.Algo == AlgoBest {
			solve = bestApprox
		}
		res, err := solve(ctx, in, ws.Relax)
		if err != nil {
			return nil, err
		}
		if err := validate(res.Instance, res.Assignment, res.Schedule); err != nil {
			return nil, err
		}
		if res.LPBound <= 0 || res.Makespan > 2*res.LPBound {
			return nil, fmt.Errorf("approx: Theorem V.2 violated: makespan %d, T*=%d (want T* > 0 and makespan ≤ 2·T*)", res.Makespan, res.LPBound)
		}
		out.Instance = res.Instance
		out.Assignment = res.Assignment
		out.LPBound = res.LPBound
		out.Makespan = res.Makespan
		out.Schedule = res.Schedule
		return out, nil

	case AlgoRT:
		if req.Frame <= 0 {
			return nil, badRequestf("algo %q requires a positive frame, got %d", AlgoRT, req.Frame)
		}
		t, err := ws.tester(in, req.Instance)
		if err != nil {
			return nil, err
		}
		res, err := testRT(t, ctx, req.Frame, rt.Options{ExactNodes: req.MaxNodes})
		if err != nil {
			return nil, err
		}
		// One memoized schedule answers many frames, so every
		// schedulable answer is certified on its own before it leaves.
		if res.Verdict == rt.Schedulable {
			if err := validate(res.Instance, res.Assignment, res.Schedule); err != nil {
				return nil, err
			}
			if res.Makespan > res.Frame {
				return nil, fmt.Errorf("rt: schedulable verdict with makespan %d exceeds frame %d", res.Makespan, res.Frame)
			}
		}
		out.Instance = res.Instance
		out.Assignment = res.Assignment
		out.LPBound = res.LPBound
		out.Makespan = res.Makespan
		out.Verdict, out.HasVerdict = res.Verdict, true
		out.Frame = res.Frame
		out.Schedule = res.Schedule
		return out, nil

	case AlgoMemory1:
		if req.Memory == nil {
			return nil, badRequestf("algo %q requires a memory spec", AlgoMemory1)
		}
		m1 := &memcap.Model1{In: in, Budget: req.Memory.Budget, Size: req.Memory.Size}
		res, err := solveModel1(ctx, m1, ws.Relax)
		if err != nil {
			return nil, err
		}
		if err := certifyMemory(res, 3, "Theorem VI.1"); err != nil {
			return nil, err
		}
		fillMemory(out, res)
		return out, nil

	case AlgoMemory2:
		if req.Memory == nil {
			return nil, badRequestf("algo %q requires a memory spec", AlgoMemory2)
		}
		m2 := &memcap.Model2{In: in, JobSize: req.Memory.JobSize, Mu: req.Memory.Mu}
		res, err := solveModel2(ctx, m2, ws.Relax)
		if err != nil {
			return nil, err
		}
		if err := certifyMemory(res, m2.Sigma(), "Theorem VI.3"); err != nil {
			return nil, err
		}
		fillMemory(out, res)
		return out, nil
	}
	return nil, badRequestf("unknown -algo %q", req.Algo)
}

// RunScenario compiles a scenario workload down to the rigid core and
// solves the compiled instance with the "best" pipeline (2-approx +
// heuristic improvement, so the LP certificate Makespan ≤ 2·T* holds
// and with it any compile-time Factor·LowerBound claim). The outcome
// carries the scenario metadata, and a makespan that violates the
// scenario's certified bound is turned into a server-side error rather
// than answered — the claim check is part of the contract, not left to
// the client.
func RunScenario(ctx context.Context, wl scenario.Workload, req *Request, ws *Workspaces) (*Outcome, error) {
	c, err := wl.Compile()
	if err != nil {
		return nil, errBadRequest{err}
	}
	inner := *req
	inner.Algo = AlgoBest
	out, err := Run(ctx, c.Instance, &inner, ws)
	if err != nil {
		return nil, err
	}
	if err := c.CheckMakespan(out.Makespan); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", wl.Scenario(), err)
	}
	out.Algo = req.Algo
	out.Scenario = wl.Scenario()
	out.ScenarioLB = c.LowerBound
	out.Segments = c.Segments
	out.MaxLive = c.MaxLive
	return out, nil
}

// certifyMemory checks a memory model's answer before it leaves: the
// schedule must realize the assignment, the makespan must be at least the
// positive relaxation bound, and a rounding without fallbacks must keep
// both factors within the theorem's bound.
func certifyMemory(res *memcap.Result, bound float64, theorem string) error {
	if err := validate(res.Instance, res.Assignment, res.Schedule); err != nil {
		return err
	}
	if res.TLP <= 0 || res.Makespan < res.TLP {
		return fmt.Errorf("memcap: makespan %d below its relaxation bound %d", res.Makespan, res.TLP)
	}
	const tol = 1e-6 // the experiments' factor-check tolerance
	if res.Fallbacks == 0 && (res.LoadFactor > bound+tol || res.MemFactor > bound+tol) {
		return fmt.Errorf("memcap: %s violated: load factor %g, memory factor %g exceed %g",
			theorem, res.LoadFactor, res.MemFactor, bound)
	}
	return nil
}

// fillMemory copies a bicriteria result into the outcome.
func fillMemory(out *Outcome, res *memcap.Result) {
	out.Instance = res.Instance
	out.Assignment = res.Assignment
	out.LPBound = res.TLP
	out.Makespan = res.Makespan
	out.MemFactor = res.MemFactor
	out.LoadFactor = res.LoadFactor
	out.Fallbacks = res.Fallbacks
	out.Schedule = res.Schedule
}

// validate checks the schedule against the demands the assignment
// induces, with the same error spelling cmd/hsched always used.
func validate(in *model.Instance, a model.Assignment, s *sched.Schedule) error {
	demand, allowed := a.Requirement(in)
	if err := s.Validate(sched.Requirement{Demand: demand, Allowed: allowed}); err != nil {
		return fmt.Errorf("schedule failed validation: %w", err)
	}
	return nil
}

// decoded is a request with its workload document decoded: the
// instance for the core algos, or the workload for a scenario algo. The
// daemon decodes at admission, so its workers only solve.
type decoded struct {
	*Request
	in *model.Instance   // core algos
	wl scenario.Workload // scenario algos ("dag", "rigid")
}

// decode is Do's first half: it parses the request's workload document.
// Its errors are client mistakes.
func decode(req *Request) (*decoded, error) {
	if len(req.Instance) == 0 {
		return nil, badRequestf("request carries no instance")
	}
	d := &decoded{Request: req}
	var err error
	if desc, ok := scenario.Lookup(req.Algo); ok {
		// Scenario algos: Instance carries that scenario's document,
		// decoded here and compiled on the worker by RunScenario.
		d.wl, err = desc.Decode(req.Instance)
	} else {
		d.in, err = model.Decode(bytes.NewReader(req.Instance))
	}
	if err != nil {
		return nil, errBadRequest{err}
	}
	return d, nil
}

// Do decodes the request's embedded instance, runs it, and serializes
// the outcome: decode then respond, the two halves the daemon runs at
// admission and on a worker.
func Do(ctx context.Context, req *Request, ws *Workspaces) (*Response, error) {
	d, err := decode(req)
	if err != nil {
		return nil, err
	}
	return respond(ctx, d, ws)
}

// respond is Do's second half: it runs a decoded request and serializes
// the outcome — the daemon's per-request unit of worker time.
func respond(ctx context.Context, d *decoded, ws *Workspaces) (*Response, error) {
	var out *Outcome
	var err error
	if d.wl != nil {
		out, err = RunScenario(ctx, d.wl, d.Request, ws)
	} else {
		out, err = Run(ctx, d.in, d.Request, ws)
	}
	if err != nil {
		return nil, err
	}
	resp := &Response{
		Algo:       out.Algo,
		LPBound:    out.LPBound,
		Makespan:   out.Makespan,
		Optimal:    out.Optimal,
		Assignment: out.Assignment,
		Frame:      out.Frame,
		MemFactor:  out.MemFactor,
		LoadFactor: out.LoadFactor,
		Fallbacks:  out.Fallbacks,
		Scenario:   out.Scenario,
		ScenarioLB: out.ScenarioLB,
		Segments:   out.Segments,
		MaxLive:    out.MaxLive,
	}
	if out.HasVerdict {
		resp.Verdict = out.Verdict.String()
	}
	if d.WantSchedule && out.Schedule != nil {
		var buf bytes.Buffer
		if err := sched.EncodeJSON(&buf, out.Schedule); err != nil {
			return nil, fmt.Errorf("encoding schedule: %w", err)
		}
		resp.Schedule = buf.Bytes()
	}
	return resp, nil
}
