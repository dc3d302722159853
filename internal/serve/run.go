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
// the LP bound, the 2-approximation and the heuristic pipeline) and the
// exact branch-and-bound workspace. Both grow to the largest instance
// seen and are reused request to request; neither retains the previous
// request's instance or context between runs. Not goroutine-safe — one
// Workspaces per worker.
type Workspaces struct {
	Relax *relax.Workspace
	Exact *exact.Workspace
}

// NewWorkspaces returns warmed-up-able empty workspaces.
func NewWorkspaces() *Workspaces {
	return &Workspaces{Relax: relax.NewWorkspace(), Exact: exact.NewWorkspace()}
}

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
		t, _, err := relax.MinFeasibleT(ctx, in, ws.Relax)
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
		solve := approx.TwoApprox
		if req.Algo == AlgoBest {
			solve = approx.Best
		}
		res, err := solve(ctx, in, ws.Relax)
		if err != nil {
			return nil, err
		}
		if err := validate(res.Instance, res.Assignment, res.Schedule); err != nil {
			return nil, err
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
		res, err := rt.Test(ctx, in, req.Frame, rt.Options{ExactNodes: req.MaxNodes})
		if err != nil {
			return nil, err
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
		res, err := memcap.SolveModel1(ctx, m1)
		if err != nil {
			return nil, err
		}
		fillMemory(out, res)
		return out, nil

	case AlgoMemory2:
		if req.Memory == nil {
			return nil, badRequestf("algo %q requires a memory spec", AlgoMemory2)
		}
		m2 := &memcap.Model2{In: in, JobSize: req.Memory.JobSize, Mu: req.Memory.Mu}
		res, err := memcap.SolveModel2(ctx, m2)
		if err != nil {
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

// Do decodes the request's embedded instance, runs it, and serializes
// the outcome — the daemon's per-request unit of work.
func Do(ctx context.Context, req *Request, ws *Workspaces) (*Response, error) {
	if len(req.Instance) == 0 {
		return nil, badRequestf("request carries no instance")
	}
	var out *Outcome
	if desc, ok := scenario.Lookup(req.Algo); ok {
		// Scenario algos ("dag", "rigid"): Instance carries that
		// scenario's document, decoded and compiled by its descriptor.
		wl, err := desc.Decode(req.Instance)
		if err != nil {
			return nil, errBadRequest{err}
		}
		out, err = RunScenario(ctx, wl, req, ws)
		if err != nil {
			return nil, err
		}
	} else {
		in, err := model.Decode(bytes.NewReader(req.Instance))
		if err != nil {
			return nil, errBadRequest{err}
		}
		out, err = Run(ctx, in, req, ws)
		if err != nil {
			return nil, err
		}
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
	if req.WantSchedule && out.Schedule != nil {
		var buf bytes.Buffer
		if err := sched.EncodeJSON(&buf, out.Schedule); err != nil {
			return nil, fmt.Errorf("encoding schedule: %w", err)
		}
		resp.Schedule = buf.Bytes()
	}
	return resp, nil
}
