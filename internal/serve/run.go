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

// Outcome is the typed result of one query: the wire Response it is
// served as, plus what the certificate and cmd/hsched read beside it.
// Instance is the instance Assignment and Schedule refer to — the input
// itself for "exact"/"lp", the singleton-extended copy for the
// approximation pipelines. Schedule shadows the Response's encoded
// schedule, which respond fills only for a request that asks for it.
type Outcome struct {
	Response
	Instance *model.Instance
	Schedule *sched.Schedule

	// The certificate's inputs that the wire answer does not carry.
	solver   string  // the algo that solved Instance: Algo, or "best" under a scenario
	memBound float64 // memory1/memory2: Theorem VI.1's 3 or Theorem VI.3's σ
	factor   float64 // scenario answers: the compile's certified Factor
}

// Run dispatches one typed query on a decoded instance and certifies
// the answer. This is the single spelling of "solve a request" shared
// by the CLI and the daemon; every solver call is the canonical (ctx,
// ..., ws) form, so deadlines cancel mid-pivot/mid-DFS and a
// caller-held Workspaces (nil allocates private ones) is reused across
// requests.
func Run(ctx context.Context, in *model.Instance, req *Request, ws *Workspaces) (*Outcome, error) {
	out, err := solve(ctx, in, req, ws)
	if err != nil {
		return nil, err
	}
	if err := out.certify(); err != nil {
		return nil, err
	}
	return out, nil
}

// solve is Run's first half: it dispatches the query to its solver and
// fills an Outcome. It checks nothing the certificate checks.
func solve(ctx context.Context, in *model.Instance, req *Request, ws *Workspaces) (*Outcome, error) {
	if ws == nil {
		ws = NewWorkspaces()
	}
	out := &Outcome{Response: Response{Algo: req.Algo}, Instance: in, solver: req.Algo}
	switch req.Algo {
	case AlgoLP:
		t, err := relax.MinFeasibleT(ctx, in, ws.Relax)
		if err != nil {
			return nil, err
		}
		out.LPBound = t

	case AlgoExact:
		a, opt, err := exact.Solve(ctx, in, exact.Options{MaxNodes: req.MaxNodes}, ws.Exact)
		if err != nil {
			return nil, err
		}
		s, err := hier.Schedule(in, a, opt)
		if err != nil {
			return nil, fmt.Errorf("scheduling: %w", err)
		}
		out.Assignment, out.Schedule, out.Makespan, out.Optimal = a, s, opt, true
		out.LPBound = opt // the optimum is its own tight bound

	case Algo2Approx, AlgoBest:
		pipeline := approx.TwoApprox
		if req.Algo == AlgoBest {
			pipeline = approx.Best
		}
		res, err := pipeline(ctx, in, ws.Relax)
		if err != nil {
			return nil, err
		}
		out.Instance, out.Assignment, out.Schedule = res.Instance, res.Assignment, res.Schedule
		out.LPBound, out.Makespan = res.LPBound, res.Makespan

	case AlgoRT:
		if req.Frame <= 0 {
			return nil, badRequestf("algo %q requires a positive frame, got %d", AlgoRT, req.Frame)
		}
		t, err := ws.tester(in, req.Instance)
		if err != nil {
			return nil, err
		}
		res, err := t.Test(ctx, req.Frame, rt.Options{ExactNodes: req.MaxNodes})
		if err != nil {
			return nil, err
		}
		out.Instance, out.Assignment, out.Schedule = res.Instance, res.Assignment, res.Schedule
		out.LPBound, out.Makespan = res.LPBound, res.Makespan
		out.Verdict, out.Frame = res.Verdict.String(), res.Frame

	case AlgoMemory1, AlgoMemory2:
		if req.Memory == nil {
			return nil, badRequestf("algo %q requires a memory spec", req.Algo)
		}
		var res *memcap.Result
		var err error
		if req.Algo == AlgoMemory1 {
			m1 := &memcap.Model1{In: in, Budget: req.Memory.Budget, Size: req.Memory.Size}
			res, err = memcap.SolveModel1(ctx, m1, ws.Relax)
			out.memBound = 3
		} else {
			m2 := &memcap.Model2{In: in, JobSize: req.Memory.JobSize, Mu: req.Memory.Mu}
			res, err = memcap.SolveModel2(ctx, m2, ws.Relax)
			out.memBound = m2.Sigma()
		}
		if err != nil {
			return nil, err
		}
		out.Instance, out.Assignment, out.Schedule = res.Instance, res.Assignment, res.Schedule
		out.LPBound, out.Makespan = res.TLP, res.Makespan
		out.MemFactor, out.LoadFactor, out.Fallbacks = res.MemFactor, res.LoadFactor, res.Fallbacks

	default:
		return nil, badRequestf("unknown -algo %q", req.Algo)
	}
	return out, nil
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
	out, err := solve(ctx, c.Instance, &inner, ws)
	if err != nil {
		return nil, err
	}
	out.Algo, out.Scenario, out.ScenarioLB = req.Algo, wl.Scenario(), c.LowerBound
	out.Segments, out.MaxLive, out.factor = c.Segments, c.MaxLive, c.Factor
	if err := out.certify(); err != nil {
		return nil, err
	}
	return out, nil
}

// certify is the one certificate step every answer passes before it
// leaves (the package doc's Certificates section lists what each algo
// gets). It reads the Outcome alone: the answer as the client would
// see it, plus the bounds the solve half recorded beside it.
func (o *Outcome) certify() error {
	if s := o.Schedule; s != nil {
		if err := validate(o.Instance, o.Assignment, s); err != nil {
			return err
		}
		if end := s.Makespan(); end > o.Makespan {
			return fmt.Errorf("schedule ends at %d, after the reported makespan %d", end, o.Makespan)
		}
	}
	switch o.solver {
	case Algo2Approx, AlgoBest:
		if o.LPBound <= 0 || o.Makespan > 2*o.LPBound {
			return fmt.Errorf("approx: Theorem V.2 violated: makespan %d, T*=%d (want T* > 0 and makespan ≤ 2·T*)", o.Makespan, o.LPBound)
		}

	case AlgoRT:
		// One memoized schedule answers many frames, so every
		// schedulable answer is checked against its own frame.
		if o.Verdict == rt.Schedulable.String() && o.Makespan > o.Frame {
			return fmt.Errorf("rt: schedulable verdict with makespan %d exceeds frame %d", o.Makespan, o.Frame)
		}

	case AlgoMemory1, AlgoMemory2:
		if o.LPBound <= 0 || o.Makespan < o.LPBound {
			return fmt.Errorf("memcap: makespan %d below its relaxation bound %d", o.Makespan, o.LPBound)
		}
		theorem := "Theorem VI.1"
		if o.solver == AlgoMemory2 {
			theorem = "Theorem VI.3"
		}
		// The theorems bound fallback-free roundings only.
		const tol = 1e-6 // the experiments' factor-check tolerance
		if o.Fallbacks == 0 && (o.LoadFactor > o.memBound+tol || o.MemFactor > o.memBound+tol) {
			return fmt.Errorf("memcap: %s violated: load factor %g, memory factor %g exceed %g",
				theorem, o.LoadFactor, o.MemFactor, o.memBound)
		}
	}
	if o.Scenario != "" {
		c := scenario.Compiled{LowerBound: o.ScenarioLB, Factor: o.factor}
		if err := c.CheckMakespan(o.Makespan); err != nil {
			return fmt.Errorf("scenario %q: %w", o.Scenario, err)
		}
	}
	return nil
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
	resp := out.Response
	if d.WantSchedule && out.Schedule != nil {
		var buf bytes.Buffer
		if err := sched.EncodeJSON(&buf, out.Schedule); err != nil {
			return nil, fmt.Errorf("encoding schedule: %w", err)
		}
		resp.Schedule = buf.Bytes()
	}
	return &resp, nil
}
