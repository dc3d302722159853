package expt

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

// Runner executes registered experiments — any subset, sequentially or on
// a bounded worker pool — and produces one Result per experiment. Each
// experiment runs with a seed derived deterministically from the base
// seed and its ID, so results are independent of worker count and
// completion order: parallel and sequential runs of the same seed are
// identical. A panicking experiment is isolated (StatusError) and the
// rest of the suite continues.
//
// Cancellation is cooperative and fully observed: every experiment runs
// inline on its worker goroutine under a context, the solver hot loops
// (LP simplex pivots, the branch-and-bound DFS) poll that context, and
// the runner waits for the experiment to return — no goroutine is ever
// abandoned. A per-experiment Timeout cancels the experiment's own
// context (StatusTimeout); canceling the context passed to Run stops
// in-flight experiments and marks them and everything not yet started
// StatusCanceled.
type Runner struct {
	Suite Suite
	// Workers bounds the pool; 0 means GOMAXPROCS, 1 forces sequential.
	Workers int
	// Timeout is the per-experiment deadline; 0 disables it. The deadline
	// cancels the experiment's context; the experiment returns as soon as
	// it next polls the context (one simplex pivot or a few thousand DFS
	// nodes) and the result is recorded as StatusTimeout.
	Timeout time.Duration
	// Sink, when non-nil, receives each Result the moment its experiment
	// finishes, in completion order. Calls are serialized (never
	// concurrent), so the sink may write to a shared stream without
	// locking. The results slice Run returns is unaffected and stays in
	// suite order.
	Sink func(Result)
}

// DeriveSeed maps (base seed, experiment ID) to the seed that experiment
// runs with: FNV-1a over the ID, mixed with the base via a splitmix64
// finalizer. Stable across runs, processes and worker schedules.
func DeriveSeed(base int64, id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	z := uint64(base) ^ h.Sum64()
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Run executes the experiments with the given ids (nil or empty = every
// registered experiment, in suite order) under ctx and returns results in
// the same order regardless of completion order. The only error is an
// unknown id — experiment failures, panics, timeouts and cancellations
// are reported in the results, and a canceled ctx still yields one Result
// per requested experiment.
func (r Runner) Run(ctx context.Context, ids []string) ([]Result, error) {
	var exps []Experiment
	if len(ids) == 0 {
		exps = Experiments()
	} else {
		exps = make([]Experiment, len(ids))
		for i, id := range ids {
			e, ok := Lookup(id)
			if !ok {
				return nil, fmt.Errorf("expt: unknown experiment %q", id)
			}
			exps[i] = e
		}
	}
	var sinkMu sync.Mutex
	results := make([]Result, len(exps))
	forEachBounded(len(exps), r.Workers, func(k int) {
		res := r.runOne(ctx, exps[k])
		results[k] = res
		if r.Sink != nil {
			sinkMu.Lock()
			r.Sink(res)
			sinkMu.Unlock()
		}
	})
	return results, nil
}

// outcome is the raw return of one isolated experiment execution.
type outcome struct {
	table *Table
	panic any
}

// runIsolated executes e.Run under panic isolation.
func runIsolated(ctx context.Context, e Experiment, s Suite) (out outcome) {
	defer func() {
		if p := recover(); p != nil {
			out = outcome{panic: p}
		}
	}()
	return outcome{table: e.Run(s, ctx)}
}

func (r Runner) runOne(ctx context.Context, e Experiment) Result {
	res := Result{
		ID:    e.ID,
		Title: e.Title,
		Claim: e.Claim,
		Seed:  DeriveSeed(r.Suite.Seed, e.ID),
	}
	if err := ctx.Err(); err != nil {
		// The suite was canceled before this experiment started: record
		// it without running anything.
		res.Status = StatusCanceled
		res.Error = "canceled before start: " + err.Error()
		return res
	}
	s := r.Suite
	s.Seed = res.Seed

	runCtx := ctx
	cancel := func() {}
	if r.Timeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, r.Timeout)
	}
	defer cancel()

	start := time.Now()
	// Inline, on this worker goroutine: because the experiment polls
	// runCtx, a deadline or cancellation makes the experiment itself
	// return, rather than abandoning it in the background.
	out := runIsolated(runCtx, e, s)
	res.duration = time.Since(start)

	switch {
	case ctx.Err() != nil:
		// Suite-level cancellation beats every other classification: the
		// table (if any) is partial and its checks are meaningless.
		res.Status = StatusCanceled
		res.Error = "canceled after " + res.duration.Round(time.Millisecond).String()
	case runCtx.Err() != nil:
		// Only the per-experiment deadline can cancel runCtx without ctx.
		res.Status = StatusTimeout
		res.Error = fmt.Sprintf("exceeded %v deadline", r.Timeout)
	case out.panic != nil:
		res.Status = StatusError
		res.Error = fmt.Sprintf("panic: %v", out.panic)
	case out.table == nil:
		res.Status = StatusError
		res.Error = "experiment returned no table"
	default:
		t := out.table
		res.Rows = len(t.Rows)
		res.Checks = t.Checks
		res.Table = &TableJSON{Columns: t.Columns, Rows: t.Rows, Notes: t.Notes}
		if t.Failed() {
			res.Status = StatusFail
		} else {
			res.Status = StatusPass
		}
	}
	return res
}
