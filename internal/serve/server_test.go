package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"hsp/internal/model"
)

// hammerRequests builds the mixed traffic for the concurrency tests:
// every algorithm the daemon serves, on Example II.1, each request valid.
func hammerRequests(t *testing.T) []*Request {
	t.Helper()
	inst := instanceJSON(t)
	in := model.ExampleII1()
	budget := make([]int64, in.M())
	size := make([][]int64, in.N())
	jobSize := make([]float64, in.N())
	for i := range budget {
		budget[i] = 1 << 30
	}
	for j := range size {
		size[j] = make([]int64, in.M())
		for i := range size[j] {
			size[j][i] = 1
		}
		jobSize[j] = 0.5
	}
	return []*Request{
		{Algo: Algo2Approx, Instance: inst},
		{Algo: AlgoBest, Instance: inst, WantSchedule: true},
		{Algo: AlgoLP, Instance: inst},
		{Algo: AlgoExact, Instance: inst},
		{Algo: AlgoRT, Instance: inst, Frame: 2, MaxNodes: 1 << 16},
		{Algo: AlgoMemory1, Instance: inst, Memory: &MemorySpec{Budget: budget, Size: size}},
		{Algo: AlgoMemory2, Instance: inst, Memory: &MemorySpec{JobSize: jobSize, Mu: 4}},
	}
}

// TestServerHammer drives mixed solve/exact/memory traffic from many
// goroutines through the shared pool — the -race exercise for the
// workspace-per-worker invariant (workspaces are reused across requests
// but never shared across goroutines).
func TestServerHammer(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 256})
	defer s.Close()
	reqs := hammerRequests(t)

	const goroutines, iters = 8, 20
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				req := reqs[(g+k)%len(reqs)]
				results, err := s.Submit(context.Background(), []*Request{req})
				if err != nil {
					errc <- fmt.Errorf("%s: submit: %w", req.Algo, err)
					return
				}
				if err := checkResult(req, results[0]); err != nil {
					errc <- err
					return
				}
			}
			// One batch per goroutine exercises the batching path too.
			results, err := s.Submit(context.Background(), reqs[:3])
			if err != nil {
				errc <- fmt.Errorf("batch submit: %w", err)
				return
			}
			for i, res := range results {
				if err := checkResult(reqs[i], res); err != nil {
					errc <- fmt.Errorf("batch item %d: %w", i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	st := s.Stats()
	want := uint64(goroutines*iters + goroutines*3)
	if st.Accepted != want {
		t.Errorf("accepted = %d, want %d", st.Accepted, want)
	}
	if st.Completed != want || st.Failed != 0 || st.Canceled != 0 {
		t.Errorf("counters completed=%d failed=%d canceled=%d, want %d/0/0",
			st.Completed, st.Failed, st.Canceled, want)
	}
}

// checkResult asserts one hammer answer is well-formed for its algorithm.
func checkResult(req *Request, res Result) error {
	if res.Err != nil {
		return fmt.Errorf("%s: %w", req.Algo, res.Err)
	}
	var resp Response
	if err := json.Unmarshal(res.Body, &resp); err != nil {
		return fmt.Errorf("%s: decoding the answer: %w", req.Algo, err)
	}
	switch req.Algo {
	case Algo2Approx, AlgoBest:
		if resp.Makespan <= 0 || resp.Makespan > 2*resp.LPBound {
			return fmt.Errorf("%s: makespan=%d T*=%d violates the guarantee", req.Algo, resp.Makespan, resp.LPBound)
		}
	case AlgoLP:
		if resp.LPBound < 1 {
			return fmt.Errorf("lp: T*=%d", resp.LPBound)
		}
	case AlgoExact:
		// Example II.1's optimum is 2 (its defining property).
		if !resp.Optimal || resp.Makespan != 2 {
			return fmt.Errorf("exact: optimal=%v makespan=%d, want true/2", resp.Optimal, resp.Makespan)
		}
	case AlgoRT:
		if resp.Verdict != "schedulable" {
			return fmt.Errorf("rt: verdict %q at frame 2, want schedulable", resp.Verdict)
		}
	case AlgoMemory1, AlgoMemory2:
		if resp.Makespan <= 0 || len(resp.Assignment) == 0 {
			return fmt.Errorf("%s: makespan=%d assignment=%v", req.Algo, resp.Makespan, resp.Assignment)
		}
	}
	if req.WantSchedule && len(resp.Schedule) == 0 {
		return fmt.Errorf("%s: want_schedule set but schedule missing", req.Algo)
	}
	return nil
}

func TestSubmitValidation(t *testing.T) {
	s := New(Config{Workers: 1, MaxBatch: 2})
	defer s.Close()
	if _, err := s.Submit(context.Background(), nil); !IsBadRequest(err) {
		t.Errorf("empty batch: %v, want bad request", err)
	}
	three := []*Request{{Algo: AlgoLP}, {Algo: AlgoLP}, {Algo: AlgoLP}}
	if _, err := s.Submit(context.Background(), three); !IsBadRequest(err) {
		t.Errorf("oversized batch: %v, want bad request", err)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Close()
	s.Close() // idempotent
	if _, err := s.Submit(context.Background(), []*Request{{Algo: AlgoLP}}); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit after close: %v, want ErrStopped", err)
	}
}

// TestAbandonedInQueue: a task whose client vanished while queued is
// answered without solver work and counted as canceled.
func TestAbandonedInQueue(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := s.Submit(ctx, []*Request{{Algo: Algo2Approx, Instance: instanceJSON(t)}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Fatalf("abandoned request returned %v, want context.Canceled", results[0].Err)
	}
	if got := s.Stats().Canceled; got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}
}
