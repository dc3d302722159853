package main

import (
	"encoding/json"
	"fmt"

	"hsp/internal/serve"
)

// tol absorbs float rounding in the bicriteria factors the daemon
// reports.
const tol = 1e-6

// checkBody decodes one 200 answer for the item and checks every
// response in it against the item's paper certificate. It returns the
// decoded responses so the caller can fold them into its figures.
func checkBody(it *item, body []byte) ([]serve.Response, error) {
	var resps []serve.Response
	if it.path == "/v1/batch" {
		if err := json.Unmarshal(body, &resps); err != nil {
			return nil, fmt.Errorf("undecodable batch answer: %w", err)
		}
		if len(resps) != len(it.reqs) {
			return nil, fmt.Errorf("batch answered %d of %d", len(resps), len(it.reqs))
		}
	} else {
		resps = make([]serve.Response, 1)
		if err := json.Unmarshal(body, &resps[0]); err != nil {
			return nil, fmt.Errorf("undecodable answer: %w", err)
		}
	}
	for i := range resps {
		if err := checkResponse(it, it.reqs[i], &resps[i]); err != nil {
			return nil, fmt.Errorf("%s/%s/%s: %w", it.kind, it.size, it.topo, err)
		}
	}
	return resps, nil
}

// checkResponse checks one answer against its certificate:
//
//   - lp: T* equals the client's own reference T*;
//   - 2approx, best: T* ≤ makespan ≤ 2·T* (Theorem V.2);
//   - exact: optimal, T* ≤ makespan ≤ the 2-approximation's makespan;
//   - rt: a frame below T* is unschedulable, a frame at or above the
//     2-approximation's makespan is schedulable, and a schedulable
//     verdict's makespan fits the frame;
//   - memory1: fallback-free answers are within 3T and 3B (Theorem VI.1);
//   - memory2: fallback-free answers are within σ on both (Theorem VI.3);
//   - dag: makespan ≤ 2·scenario_lb (the scenario compile certificate).
func checkResponse(it *item, req *serve.Request, r *serve.Response) error {
	if r.Error != "" {
		return fmt.Errorf("error answer: %s", r.Error)
	}
	if r.Algo != req.Algo {
		return fmt.Errorf("answered algo %q, asked %q", r.Algo, req.Algo)
	}
	ref := it.cert
	switch req.Algo {
	case serve.AlgoLP:
		if r.LPBound != ref.tStar {
			return fmt.Errorf("T* = %d, reference %d", r.LPBound, ref.tStar)
		}
	case serve.Algo2Approx, serve.AlgoBest:
		if r.LPBound != ref.tStar {
			return fmt.Errorf("T* = %d, reference %d", r.LPBound, ref.tStar)
		}
		if r.Makespan < r.LPBound || r.Makespan > 2*r.LPBound {
			return fmt.Errorf("makespan %d outside [T*, 2T*] = [%d, %d]", r.Makespan, r.LPBound, 2*r.LPBound)
		}
	case serve.AlgoExact:
		if !r.Optimal {
			return fmt.Errorf("exact answer not marked optimal")
		}
		if r.Makespan < ref.tStar || r.Makespan > ref.approx {
			return fmt.Errorf("optimum %d outside [T*, 2approx] = [%d, %d]", r.Makespan, ref.tStar, ref.approx)
		}
	case serve.AlgoRT:
		switch {
		case req.Frame < ref.tStar && r.Verdict != "unschedulable":
			return fmt.Errorf("frame %d < T* %d answered %q", req.Frame, ref.tStar, r.Verdict)
		case req.Frame >= ref.approx && r.Verdict != "schedulable":
			return fmt.Errorf("frame %d ≥ 2approx %d answered %q", req.Frame, ref.approx, r.Verdict)
		case r.Verdict == "schedulable" && (r.Makespan <= 0 || r.Makespan > req.Frame):
			return fmt.Errorf("schedulable at frame %d with makespan %d", req.Frame, r.Makespan)
		case r.Verdict != "schedulable" && r.Verdict != "unschedulable" && r.Verdict != "unknown":
			return fmt.Errorf("verdict %q", r.Verdict)
		}
	case serve.AlgoMemory1:
		if err := checkBicriteria(r, 3); err != nil {
			return fmt.Errorf("Theorem VI.1: %w", err)
		}
	case serve.AlgoMemory2:
		if err := checkBicriteria(r, ref.sigma); err != nil {
			return fmt.Errorf("Theorem VI.3: %w", err)
		}
	case serve.AlgoDAG:
		if r.Scenario != serve.AlgoDAG || r.ScenarioLB <= 0 || r.Segments <= 0 {
			return fmt.Errorf("scenario metadata missing: scenario=%q lb=%d segments=%d", r.Scenario, r.ScenarioLB, r.Segments)
		}
		if r.Makespan <= 0 || r.Makespan > 2*r.ScenarioLB {
			return fmt.Errorf("makespan %d > 2·scenario_lb %d", r.Makespan, 2*r.ScenarioLB)
		}
	default:
		return fmt.Errorf("no certificate for algo %q", req.Algo)
	}
	return nil
}

// checkBicriteria checks a memory-model answer: a positive makespan no
// smaller than its relaxation bound and, without rounding fallbacks,
// load and memory factors within factor.
func checkBicriteria(r *serve.Response, factor float64) error {
	if r.LPBound <= 0 || r.Makespan < r.LPBound {
		return fmt.Errorf("makespan %d below its relaxation bound %d", r.Makespan, r.LPBound)
	}
	if r.Fallbacks > 0 {
		return nil // the theorem covers fallback-free roundings only
	}
	// The load factor is recomputed from the two integers rather than
	// taken from the answer's own load_factor field.
	load := float64(r.Makespan) / float64(r.LPBound)
	if load > factor+tol || r.MemFactor > factor+tol {
		return fmt.Errorf("load factor %.4f, memory factor %.4f exceed %.4f", load, r.MemFactor, factor)
	}
	return nil
}
