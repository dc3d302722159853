package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"hsp/internal/approx"
	"hsp/internal/model"
	"hsp/internal/rt"
	"hsp/internal/workload"
)

// rtDoc generates a task set and returns its wire encoding plus the
// admission sweep a client would ask about it: frames T*−1, T*, the
// bracket's midpoint and the 2-approximation's makespan A.
func rtDoc(t *testing.T, cfg workload.Config) (json.RawMessage, []int64) {
	t.Helper()
	in, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	ar, err := approx.TwoApprox(context.Background(), in, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts, a := ar.LPBound, ar.Makespan
	return buf.Bytes(), []int64{ts - 1, ts, (ts + a) / 2, a}
}

// rtBatch builds one rt request per frame, schedules included.
func rtBatch(doc json.RawMessage, frames []int64) []*Request {
	reqs := make([]*Request, len(frames))
	for i, f := range frames {
		reqs[i] = &Request{Algo: AlgoRT, Instance: doc, Frame: f, WantSchedule: true}
	}
	return reqs
}

// answerJSON submits reqs as one task and returns each answer's JSON.
func answerJSON(t *testing.T, s *Server, reqs []*Request) [][]byte {
	t.Helper()
	res, err := s.Submit(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(res))
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		out[i] = r.Body
	}
	return out
}

// TestRTSweepMatchesFreshSolves interleaves admission sweeps on two task
// sets — X, then Y at the same frames, then X again — on one worker, so
// every sweep after the first starts from another task set's workspace.
// Each answer must be byte-identical to a single /v1/solve of that frame
// on a fresh server, and no task may leave its memo behind.
func TestRTSweepMatchesFreshSolves(t *testing.T) {
	x, frames := rtDoc(t, workload.Config{
		Topology: workload.SemiPartitioned, Machines: 6, Jobs: 14, Seed: 5,
		MinWork: 2, MaxWork: 30, OverheadPerLevel: 0.25,
	})
	y, _ := rtDoc(t, workload.Config{
		Topology: workload.Clustered, Clusters: 2, ClusterSize: 3, Jobs: 14, Seed: 6,
		MinWork: 2, MaxWork: 30, OverheadPerLevel: 0.25,
	})
	fresh := func(doc json.RawMessage) [][]byte {
		var out [][]byte
		for _, req := range rtBatch(doc, frames) {
			s := New(Config{Workers: 1})
			out = append(out, answerJSON(t, s, []*Request{req})...)
			s.Close()
		}
		return out
	}
	want := map[string][][]byte{"X": fresh(x), "Y": fresh(y)}

	s := New(Config{Workers: 1})
	defer s.Close()
	var last *Workspaces
	s.run = func(ctx context.Context, req *decoded, ws *Workspaces) (*Response, error) {
		last = ws
		return respond(ctx, req, ws)
	}
	docs := map[string]json.RawMessage{"X": x, "Y": y}
	// The last task alternates X and Y inside one batch, so the memo's
	// key is what tells them apart.
	for _, task := range []string{"XXXX", "YYYY", "XXXX", "XYXY"} {
		var reqs []*Request
		for i, name := range task {
			reqs = append(reqs, rtBatch(docs[string(name)], frames[i:i+1])...)
		}
		got := answerJSON(t, s, reqs)
		for i, name := range task {
			if w := want[string(name)][i]; !bytes.Equal(got[i], w) {
				t.Fatalf("task %s, %c at frame %d:\n got %s\nwant %s", task, name, frames[i], got[i], w)
			}
		}
		if last.rtTester != nil || last.rtDoc != nil {
			t.Fatalf("task %s: the rt memo outlived its task", task)
		}
	}
}

// TestRTSweepProbesOnce: a four-frame sweep costs the LP probes of one
// rt request at the 2-approximation's frame — T* once and the
// 2-approximation once — each on a fresh server.
func TestRTSweepProbesOnce(t *testing.T) {
	doc, frames := rtDoc(t, workload.Config{
		Topology: workload.SemiPartitioned, Machines: 8, Jobs: 18, Seed: 9,
		MinWork: 2, MaxWork: 30, OverheadPerLevel: 0.25,
	})
	probes := func(reqs []*Request) uint64 {
		s := New(Config{Workers: 1})
		defer s.Close()
		answerJSON(t, s, reqs)
		return s.Stats().LPProbes
	}
	sweep := probes(rtBatch(doc, frames))
	single := probes(rtBatch(doc, frames[len(frames)-1:]))
	if single == 0 || sweep != single {
		t.Fatalf("sweep spent %d LP probes, one request at A %d", sweep, single)
	}
}

// TestRTAnswersCertified: a schedulable rt answer leaves only if its
// schedule validates and its makespan fits the frame.
func TestRTAnswersCertified(t *testing.T) {
	doc, frames := rtDoc(t, workload.Config{
		Topology: workload.SemiPartitioned, Machines: 4, Jobs: 10, Seed: 3,
		MinWork: 2, MaxWork: 30,
	})
	in, err := model.Decode(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	orig := testRT
	t.Cleanup(func() { testRT = orig })
	for _, c := range []struct {
		name  string
		bend  func(r *rt.Result)
		error string
	}{
		{"oversized makespan", func(r *rt.Result) { r.Makespan = r.Frame + 1 }, "exceeds frame"},
		{"invalid schedule", func(r *rt.Result) {
			s := *r.Schedule
			s.Intervals = s.Intervals[1:]
			r.Schedule = &s
		}, "failed validation"},
	} {
		testRT = func(ts *rt.Tester, ctx context.Context, frame int64, opts rt.Options) (*rt.Result, error) {
			r, err := orig(ts, ctx, frame, opts)
			if err == nil && r.Verdict == rt.Schedulable {
				c.bend(r)
			}
			return r, err
		}
		req := &Request{Algo: AlgoRT, Instance: doc, Frame: frames[len(frames)-1]}
		if _, err := Run(context.Background(), in, req, nil); err == nil || !strings.Contains(err.Error(), c.error) {
			t.Fatalf("%s: answered with err=%v, want %q", c.name, err, c.error)
		}
		// An unschedulable verdict carries no schedule and passes.
		req.Frame = frames[0]
		if out, err := Run(context.Background(), in, req, nil); err != nil || out.Verdict != rt.Unschedulable {
			t.Fatalf("%s: frame below T*: %v, %v", c.name, out, err)
		}
	}
}
