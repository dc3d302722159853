package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hsp/internal/model"
	"hsp/internal/relax"
	"hsp/internal/workload"
)

// instanceJSON returns Example II.1 in the wire format requests embed.
func instanceJSON(t testing.TB) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := model.Encode(&buf, model.ExampleII1()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newTestServer starts a Server plus its httptest front end, both torn
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post sends one JSON body and returns the status and decoded answer.
func post(t *testing.T, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

func TestHandlerSolveHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body, _ := json.Marshal(&Request{
		Algo:         Algo2Approx,
		Instance:     instanceJSON(t),
		WantSchedule: true,
	})
	status, b, _ := post(t, ts.URL+"/v1/solve", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, b)
	}
	var resp Response
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" {
		t.Fatalf("unexpected error: %s", resp.Error)
	}
	if resp.Makespan <= 0 || resp.LPBound <= 0 || resp.Makespan > 2*resp.LPBound {
		t.Fatalf("2-approx guarantee violated: makespan=%d T*=%d", resp.Makespan, resp.LPBound)
	}
	if len(resp.Assignment) == 0 {
		t.Fatal("no assignment in response")
	}
	if len(resp.Schedule) == 0 {
		t.Fatal("want_schedule set but no schedule in response")
	}
}

func TestHandlerRejectsMalformedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	status, b, _ := post(t, ts.URL+"/v1/solve", []byte("{not json"))
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", status, b)
	}
	if !strings.Contains(string(b), "malformed request") {
		t.Fatalf("missing decode error: %s", b)
	}
}

func TestHandlerRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		req  *Request
	}{
		{"unknown algo", &Request{Algo: "wat", Instance: instanceJSON(t)}},
		{"no instance", &Request{Algo: Algo2Approx}},
		{"rt without frame", &Request{Algo: AlgoRT, Instance: instanceJSON(t)}},
		{"memory1 without spec", &Request{Algo: AlgoMemory1, Instance: instanceJSON(t)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, _ := json.Marshal(tc.req)
			status, b, _ := post(t, ts.URL+"/v1/solve", body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", status, b)
			}
		})
	}
}

// TestHandlerDeadlineAnswers504 pins the deadline path end to end: a
// request whose per-request deadline expires answers 504 and counts as
// canceled. The run seam stands in for a slow solve so the occupancy is
// deterministic; TestDoObservesExpiredDeadline proves the real solvers
// notice the same context.
func TestHandlerDeadlineAnswers504(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.run = func(ctx context.Context, req *decoded, ws *Workspaces) (*Response, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	body, _ := json.Marshal(&Request{Algo: Algo2Approx, Instance: instanceJSON(t), TimeoutMS: 20})
	status, b, _ := post(t, ts.URL+"/v1/solve", body)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", status, b)
	}
	if got := s.Stats().Canceled; got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}
}

// TestDoObservesExpiredDeadline proves cancellation reaches the actual
// solver stack: an already-expired deadline aborts the LP pipeline (and
// the exact search) with context.DeadlineExceeded, not a wrong answer.
func TestDoObservesExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, algo := range []string{Algo2Approx, AlgoBest, AlgoLP, AlgoExact} {
		if _, err := Do(ctx, &Request{Algo: algo, Instance: instanceJSON(t)}, NewWorkspaces()); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s under expired deadline returned %v, want context.DeadlineExceeded", algo, err)
		}
	}
}

// TestHandlerShedsWhenQueueFull fills the one-worker, one-slot queue and
// checks the next request is shed deterministically: 429, Retry-After,
// and the shed counter — no waiting, no partial work.
func TestHandlerShedsWhenQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	started := make(chan struct{})
	release := make(chan struct{})
	s.run = func(ctx context.Context, req *decoded, ws *Workspaces) (*Response, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return &Response{Algo: req.Algo}, nil
	}
	defer close(release)

	body, _ := json.Marshal(&Request{Algo: Algo2Approx, Instance: instanceJSON(t)})
	// Occupy the worker, then fill the single queue slot.
	inst := instanceJSON(t)
	go s.Submit(context.Background(), []*Request{{Algo: Algo2Approx, Instance: inst}})
	<-started
	go s.Submit(context.Background(), []*Request{{Algo: Algo2Approx, Instance: inst}})
	waitQueued(t, s, 1)

	status, b, hdr := post(t, ts.URL+"/v1/solve", body)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", status, b)
	}
	if got := hdr.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", got)
	}
	if got := s.Stats().Shed; got == 0 {
		t.Fatal("shed counter not incremented")
	}
}

// waitQueued waits until n tasks sit in the admission queue.
func waitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Queued < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d tasks", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHandlerBatch: one task, per-item answers; a bad item fails alone.
func TestHandlerBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body, _ := json.Marshal([]*Request{
		{Algo: AlgoLP, Instance: instanceJSON(t)},
		{Algo: "wat", Instance: instanceJSON(t)},
	})
	status, b, _ := post(t, ts.URL+"/v1/batch", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, b)
	}
	var resps []Response
	if err := json.Unmarshal(b, &resps); err != nil {
		t.Fatal(err)
	}
	if len(resps) != 2 {
		t.Fatalf("batch answered %d items, want 2", len(resps))
	}
	if resps[0].Error != "" || resps[0].LPBound < 1 {
		t.Fatalf("lp item: %+v", resps[0])
	}
	if resps[1].Error == "" {
		t.Fatal("bad item reported no error")
	}
}

// TestHandlerBatchRejectsNullElements: a JSON null in a batch decodes to
// a nil *Request; it must answer 400 at admission, never reach a worker,
// and never take the daemon down.
func TestHandlerBatchRejectsNullElements(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{`[null]`, `[{},null]`} {
		status, b, _ := post(t, ts.URL+"/v1/batch", []byte(body))
		if status != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400: %s", body, status, b)
		}
		if !strings.Contains(string(b), "null") {
			t.Fatalf("body %s: missing null-element error: %s", body, b)
		}
	}
	// The daemon survived: a well-formed request still gets served.
	body, _ := json.Marshal(&Request{Algo: AlgoLP, Instance: instanceJSON(t)})
	status, b, _ := post(t, ts.URL+"/v1/solve", body)
	if status != http.StatusOK {
		t.Fatalf("post-null solve: status %d: %s", status, b)
	}
}

// TestHandlerRecoversSolverPanic: a panicking solve becomes that one
// request's 422; the worker pool keeps serving afterwards with fresh
// workspaces.
func TestHandlerRecoversSolverPanic(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	realRun := s.run
	s.run = func(ctx context.Context, req *decoded, ws *Workspaces) (*Response, error) {
		if req.Algo == "boom" {
			panic("index out of range on a pathological instance")
		}
		return realRun(ctx, req, ws)
	}
	var logged bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logged)
	body, _ := json.Marshal(&Request{Algo: "boom", Instance: instanceJSON(t)})
	status, b, _ := post(t, ts.URL+"/v1/solve", body)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", status, b)
	}
	if !strings.Contains(string(b), "solver panic") {
		t.Fatalf("missing panic error: %s", b)
	}
	// The client learns an incident number, never the stack.
	if strings.Contains(string(b), "goroutine ") || strings.Contains(string(b), ".go:") {
		t.Fatalf("stack trace leaked into the response body: %s", b)
	}
	var resp Response
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	var incident int
	if _, err := fmt.Sscanf(resp.Error, "serve: solver panic (incident %d)", &incident); err != nil {
		t.Fatalf("error %q names no incident: %v", resp.Error, err)
	}
	// The operator's log carries the stack under the same incident.
	tag := fmt.Sprintf("(incident %d)", incident)
	if l := logged.String(); !strings.Contains(l, tag) || !strings.Contains(l, "goroutine ") {
		t.Fatalf("log lacks the stack for %s:\n%s", tag, l)
	}
	if got := s.Stats().Failed; got != 1 {
		t.Fatalf("failed counter = %d, want 1", got)
	}
	// Same worker, next request: still answered, on rebuilt workspaces.
	body, _ = json.Marshal(&Request{Algo: Algo2Approx, Instance: instanceJSON(t)})
	status, b, _ = post(t, ts.URL+"/v1/solve", body)
	if status != http.StatusOK {
		t.Fatalf("post-panic solve: status %d: %s", status, b)
	}
}

// TestDefaultTimeoutCappedByMaxTimeout: a request omitting timeout_ms
// must not escape the -max-timeout cap via the (larger) default.
func TestDefaultTimeoutCappedByMaxTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:        1,
		DefaultTimeout: time.Hour,
		MaxTimeout:     20 * time.Millisecond,
	})
	s.run = func(ctx context.Context, req *decoded, ws *Workspaces) (*Response, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	body, _ := json.Marshal(&Request{Algo: Algo2Approx, Instance: instanceJSON(t)})
	start := time.Now()
	status, b, _ := post(t, ts.URL+"/v1/solve", body)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", status, b)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("default-timeout request ran %v, cap of 20ms not applied", elapsed)
	}
}

// TestRetryAfterRoundsUp: a sub-second Retry-After must advertise at
// least one second, never "Retry-After: 0".
func TestRetryAfterRoundsUp(t *testing.T) {
	s := New(Config{Workers: 1, RetryAfter: 500 * time.Millisecond})
	defer s.Close()
	w := httptest.NewRecorder()
	s.writeSubmitError(w, ErrOverloaded)
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
}

func TestHandlerBatchTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBatch: 2})
	body, _ := json.Marshal([]*Request{{Algo: AlgoLP}, {Algo: AlgoLP}, {Algo: AlgoLP}})
	status, b, _ := post(t, ts.URL+"/v1/batch", body)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", status, b)
	}
}

func TestHandlerHealthAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 1 {
		t.Fatalf("statsz workers = %d, want 1", st.Workers)
	}
}

// TestStatsSolverCounters drives one LP and one exact request and checks
// that the warm-start and DFS effort counters reach /statsz: the daemon
// is where pivot/probe rates get monitored in production, so a counter
// that never moves is a wiring bug, not a cosmetic one. The instance's
// LP bracket leaves the binary search at least two probes, so a warm
// start has a basis to re-enter.
func TestStatsSolverCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	in, err := workload.Generate(workload.Config{
		Topology: workload.SemiPartitioned, Machines: 4, Jobs: 8, Seed: 1,
		MinWork: 2, MaxWork: 30, OverheadPerLevel: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi, _ := relax.Bracket(in, relax.NewWorkspace()); hi-lo < 2 {
		t.Fatalf("bracket [%d, %d] leaves the search fewer than two probes", lo, hi)
	}
	var inst bytes.Buffer
	if err := model.Encode(&inst, in); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{AlgoLP, AlgoExact} {
		body, _ := json.Marshal(&Request{Algo: algo, Instance: inst.Bytes()})
		status, b, _ := post(t, ts.URL+"/v1/solve", body)
		if status != http.StatusOK {
			t.Fatalf("%s status %d: %s", algo, status, b)
		}
	}
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.LPProbes == 0 || st.LPSolves == 0 || st.LPColdSolves == 0 || st.LPPivots == 0 {
		t.Fatalf("LP effort counters did not move: %+v", st)
	}
	if st.LPWarmHits == 0 {
		t.Fatalf("no warm hits across a binary search — warm start is not engaging in the daemon: %+v", st)
	}
	if st.LPSolves != st.LPColdSolves+st.LPWarmHits {
		t.Fatalf("solve counter imbalance: %d != %d + %d", st.LPSolves, st.LPColdSolves, st.LPWarmHits)
	}
	if st.ExactProbes == 0 || st.ExactCanonical == 0 {
		t.Fatalf("exact effort counters did not move: %+v", st)
	}
	if st.ExactVisited > st.ExactCanonical {
		t.Fatalf("visited %d exceeds canonical %d", st.ExactVisited, st.ExactCanonical)
	}
}

func TestStatusFor(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{badRequestf("nope"), http.StatusBadRequest},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, statusClientClosed},
		{errors.New("solver exploded"), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
