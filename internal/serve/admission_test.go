package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// This file pins the cache's place at admission: Submit answers hits
// and collapses on the caller's goroutine, so they take no queue slot,
// are never shed, and the counters still reconcile.

// algoBlock is a test-only algo that the blockingRun seam holds on a
// worker until released.
const algoBlock = "block"

// blockingRun wraps the real solver seam: algoBlock requests signal
// started without blocking (give it a buffer of one to keep the first
// signal) and hold the worker until release closes; everything else is
// solved for real.
func blockingRun(s *Server, started chan<- struct{}, release <-chan struct{}) {
	realRun := s.run
	s.run = func(ctx context.Context, req *decoded, ws *Workspaces) (*Response, error) {
		if req.Algo != algoBlock {
			return realRun(ctx, req, ws)
		}
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return &Response{Algo: algoBlock}, nil
	}
}

// occupy blocks the only worker and fills the queue to its depth, with
// distinct algoBlock requests so none of them collapse onto another.
func occupy(t *testing.T, s *Server, started <-chan struct{}) {
	t.Helper()
	inst := instanceJSON(t)
	submitBlock := func(n int) {
		go s.Submit(context.Background(), []*Request{{Algo: algoBlock, Instance: inst, Frame: int64(n + 1)}})
	}
	submitBlock(0)
	<-started
	for n := 1; n <= s.cfg.QueueDepth; n++ {
		submitBlock(n)
	}
	waitQueued(t, s, s.cfg.QueueDepth)
}

// TestCacheHitBypassesFullQueue: with the only worker busy and the queue
// full, a repeat of a cached request still answers 200 through Handler,
// byte for byte, without a 429 or a new queued task.
func TestCacheHitBypassesFullQueue(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, CacheEntries: 16})
	started, release := make(chan struct{}, 1), make(chan struct{})
	blockingRun(s, started, release)
	defer close(release)

	body, _ := json.Marshal(&Request{Algo: AlgoBest, Instance: instanceJSON(t)})
	status, cold, _ := post(t, ts.URL+"/v1/solve", body)
	if status != http.StatusOK {
		t.Fatalf("cold solve: status %d: %s", status, cold)
	}

	occupy(t, s, started)
	before := s.Stats()
	status, warm, _ := post(t, ts.URL+"/v1/solve", body)
	if status != http.StatusOK {
		t.Fatalf("hit behind a full queue: status %d, want 200: %s", status, warm)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("hit drifted from the cold solve:\ncold %s\nwarm %s", cold, warm)
	}
	after := s.Stats()
	if after.Shed != before.Shed || after.Queued != before.Queued {
		t.Fatalf("the hit touched the queue: shed %d→%d, queued %d→%d",
			before.Shed, after.Shed, before.Queued, after.Queued)
	}
	if after.CacheHits != before.CacheHits+1 {
		t.Fatalf("cache hits %d→%d, want one more", before.CacheHits, after.CacheHits)
	}
	if after.Accepted != before.Accepted+1 || after.Completed != before.Completed+1 {
		t.Fatalf("accepted %d→%d, completed %d→%d: the hit must count once in each",
			before.Accepted, after.Accepted, before.Completed, after.Completed)
	}
}

// TestShedLeaderSettlesFlight: a leader whose task is shed settles its
// flight, so an identical follower already waiting on it re-attempts —
// and is shed in turn by the still-full queue — instead of hanging. The
// follower's call also held a hit; the call answered 429, so the hit
// counts as shed, not as accepted or completed.
// Holding the server's admission lock parks the leader between taking
// the flight and trying the queue, which makes the follower's arrival
// deterministic.
func TestShedLeaderSettlesFlight(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, CacheEntries: 16, DefaultTimeout: time.Minute})
	defer s.Close()
	started, release := make(chan struct{}, 1), make(chan struct{})
	blockingRun(s, started, release)
	defer close(release)

	inst := instanceJSON(t)
	hit := &Request{Algo: AlgoLP, Instance: inst}
	if res, err := s.Submit(context.Background(), []*Request{hit}); err != nil || res[0].Err != nil {
		t.Fatalf("warming the cache: %v %v", err, res)
	}
	occupy(t, s, started)

	wait := func(what string, cond func(Stats) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond(s.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("never saw %s: %+v", what, s.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	base := s.Stats()
	contested := &Request{Algo: Algo2Approx, Instance: inst}
	errc := make(chan error, 2)
	s.mu.Lock()
	unlock := sync.OnceFunc(s.mu.Unlock) // a failed wait must not strand Close
	defer unlock()
	go func() {
		_, err := s.Submit(context.Background(), []*Request{contested})
		errc <- err
	}()
	wait("the leader take the flight", func(st Stats) bool { return st.CacheMisses == base.CacheMisses+1 })
	// The follower's hit comes after its contested item in input order,
	// so once the hit is counted the follower is on the flight.
	go func() {
		_, err := s.Submit(context.Background(), []*Request{contested, hit})
		errc <- err
	}()
	wait("the follower join the flight", func(st Stats) bool { return st.CacheHits == base.CacheHits+1 })
	unlock()

	for i := 0; i < 2; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("call %d: err = %v, want ErrOverloaded", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a call hung on a flight its shed leader never settled")
		}
	}
	st := s.Stats()
	if st.CacheMisses != base.CacheMisses+2 {
		t.Fatalf("misses %d→%d: want the leader and the re-attempting follower each to lead once",
			base.CacheMisses, st.CacheMisses)
	}
	if st.Shed != base.Shed+3 || st.Accepted != base.Accepted || st.Completed != base.Completed {
		t.Fatalf("shed %d→%d, accepted %d→%d, completed %d→%d: want all three requests of the two 429 calls shed and none completed",
			base.Shed, st.Shed, base.Accepted, st.Accepted, base.Completed, st.Completed)
	}
	key, _ := KeyRequest(contested)
	s.cache.mu.Lock()
	_, open := s.cache.flights[key]
	s.cache.mu.Unlock()
	if open {
		t.Fatal("the contested flight was left unsettled")
	}
}

// TestFollowerDeadlineBindsReattempt: followers that join a solve which
// then times out end within about one timeout of their own. Each
// follower's deadline is fixed when its wait starts and binds its
// re-attempt, so the follower that leads the second solve, and those
// that wait on it, get no fresh budget.
func TestFollowerDeadlineBindsReattempt(t *testing.T) {
	const followers, timeout = 6, 100 * time.Millisecond
	s := New(Config{Workers: 1, QueueDepth: followers, CacheEntries: 16})
	defer s.Close()
	started := make(chan struct{}, 1)
	s.run = func(ctx context.Context, req *decoded, ws *Workspaces) (*Response, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	req := &Request{Algo: AlgoLP, Instance: instanceJSON(t), TimeoutMS: timeout.Milliseconds()}
	submit := func() (time.Duration, error) {
		begin := time.Now()
		res, err := s.Submit(context.Background(), []*Request{req})
		if err == nil {
			err = res[0].Err
		}
		return time.Since(begin), err
	}
	leader := make(chan error, 1)
	go func() {
		_, err := submit()
		leader <- err
	}()
	<-started // the leader's deadline runs; every follower waits on it

	var wg sync.WaitGroup
	elapsed, errs := make([]time.Duration, followers), make([]error, followers)
	for g := range followers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			elapsed[g], errs[g] = submit()
		}()
	}
	wg.Wait()
	if err := <-leader; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("leader: err = %v, want DeadlineExceeded", err)
	}
	for g := range followers {
		if !errors.Is(errs[g], context.DeadlineExceeded) {
			t.Errorf("follower %d: err = %v, want DeadlineExceeded", g, errs[g])
		}
		if elapsed[g] > timeout*3/2 {
			t.Errorf("follower %d answered after %v, want within about one %v timeout", g, elapsed[g], timeout)
		}
	}
	if st := s.Stats(); st.Canceled != followers+1 || st.Accepted != st.Canceled {
		t.Errorf("canceled=%d accepted=%d, want %d of each", st.Canceled, st.Accepted, followers+1)
	}
}

// TestCounterReconciliation: after a concurrent cached run mixing hits,
// misses, collapses, solver errors, timeouts and abandoned calls, every
// accepted request is completed, canceled or failed, and every request
// that reached the cache is exactly one hit, miss or collapse.
func TestCounterReconciliation(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 256, CacheEntries: 64})
	defer s.Close()
	realRun := s.run
	s.run = func(ctx context.Context, req *decoded, ws *Workspaces) (*Response, error) {
		if req.Frame < 0 { // a solve that cannot finish in time
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return realRun(ctx, req, ws)
	}
	reqs := hammerRequests(t)
	inst := instanceJSON(t)
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	const goroutines, iters = 6, 12
	var (
		mu               sync.Mutex
		total, abandoned uint64
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				ctx := context.Background()
				var call []*Request
				switch k % 4 {
				case 0: // hits and misses, collapsing across goroutines
					call = []*Request{reqs[(g+k)%len(reqs)]}
				case 1: // a batch with a solver error in the middle
					call = []*Request{reqs[k%len(reqs)], {Algo: "nope", Instance: inst}, reqs[(k+1)%len(reqs)]}
				case 2: // a timeout under a key of its own, so nothing waits on it
					call = []*Request{{Algo: AlgoLP, Instance: inst, TimeoutMS: 1, Frame: -int64(g*iters + k + 1)}}
				case 3: // a client gone before admission
					ctx = dead
					call = []*Request{reqs[g%len(reqs)]}
				}
				if _, err := s.Submit(ctx, call); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				total += uint64(len(call))
				if ctx == dead {
					abandoned += uint64(len(call))
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	st := s.Stats()
	if st.Accepted != total || st.Shed != 0 {
		t.Errorf("accepted=%d shed=%d, want %d/0", st.Accepted, st.Shed, total)
	}
	if st.Completed+st.Canceled+st.Failed != st.Accepted {
		t.Errorf("completed(%d)+canceled(%d)+failed(%d) = %d, want accepted %d",
			st.Completed, st.Canceled, st.Failed, st.Completed+st.Canceled+st.Failed, st.Accepted)
	}
	if got := st.CacheHits + st.CacheMisses + st.CacheCollapsed; got != total-abandoned {
		t.Errorf("hits(%d)+misses(%d)+collapsed(%d) = %d, want the %d requests that reached the cache",
			st.CacheHits, st.CacheMisses, st.CacheCollapsed, got, total-abandoned)
	}
	if st.CacheHits == 0 || st.Failed == 0 || st.Canceled < abandoned+1 {
		t.Errorf("the mix missed a path: hits=%d failed=%d canceled=%d abandoned=%d",
			st.CacheHits, st.Failed, st.Canceled, abandoned)
	}
}

// TestHandlerBatchWireBytes: a /v1/batch mixing hits, a miss and an
// error item answers the same bytes on a cached and an uncached server,
// and those bytes are exactly the encoding of the cold []*Response.
func TestHandlerBatchWireBytes(t *testing.T) {
	inst := instanceJSON(t)
	reqs := []*Request{
		{Algo: AlgoLP, Instance: inst},
		{Algo: Algo2Approx, Instance: inst, WantSchedule: true},
		{Algo: "nope", Instance: inst},
		{Algo: AlgoBest, Instance: inst},
		{Algo: AlgoLP, Instance: inst},
	}
	want := make([]*Response, len(reqs))
	for i, req := range reqs {
		resp, err := Do(context.Background(), req, NewWorkspaces())
		if err != nil {
			resp = &Response{Algo: req.Algo, Error: err.Error()}
		}
		want[i] = resp
	}
	wantBody, err := encodeJSON(want)
	if err != nil {
		t.Fatal(err)
	}

	batch, _ := json.Marshal(reqs)
	cached, cts := newTestServer(t, Config{Workers: 1, CacheEntries: 16})
	// Warm the first two items so the batch mixes hits with a miss.
	for i, req := range reqs[:2] {
		body, _ := json.Marshal(req)
		status, b, _ := post(t, cts.URL+"/v1/solve", body)
		if status != http.StatusOK {
			t.Fatalf("warming %s: status %d: %s", req.Algo, status, b)
		}
		if cold, _ := encodeJSON(want[i]); !bytes.Equal(b, cold) {
			t.Fatalf("/v1/solve %s:\n got %s\nwant %s", req.Algo, b, cold)
		}
	}
	_, uts := newTestServer(t, Config{Workers: 1})
	for name, url := range map[string]string{"cached": cts.URL, "uncached": uts.URL} {
		status, b, _ := post(t, url+"/v1/batch", batch)
		if status != http.StatusOK {
			t.Fatalf("%s batch: status %d: %s", name, status, b)
		}
		if !bytes.Equal(b, wantBody) {
			t.Fatalf("%s batch body drifted from the cold encoding:\n got %s\nwant %s", name, b, wantBody)
		}
	}
	if st := cached.Stats(); st.CacheHits != 3 {
		t.Fatalf("batch served %d hits, want 3: %+v", st.CacheHits, st)
	}
}

// TestDecodeAtAdmission: a batch whose middle item carries a malformed
// instance answers that item 400 at admission and solves the other two
// in one task: with the only worker busy and a one-slot queue, a second
// task would have been shed. The malformed item never reaches the
// worker; a malformed request behind the full queue is answered 400,
// not shed, since it takes no queue slot; and the counters reconcile.
func TestDecodeAtAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	started, release := make(chan struct{}, 1), make(chan struct{})
	blockingRun(s, started, release)
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock() // a failed check must not strand the worker, and Close
	blocked := s.run
	var mu sync.Mutex
	var ran []string
	s.run = func(ctx context.Context, req *decoded, ws *Workspaces) (*Response, error) {
		if req.Algo != algoBlock {
			mu.Lock()
			ran = append(ran, req.Algo)
			mu.Unlock()
		}
		return blocked(ctx, req, ws)
	}
	inst := instanceJSON(t)
	blockDone := make(chan struct{})
	go func() {
		s.Submit(context.Background(), []*Request{{Algo: algoBlock, Instance: inst}})
		close(blockDone)
	}()
	<-started

	malformed := json.RawMessage(`[1, 2, 3]`)
	type submitted struct {
		res []Result
		err error
	}
	done := make(chan submitted, 1)
	go func() {
		res, err := s.Submit(context.Background(), []*Request{
			{Algo: AlgoLP, Instance: inst},
			{Algo: AlgoLP, Instance: malformed},
			{Algo: Algo2Approx, Instance: inst},
		})
		done <- submitted{res, err}
	}()
	waitQueued(t, s, 1)
	body, _ := json.Marshal(&Request{Algo: AlgoLP, Instance: malformed})
	if status, b, _ := post(t, ts.URL+"/v1/solve", body); status != http.StatusBadRequest {
		t.Fatalf("malformed request behind a full queue: status %d, want 400: %s", status, b)
	}
	unblock()

	got := <-done
	<-blockDone
	if got.err != nil {
		t.Fatalf("batch: %v", got.err)
	}
	for i, res := range got.res {
		if i == 1 {
			if res.Err == nil || statusFor(res.Err) != http.StatusBadRequest {
				t.Fatalf("malformed item answered %v, want a 400 error", res.Err)
			}
		} else if res.Err != nil {
			t.Fatalf("item %d: %v", i, res.Err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 2 || ran[0] != AlgoLP || ran[1] != Algo2Approx {
		t.Fatalf("the worker ran %v, want [lp 2approx]", ran)
	}
	st := s.Stats()
	if st.Shed != 0 || st.Accepted != 5 || st.Completed != 3 || st.Failed != 2 || st.Canceled != 0 {
		t.Fatalf("counters %+v: want 5 accepted = 3 completed + 2 failed, none shed", st)
	}
}

// TestDecodePanicBecomesIncident: a decoder that panics at admission
// fails its request with an incident error (422), as a solver panic
// does, instead of dropping the client's connection; the stack goes to
// the log under the same incident, and the daemon keeps serving.
func TestDecodePanicBecomesIncident(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	realDecode := s.decode
	s.decode = func(req *Request) (*decoded, error) {
		if req.Algo == "boom" {
			panic("decoder bug on a pathological document")
		}
		return realDecode(req)
	}
	var logged bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logged)
	body, _ := json.Marshal(&Request{Algo: "boom", Instance: instanceJSON(t)})
	status, b, _ := post(t, ts.URL+"/v1/solve", body)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", status, b)
	}
	var resp Response
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	var incident int
	if _, err := fmt.Sscanf(resp.Error, "serve: decode panic (incident %d)", &incident); err != nil {
		t.Fatalf("error %q names no incident: %v", resp.Error, err)
	}
	tag := fmt.Sprintf("(incident %d)", incident)
	if l := logged.String(); !strings.Contains(l, tag) || !strings.Contains(l, "goroutine ") {
		t.Fatalf("log lacks the stack for %s:\n%s", tag, l)
	}
	if st := s.Stats(); st.Accepted != 1 || st.Failed != 1 {
		t.Fatalf("counters %+v: want the panicked request accepted and failed", st)
	}
	body, _ = json.Marshal(&Request{Algo: AlgoLP, Instance: instanceJSON(t)})
	if status, b, _ = post(t, ts.URL+"/v1/solve", body); status != http.StatusOK {
		t.Fatalf("after the panic: status %d: %s", status, b)
	}
}

// BenchmarkCacheHit measures one cached "best" request through Handler
// on a one-worker server: decode, key, lookup and the body write.
func BenchmarkCacheHit(b *testing.B) {
	s := New(Config{Workers: 1, CacheEntries: 16})
	defer s.Close()
	h := s.Handler()
	body, _ := json.Marshal(&Request{Algo: AlgoBest, Instance: instanceJSON(b)})
	serve := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		return w
	}
	if w := serve(); w.Code != http.StatusOK {
		b.Fatalf("cold solve: status %d: %s", w.Code, w.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := serve(); w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.CacheHits < uint64(b.N) {
		b.Fatalf("%d hits over %d iterations", st.CacheHits, b.N)
	}
}
