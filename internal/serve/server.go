package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes the Server. The zero value picks the documented defaults.
type Config struct {
	// Workers is the worker-pool size; each worker holds one Workspaces
	// for its lifetime. Default: GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue (in tasks, where a batch is
	// one task). A full queue sheds deterministically — ErrOverloaded,
	// which the HTTP layer turns into 429 + Retry-After — instead of
	// queuing without bound. Default: 4 × Workers.
	QueueDepth int
	// DefaultTimeout applies to requests that carry no timeout_ms.
	// Default: 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps any per-request timeout_ms (0 = DefaultTimeout
	// serves as the cap too). Keeps a client from parking a worker on a
	// week-long exact solve.
	MaxTimeout time.Duration
	// RetryAfter is the deterministic backoff hint attached to shed
	// responses. Default: 1s.
	RetryAfter time.Duration
	// MaxBatch bounds the number of requests in one batch task.
	// Default: 64.
	MaxBatch int
	// MaxBody bounds the request body in bytes. Default: 8 MiB.
	MaxBody int64
	// CacheEntries enables the content-addressed response cache when
	// positive: successful responses are stored, as their wire bytes,
	// under the SHA-256 of the request's canonical encoding (see
	// cache.go), and identical requests are answered at admission without
	// a queue slot or solver work — concurrent identical requests
	// collapse onto one solve. 0 disables caching entirely.
	CacheEntries int
	// CacheBytes bounds the cache's total bytes (canonical keys plus
	// response bodies). 0 = 64 MiB when the cache is enabled.
	CacheBytes int64
}

// withDefaults resolves the documented defaults.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = c.DefaultTimeout
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 8 << 20
	}
	if c.CacheEntries > 0 && c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	return c
}

// ErrOverloaded reports a full admission queue: the request was shed
// without consuming solver time and may be retried after the Retry-After
// hint.
var ErrOverloaded = errors.New("serve: queue full, request shed")

// ErrStopped reports a submit after Close.
var ErrStopped = errors.New("serve: server stopped")

// Result is one request's answer. Body is the response exactly as the
// wire carries it — writeJSON's encoding, trailing newline included —
// and may be shared with the cache, so it is read-only. Err is the
// failure, which the HTTP layer maps to a status code.
type Result struct {
	Body []byte
	Err  error
}

// task is one unit of queued work: the requests of one call that need a
// solve, decoded at admission, answered in input order on one worker's
// workspaces.
type task struct {
	ctx       context.Context
	reqs      []*decoded
	deadlines []time.Time   // per request; zero = starts when the worker does
	done      chan []answer // buffered(1); the worker always answers
}

// answer is the worker's raw outcome for one request; the submitting
// goroutine encodes and counts it.
type answer struct {
	resp *Response
	err  error
}

// Stats is a monotonic-counter snapshot plus instantaneous gauges.
type Stats struct {
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	Queued     int    `json:"queued"`    // tasks waiting right now
	Accepted   uint64 `json:"accepted"`  // requests queued, or answered at admission (hit or collapse) in a call not shed
	Completed  uint64 `json:"completed"` // answered successfully, cache hits included
	Shed       uint64 `json:"shed"`      // 429s: the requests of a shed call that no worker had solved
	Canceled   uint64 `json:"canceled"`  // context died before or during solve, or while waiting on a flight
	Failed     uint64 `json:"failed"`    // solver or request errors

	SolverStats

	// Content-addressed cache counters (all zero with the cache off).
	// Every request the cache answers or sends to a solve is exactly one
	// of hit, miss, or collapsed, so the three reconcile with the request
	// count; a follower whose own deadline ends while it waits, or
	// before its re-attempt, is none of them (it counts as canceled).
	// entries/bytes are instantaneous gauges. Once every call has
	// returned, accepted = completed + canceled + failed.
	CacheHits      uint64 `json:"cache_hits"`      // answered from the LRU
	CacheMisses    uint64 `json:"cache_misses"`    // had to run the solver
	CacheCollapsed uint64 `json:"cache_collapsed"` // waited on an identical in-flight solve
	CacheEvictions uint64 `json:"cache_evictions"` // LRU entries pushed out by the bounds
	CacheEntries   int    `json:"cache_entries"`   // entries resident right now
	CacheBytes     int64  `json:"cache_bytes"`     // bytes resident right now
}

// SolverStats aggregates solver effort across all workers, folded in
// after each task from the worker's workspace counters: how much of the
// fleet's LP work is answered from warm bases and how much
// branch-and-bound work probes actually expand.
type SolverStats struct {
	LPProbes       uint64 `json:"lp_probes"`       // (IP-3) probes: search verdicts and witnesses
	LPSolves       uint64 `json:"lp_solves"`       // simplex solves underneath the probes
	LPColdSolves   uint64 `json:"lp_cold_solves"`  // answered by two-phase simplex
	LPWarmHits     uint64 `json:"lp_warm_hits"`    // answered from a retained basis
	LPSubsetHits   uint64 `json:"lp_subset_hits"`  // warm hits via variable-subset mapping
	LPPivots       uint64 `json:"lp_pivots"`       // total simplex pivots
	LPWarmPivots   uint64 `json:"lp_warm_pivots"`  // dual pivots inside warm hits
	ExactProbes    uint64 `json:"exact_probes"`    // DFS feasibility probes
	ExactVisited   uint64 `json:"exact_visited"`   // DFS nodes actually expanded
	ExactCanonical uint64 `json:"exact_canonical"` // canonical-tree nodes (node-cap currency)
}

// add folds a workspace's counters into the totals. The exact
// workspace's LP seeding runs on a relaxation workspace of its own.
func (t *SolverStats) add(ws *Workspaces) {
	rs, es := ws.Relax.Stats(), ws.Exact.Stats()
	t.LPProbes += uint64(rs.Probes + es.Relax.Probes)
	t.LPSolves += uint64(rs.LP.Solves + es.Relax.LP.Solves)
	t.LPColdSolves += uint64(rs.LP.ColdSolves + es.Relax.LP.ColdSolves)
	t.LPWarmHits += uint64(rs.LP.WarmHits + es.Relax.LP.WarmHits)
	t.LPSubsetHits += uint64(rs.LP.SubsetHits + es.Relax.LP.SubsetHits)
	t.LPPivots += uint64(rs.LP.Pivots + es.Relax.LP.Pivots)
	t.LPWarmPivots += uint64(rs.LP.WarmPivots + es.Relax.LP.WarmPivots)
	t.ExactProbes += uint64(es.Probes)
	t.ExactVisited += uint64(es.Visited)
	t.ExactCanonical += uint64(es.Canonical)
}

// Server owns the worker pool and the bounded admission queue. Create
// with New, serve HTTP through Handler, stop with Close.
type Server struct {
	cfg   Config
	queue chan *task
	cache *cache // nil when Config.CacheEntries == 0

	// mu orders enqueues against the queue's close; stopped is also read
	// without it at admission, so a stopped server answers no hits.
	mu      sync.RWMutex
	stopped atomic.Bool
	wg      sync.WaitGroup

	accepted, completed, shed, canceled, failed atomic.Uint64
	// panics numbers recovered solver panics, so a client's error and
	// the operator's log line can be matched up.
	panics atomic.Uint64

	solverMu sync.Mutex
	solver   SolverStats

	// decode is the per-request admission work and run the per-request
	// worker time; tests may replace either before the first submit, to
	// inject failures or make worker occupancy deterministic.
	decode func(req *Request) (*decoded, error)
	run    func(ctx context.Context, req *decoded, ws *Workspaces) (*Response, error)
}

// New starts a Server: cfg.Workers goroutines, each with its own
// long-lived Workspaces, consuming one bounded queue.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults(), decode: decode, run: respond}
	if s.cfg.CacheEntries > 0 {
		s.cache = newCache(s.cfg.CacheEntries, s.cfg.CacheBytes)
	}
	s.queue = make(chan *task, s.cfg.QueueDepth)
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Config returns the resolved configuration.
func (s *Server) Config() Config { return s.cfg }

// Close stops admission, drains the queue, and waits for in-flight work.
// Queued tasks are still answered (their own contexts bound how long
// that takes).
func (s *Server) Close() {
	s.mu.Lock()
	if s.stopped.Load() {
		s.mu.Unlock()
		return
	}
	s.stopped.Store(true)
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Workers:    s.cfg.Workers,
		QueueDepth: s.cfg.QueueDepth,
		Queued:     len(s.queue),
		Accepted:   s.accepted.Load(),
		Completed:  s.completed.Load(),
		Shed:       s.shed.Load(),
		Canceled:   s.canceled.Load(),
		Failed:     s.failed.Load(),
	}
	s.solverMu.Lock()
	st.SolverStats = s.solver
	s.solverMu.Unlock()
	if s.cache != nil {
		st.CacheHits = s.cache.hits.Load()
		st.CacheMisses = s.cache.misses.Load()
		st.CacheCollapsed = s.cache.collapsed.Load()
		st.CacheEvictions = s.cache.evictions.Load()
		st.CacheEntries, st.CacheBytes = s.cache.gauges()
	}
	return st
}

// Submit answers the requests in input order. With the cache on, every
// request is resolved at admission first: a hit is answered from the
// stored bytes at once, a request whose identical solve is already in
// flight waits for it on this goroutine, and the rest — the leaders of
// new flights, or every request with the cache off — go to a worker as
// ONE task. Followers whose leader failed or was shed re-attempt in a
// further round, still under the deadline their first wait fixed. A
// call resolved entirely at admission never touches the queue, so a
// full queue never sheds it. Submit returns ErrOverloaded without
// blocking when a task finds the queue full and ErrStopped after Close;
// otherwise it waits for the worker — solver stages poll ctx, so a dead
// context ends the wait promptly with per-request cancellation errors
// in the results.
func (s *Server) Submit(ctx context.Context, reqs []*Request) ([]Result, error) {
	if len(reqs) == 0 {
		return nil, badRequestf("empty request batch")
	}
	if len(reqs) > s.cfg.MaxBatch {
		return nil, badRequestf("batch of %d exceeds the %d-request cap", len(reqs), s.cfg.MaxBatch)
	}
	for i, r := range reqs {
		// A JSON null batch element decodes to a nil *Request; reject it
		// here so no worker ever dereferences one.
		if r == nil {
			return nil, badRequestf("batch element %d is null", i)
		}
	}
	if s.stopped.Load() {
		return nil, ErrStopped
	}
	c := &call{ctx: ctx, results: make([]Result, len(reqs))}
	todo := make([]int, len(reqs))
	for i := range todo {
		todo[i] = i
	}
	for len(todo) > 0 {
		var err error
		if todo, err = s.admit(c, reqs, todo); err != nil {
			if errors.Is(err, ErrOverloaded) {
				s.shed.Add(c.admitted.total())
			}
			return nil, err
		}
	}
	s.accepted.Add(c.admitted.total())
	s.count(c.admitted)
	return c.results, nil
}

// call is one Submit in progress. A request's deadline is fixed when its
// time starts to run — a wait on a flight here, or a solve on a worker —
// and binds every later round, so a re-attempt never gets a fresh
// budget. Requests answered at admission are counted only when the call
// returns: a call shed in a later round adds them to shed instead, so no
// answer its client never received counts as completed. The requests
// themselves travel beside the call, not in it, so that a single
// request's slice can stay on its handler's stack.
type call struct {
	ctx       context.Context
	results   []Result
	deadlines []time.Time // nil until a follower waits; zero = not fixed yet
	admitted  tally       // the answers given at admission
}

// deadlineOf reports request i's fixed deadline, zero if none is.
func (c *call) deadlineOf(i int) time.Time {
	if c.deadlines == nil {
		return time.Time{}
	}
	return c.deadlines[i]
}

// job is one request bound for a worker: its index in the call and,
// when it leads a cache flight, the key and the flight. body, once set,
// is what the flight settles with.
type job struct {
	i    int
	key  CacheKey
	fl   *flight
	body []byte
}

// follower is one request waiting on an identical in-flight solve.
type follower struct {
	i  int
	fl *flight
}

// admit runs one admission round over the requests todo indexes and
// fills their results. It returns the followers to re-attempt: those
// whose leader failed or was shed, which solve rather than inherit the
// leader's error.
func (s *Server) admit(c *call, reqs []*Request, todo []int) ([]int, error) {
	var work []job
	var follows []follower
	// A dead context skips the cache: the worker answers it as abandoned
	// without a lookup, a store or a cache counter moving.
	cached := s.cache != nil && c.ctx.Err() == nil
	for _, i := range todo {
		if !cached {
			work = append(work, job{i: i})
			continue
		}
		if d := c.deadlineOf(i); !d.IsZero() && !time.Now().Before(d) {
			// A re-attempt whose deadline passed while it waited ends
			// here, as its wait would have.
			c.resolve(i, waitFailed(context.DeadlineExceeded))
			continue
		}
		key, _ := KeyRequest(reqs[i])
		body, fl, leader := s.cache.acquire(key)
		switch {
		case body != nil:
			c.resolve(i, Result{Body: body})
		case leader:
			work = append(work, job{i: i, key: key, fl: fl})
		default:
			follows = append(follows, follower{i: i, fl: fl})
		}
	}
	// The call's own flights settle inside runTask, before any follower
	// waits: a batch may follow a flight it leads itself.
	if len(work) > 0 {
		if err := s.runTask(c, reqs, work); err != nil {
			return nil, err
		}
	}
	var retry []int
	for _, f := range follows {
		if c.deadlines == nil {
			c.deadlines = make([]time.Time, len(reqs))
		}
		if c.deadlines[f.i].IsZero() {
			c.deadlines[f.i] = s.deadline(reqs[f.i])
		}
		rctx, cancel := context.WithDeadline(c.ctx, c.deadlines[f.i])
		body, err := s.cache.wait(rctx, f.fl)
		cancel()
		switch {
		case err != nil:
			c.resolve(f.i, waitFailed(err))
		case body != nil:
			c.resolve(f.i, Result{Body: body})
		default:
			retry = append(retry, f.i)
		}
	}
	return retry, nil
}

// waitFailed is the answer of a follower whose deadline or client ended
// before an identical solve it waited on succeeded.
func waitFailed(err error) Result {
	return Result{Err: fmt.Errorf("serve: canceled waiting on an identical in-flight solve: %w", err)}
}

// resolve records an answer given at admission, without the queue.
func (c *call) resolve(i int, res Result) {
	c.results[i] = res
	c.admitted.add(res.Err)
}

// runTask decodes the jobs' requests on the calling goroutine, queues
// the decoded ones as one task, waits for the worker, and encodes each
// answer. A request that fails to decode is answered here, at admission,
// and takes no place in the task. Every flight a job leads is settled
// before runTask returns — with the encoded bytes on success, nil on a
// failure or a shed — so no follower waits on a solve that failed or
// never ran.
func (s *Server) runTask(c *call, reqs []*Request, work []job) error {
	defer func() {
		for _, j := range work {
			if j.fl != nil {
				s.cache.settle(j.key, j.fl, j.body)
			}
		}
	}()
	t := &task{ctx: c.ctx, done: make(chan []answer, 1)}
	queued := make([]*job, 0, len(work))
	for k := range work {
		j := &work[k]
		d, err := s.decodeRecovered(reqs[j.i])
		if err != nil {
			c.resolve(j.i, Result{Err: err})
			continue
		}
		queued = append(queued, j)
		t.reqs = append(t.reqs, d)
		t.deadlines = append(t.deadlines, c.deadlineOf(j.i))
	}
	if len(queued) == 0 {
		return nil
	}
	if err := s.enqueue(t); err != nil {
		return err
	}
	var answered tally
	for k, a := range <-t.done {
		j := queued[k]
		res := encodeAnswer(a)
		answered.add(res.Err)
		if res.Err == nil && j.fl != nil {
			// Store BEFORE the deferred settle, so no window exists where
			// the flight is gone but the entry is absent (a second solve
			// could slip through it).
			s.cache.store(j.key, res.Body)
			j.body = res.Body
		}
		c.results[j.i] = res
	}
	s.count(answered)
	return nil
}

// enqueue admits a task to the bounded queue, or sheds it without
// blocking when the queue is full.
func (s *Server) enqueue(t *task) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.stopped.Load() {
		return ErrStopped
	}
	select {
	case s.queue <- t:
		s.accepted.Add(uint64(len(t.reqs)))
		return nil
	default:
		s.shed.Add(uint64(len(t.reqs)))
		return ErrOverloaded
	}
}

// encodeAnswer turns a worker's answer into wire bytes.
func encodeAnswer(a answer) Result {
	if a.err != nil {
		return Result{Err: a.err}
	}
	body, err := encodeJSON(a.resp)
	if err != nil {
		return Result{Err: fmt.Errorf("serve: encoding response: %w", err)}
	}
	return Result{Body: body}
}

// tally counts final answers by outcome.
type tally struct{ completed, canceled, failed uint64 }

func (t *tally) add(err error) {
	switch {
	case err == nil:
		t.completed++
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		t.canceled++
	default:
		t.failed++
	}
}

func (t tally) total() uint64 { return t.completed + t.canceled + t.failed }

// count folds a tally into the completion counters.
func (s *Server) count(t tally) {
	s.completed.Add(t.completed)
	s.canceled.Add(t.canceled)
	s.failed.Add(t.failed)
}

// deadline fixes one request's deadline, counted from now: its
// timeout_ms, or the default, capped by MaxTimeout. The cap binds
// whether the timeout came from the request or the default — otherwise
// -timeout above -max-timeout reopens the hole the cap exists to close.
func (s *Server) deadline(req *Request) time.Time {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	return time.Now().Add(min(timeout, s.cfg.MaxTimeout))
}

// worker consumes tasks until Close. The Workspaces live as long as the
// worker: every request it serves reuses the same simplex tableau,
// constraint arenas and branch-and-bound buffers. The rt memo lives one
// task: requests of one batch share it, the next task starts without it.
// The worker never sees the cache; Submit resolves it at admission.
// After each task it folds its workspace counters into the server's
// and resets them; a retired (panicked) workspace forfeits the task's.
func (s *Server) worker() {
	defer s.wg.Done()
	ws := NewWorkspaces()
	for t := range s.queue {
		answers := make([]answer, len(t.reqs))
		for i, req := range t.reqs {
			var panicked bool
			answers[i], panicked = s.serveOne(t.ctx, req, t.deadlines[i], ws)
			if panicked {
				// A panic may have left the pooled solver state
				// half-mutated; start the next request from scratch.
				ws = NewWorkspaces()
			}
		}
		ws.endTask()
		s.solverMu.Lock()
		s.solver.add(ws)
		s.solverMu.Unlock()
		ws.Relax.ResetStats()
		ws.Exact.ResetStats()
		t.done <- answers
	}
}

// serveOne runs one request under its deadline: the one an earlier wait
// fixed, or else one that starts now. The second return reports a
// recovered solver panic, telling the worker to retire its workspaces.
func (s *Server) serveOne(ctx context.Context, req *decoded, deadline time.Time, ws *Workspaces) (answer, bool) {
	// A client that vanished while the task was queued costs nothing.
	if err := ctx.Err(); err != nil {
		return answer{err: fmt.Errorf("serve: request abandoned in queue: %w", err)}, false
	}
	if deadline.IsZero() {
		deadline = s.deadline(req.Request)
	}
	rctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	resp, err, panicked := s.runRecovered(rctx, req, ws)
	return answer{resp: resp, err: err}, panicked
}

// runRecovered shields the worker pool from a panicking solver: one
// pathological instance becomes that request's error (422 at the HTTP
// layer) instead of killing every worker and hanging every Submit
// waiting on a done channel. The error names only an incident number;
// the panic value and stack go to the standard logger under that
// number, never to the client.
func (s *Server) runRecovered(ctx context.Context, req *decoded, ws *Workspaces) (resp *Response, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			resp, err, panicked = nil, s.incident("solver", r), true
		}
	}()
	resp, err = s.run(ctx, req, ws)
	return resp, err, false
}

// decodeRecovered is admission's runRecovered: a decoder that panics on
// a pathological document fails that request with an incident error
// instead of taking down the handler's connection.
func (s *Server) decodeRecovered(req *Request) (d *decoded, err error) {
	defer func() {
		if r := recover(); r != nil {
			d, err = nil, s.incident("decode", r)
		}
	}()
	return s.decode(req)
}

// incident numbers a recovered panic, logs its value and stack under
// that number, and returns the error the client sees, which names only
// the stage and the number.
func (s *Server) incident(stage string, r any) error {
	n := s.panics.Add(1)
	log.Printf("serve: %s panic (incident %d): %v\n%s", stage, n, r, debug.Stack())
	return fmt.Errorf("serve: %s panic (incident %d)", stage, n)
}
