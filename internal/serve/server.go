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
	// positive: successful responses are stored under the SHA-256 of the
	// request's canonical encoding (see cache.go) and identical requests
	// are answered without solver work — concurrent identical requests
	// collapse onto one solve. 0 disables caching entirely (today's
	// behavior).
	CacheEntries int
	// CacheBytes bounds the cache's total bytes (canonical keys plus
	// serialized responses). 0 = 64 MiB when the cache is enabled.
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

// Result pairs one request's response with its failure, so the HTTP
// layer can map failure kinds to status codes.
type Result struct {
	Resp *Response
	Err  error
}

// task is one unit of queued work: a single request or a batch, answered
// in input order on one worker's workspaces.
type task struct {
	ctx  context.Context
	reqs []*Request
	done chan []Result // buffered(1); the worker always answers
}

// Stats is a monotonic-counter snapshot plus instantaneous gauges. The
// lp_*/exact_* counters aggregate solver effort across all workers
// (folded in after each task from the per-worker workspace counters):
// they expose how much of the fleet's LP work is answered from warm
// bases and how much branch-and-bound work probes actually expand.
type Stats struct {
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	Queued     int    `json:"queued"`   // tasks waiting right now
	Accepted   uint64 `json:"accepted"` // requests admitted to the queue
	Completed  uint64 `json:"completed"`
	Shed       uint64 `json:"shed"`     // 429s: queue was full
	Canceled   uint64 `json:"canceled"` // context died before or during solve
	Failed     uint64 `json:"failed"`   // solver or request errors

	LPProbes       uint64 `json:"lp_probes"`       // LP feasibility probes (binary searches)
	LPSolves       uint64 `json:"lp_solves"`       // simplex solves underneath the probes
	LPColdSolves   uint64 `json:"lp_cold_solves"`  // answered by two-phase simplex
	LPWarmHits     uint64 `json:"lp_warm_hits"`    // answered from a retained basis
	LPSubsetHits   uint64 `json:"lp_subset_hits"`  // warm hits via variable-subset mapping
	LPPivots       uint64 `json:"lp_pivots"`       // total simplex pivots
	LPWarmPivots   uint64 `json:"lp_warm_pivots"`  // dual pivots inside warm hits
	ExactProbes    uint64 `json:"exact_probes"`    // DFS feasibility probes
	ExactVisited   uint64 `json:"exact_visited"`   // DFS nodes actually expanded
	ExactCanonical uint64 `json:"exact_canonical"` // canonical-tree nodes (node-cap currency)

	// Content-addressed cache counters (all zero with the cache off).
	// Every request that reaches an enabled cache is exactly one of
	// hit, miss, or collapsed, so the three reconcile with the request
	// count; entries/bytes are instantaneous gauges.
	CacheHits      uint64 `json:"cache_hits"`      // answered from the LRU
	CacheMisses    uint64 `json:"cache_misses"`    // had to run the solver
	CacheCollapsed uint64 `json:"cache_collapsed"` // waited on an identical in-flight solve
	CacheEvictions uint64 `json:"cache_evictions"` // LRU entries pushed out by the bounds
	CacheEntries   int    `json:"cache_entries"`   // entries resident right now
	CacheBytes     int64  `json:"cache_bytes"`     // bytes resident right now
}

// Server owns the worker pool and the bounded admission queue. Create
// with New, serve HTTP through Handler, stop with Close.
type Server struct {
	cfg   Config
	queue chan *task
	cache *cache // nil when Config.CacheEntries == 0

	mu      sync.RWMutex // guards stopped vs. queue close
	stopped bool
	wg      sync.WaitGroup

	accepted, completed, shed, canceled, failed atomic.Uint64
	// panics numbers recovered solver panics, so a client's error and
	// the operator's log line can be matched up.
	panics atomic.Uint64

	lpProbes, lpSolves, lpColdSolves, lpWarmHits, lpSubsetHits,
	lpPivots, lpWarmPivots, exactProbes, exactVisited, exactCanonical atomic.Uint64

	// run is the per-request unit of work; tests may replace it before
	// the first submit to make worker occupancy deterministic.
	run func(ctx context.Context, req *Request, ws *Workspaces) (*Response, error)
}

// New starts a Server: cfg.Workers goroutines, each with its own
// long-lived Workspaces, consuming one bounded queue.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults(), run: Do}
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
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	var cacheStats Stats
	if s.cache != nil {
		cacheStats.CacheHits = s.cache.hits.Load()
		cacheStats.CacheMisses = s.cache.misses.Load()
		cacheStats.CacheCollapsed = s.cache.collapsed.Load()
		cacheStats.CacheEvictions = s.cache.evictions.Load()
		cacheStats.CacheEntries, cacheStats.CacheBytes = s.cache.gauges()
	}
	return Stats{
		Workers:    s.cfg.Workers,
		QueueDepth: s.cfg.QueueDepth,
		Queued:     len(s.queue),
		Accepted:   s.accepted.Load(),
		Completed:  s.completed.Load(),
		Shed:       s.shed.Load(),
		Canceled:   s.canceled.Load(),
		Failed:     s.failed.Load(),

		LPProbes:       s.lpProbes.Load(),
		LPSolves:       s.lpSolves.Load(),
		LPColdSolves:   s.lpColdSolves.Load(),
		LPWarmHits:     s.lpWarmHits.Load(),
		LPSubsetHits:   s.lpSubsetHits.Load(),
		LPPivots:       s.lpPivots.Load(),
		LPWarmPivots:   s.lpWarmPivots.Load(),
		ExactProbes:    s.exactProbes.Load(),
		ExactVisited:   s.exactVisited.Load(),
		ExactCanonical: s.exactCanonical.Load(),

		CacheHits:      cacheStats.CacheHits,
		CacheMisses:    cacheStats.CacheMisses,
		CacheCollapsed: cacheStats.CacheCollapsed,
		CacheEvictions: cacheStats.CacheEvictions,
		CacheEntries:   cacheStats.CacheEntries,
		CacheBytes:     cacheStats.CacheBytes,
	}
}

// solverTotals is one worker's cumulative solver effort, read from its
// workspace counters. Workers fold task-to-task deltas into the server
// atomics; a retired (panicked) workspace forfeits its unreported tail.
type solverTotals struct {
	lpProbes, lpSolves, lpCold, lpWarmHits, lpSubsetHits int
	lpPivots, lpWarmPivots                               int
	exactProbes, exactVisited, exactCanonical            int
}

func totalsOf(ws *Workspaces) solverTotals {
	rs := ws.Relax.Stats()
	es := ws.Exact.Stats()
	return solverTotals{
		lpProbes:       rs.Probes + es.Relax.Probes,
		lpSolves:       rs.LP.Solves + es.Relax.LP.Solves,
		lpCold:         rs.LP.ColdSolves + es.Relax.LP.ColdSolves,
		lpWarmHits:     rs.LP.WarmHits + es.Relax.LP.WarmHits,
		lpSubsetHits:   rs.LP.SubsetHits + es.Relax.LP.SubsetHits,
		lpPivots:       rs.LP.Pivots + es.Relax.LP.Pivots,
		lpWarmPivots:   rs.LP.WarmPivots + es.Relax.LP.WarmPivots,
		exactProbes:    es.Probes,
		exactVisited:   es.Visited,
		exactCanonical: es.Canonical,
	}
}

// addSolverDelta folds the effort since the last snapshot into the
// server-wide counters.
func (s *Server) addSolverDelta(cur, last solverTotals) {
	s.lpProbes.Add(uint64(cur.lpProbes - last.lpProbes))
	s.lpSolves.Add(uint64(cur.lpSolves - last.lpSolves))
	s.lpColdSolves.Add(uint64(cur.lpCold - last.lpCold))
	s.lpWarmHits.Add(uint64(cur.lpWarmHits - last.lpWarmHits))
	s.lpSubsetHits.Add(uint64(cur.lpSubsetHits - last.lpSubsetHits))
	s.lpPivots.Add(uint64(cur.lpPivots - last.lpPivots))
	s.lpWarmPivots.Add(uint64(cur.lpWarmPivots - last.lpWarmPivots))
	s.exactProbes.Add(uint64(cur.exactProbes - last.exactProbes))
	s.exactVisited.Add(uint64(cur.exactVisited - last.exactVisited))
	s.exactCanonical.Add(uint64(cur.exactCanonical - last.exactCanonical))
}

// Submit enqueues the requests as one task and waits for the answers
// (input order). It returns ErrOverloaded without blocking when the
// queue is full and ErrStopped after Close; otherwise it waits for the
// worker — solver stages poll ctx, so a dead context ends the wait
// promptly with per-request cancellation errors in the results.
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
	t := &task{ctx: ctx, reqs: reqs, done: make(chan []Result, 1)}

	s.mu.RLock()
	if s.stopped {
		s.mu.RUnlock()
		return nil, ErrStopped
	}
	select {
	case s.queue <- t:
		s.mu.RUnlock()
		s.accepted.Add(uint64(len(reqs)))
	default:
		s.mu.RUnlock()
		s.shed.Add(uint64(len(reqs)))
		return nil, ErrOverloaded
	}
	return <-t.done, nil
}

// worker consumes tasks until Close. The Workspaces live as long as the
// worker: every request it serves reuses the same simplex tableau,
// constraint arenas and branch-and-bound buffers. The rt memo lives one
// task: requests of one batch share it, the next task starts without it.
func (s *Server) worker() {
	defer s.wg.Done()
	ws := NewWorkspaces()
	var last solverTotals
	for t := range s.queue {
		results := make([]Result, len(t.reqs))
		for i, req := range t.reqs {
			var panicked bool
			results[i], panicked = s.serveOne(t.ctx, req, ws)
			if panicked {
				// A panic may have left the pooled solver state
				// half-mutated; start the next request from scratch.
				ws = NewWorkspaces()
				last = solverTotals{}
			}
		}
		ws.endTask()
		cur := totalsOf(ws)
		s.addSolverDelta(cur, last)
		last = cur
		t.done <- results
	}
}

// serveOne runs one request under its own deadline, classifying the
// outcome for the counters. The second return reports a recovered
// solver panic, telling the worker to retire its workspaces.
func (s *Server) serveOne(ctx context.Context, req *Request, ws *Workspaces) (Result, bool) {
	// A client that vanished while the task was queued costs nothing.
	if err := ctx.Err(); err != nil {
		s.canceled.Add(1)
		return Result{Err: fmt.Errorf("serve: request abandoned in queue: %w", err)}, false
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	// The cap binds whether the timeout came from the request or the
	// default — otherwise -timeout above -max-timeout reopens the hole
	// the cap exists to close.
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	if s.cache != nil {
		return s.serveCached(rctx, req, ws)
	}
	return s.classify(s.runRecovered(rctx, req, ws))
}

// classify folds one outcome into the completion counters.
func (s *Server) classify(resp *Response, err error, panicked bool) (Result, bool) {
	switch {
	case err == nil:
		s.completed.Add(1)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.canceled.Add(1)
	default:
		s.failed.Add(1)
	}
	return Result{Resp: resp, Err: err}, panicked
}

// serveCached answers one request through the content-addressed cache:
// hit → the stored response, byte for byte what the solve produced;
// identical request already in flight → wait for its leader and collapse
// onto the same response; otherwise lead the solve and publish the
// result. Only successful responses are stored — a canceled, timed-out
// or failed solve settles the flight with nil and is never cached, so
// error paths behave exactly as they do uncached.
func (s *Server) serveCached(rctx context.Context, req *Request, ws *Workspaces) (Result, bool) {
	key, canon := KeyRequest(req)
	if resp, fl, leader := s.cache.acquire(key); resp != nil {
		s.completed.Add(1)
		return Result{Resp: resp}, false
	} else if !leader {
		resp, err := s.cache.wait(rctx, fl)
		if err != nil {
			s.canceled.Add(1)
			return Result{Err: fmt.Errorf("serve: canceled waiting on an identical in-flight solve: %w", err)}, false
		}
		if resp != nil {
			s.completed.Add(1)
			return Result{Resp: resp}, false
		}
		// The leader failed; its failure may have been its own deadline,
		// so solve under ours instead of inheriting the error. Counted as
		// a miss — this request does pay for a solve.
		s.cache.misses.Add(1)
		resp, err, panicked := s.runRecovered(rctx, req, ws)
		if err == nil && resp != nil {
			s.cache.store(key, canon, resp)
		}
		return s.classify(resp, err, panicked)
	} else {
		// Leader: store BEFORE settling so no window exists where the
		// flight is gone but the entry is absent (a second solve could
		// slip through it); settle unconditionally via defer so a
		// recovered panic can never strand the followers.
		var stored *Response
		defer func() { s.cache.settle(key, fl, stored) }()
		resp, err, panicked := s.runRecovered(rctx, req, ws)
		if err == nil && resp != nil {
			s.cache.store(key, canon, resp)
			stored = resp
		}
		return s.classify(resp, err, panicked)
	}
}

// runRecovered shields the worker pool from a panicking solver: one
// pathological instance becomes that request's error (422 at the HTTP
// layer) instead of killing every worker and hanging every Submit
// waiting on a done channel. The error names only an incident number;
// the panic value and stack go to the standard logger under that
// number, never to the client.
func (s *Server) runRecovered(ctx context.Context, req *Request, ws *Workspaces) (resp *Response, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			n := s.panics.Add(1)
			log.Printf("serve: solver panic (incident %d): %v\n%s", n, r, debug.Stack())
			resp, err, panicked = nil, fmt.Errorf("serve: solver panic (incident %d)", n), true
		}
	}()
	resp, err = s.run(ctx, req, ws)
	return resp, err, false
}
