package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"hsp/internal/serve"
)

// serveSpec defines one daemon workload.
type serveSpec struct {
	rounds       int     // catalogue rounds: rounds × 12 instances and their requests
	cacheEntries int     // daemon cache capacity; 0 = cache off
	zipfAlpha    float64 // 0 cycles the catalogue; > 0 draws Zipf(alpha)
	warmup       int     // HTTP calls made before timing starts
}

// serveWorkloads are the daemon workloads. Both run an in-process daemon
// with one worker and two keep-alive clients in a closed loop over
// loopback HTTP: one worker for two clients lets a cheap request wait
// behind a solve (head-of-line blocking), and leaves the second core to
// HTTP and the load generator.
var serveWorkloads = map[string]serveSpec{
	// serve-cold cycles a catalogue of distinct requests in a fixed
	// shuffled order with the cache off, the default deployment. Every
	// request pays for decode and a full solve, so the solver layers do
	// nearly all the work: a solver change shows here, a cache change
	// must not.
	"serve-cold": {rounds: 32, warmup: 64},
	// serve-zipf draws the same request kinds, in the same shares,
	// Zipf-skewed from a catalogue about five times the cache's 512
	// entries. Hits run beside inserts and evictions at a hit ratio in
	// the middle of the range, so cache, handler and queue changes show
	// here; solvers run only on misses.
	"serve-zipf": {rounds: 32, cacheEntries: 512, zipfAlpha: 0.85, warmup: 1024},
}

// daemon is an in-process hspd: a serve.Server behind a loopback HTTP
// listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan struct{} // closed when hs.Serve returns
}

func startDaemon(cfg serve.Config) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	d := &daemon{srv: serve.New(cfg), base: "http://" + ln.Addr().String(), served: make(chan struct{})}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // always ErrServerClosed after stop
	}()
	return d, nil
}

// stop closes the listener and connections, waits for the serve loop,
// then drains the worker pool.
func (d *daemon) stop() {
	_ = d.hs.Close()
	<-d.served
	d.srv.Close()
}

// serveEnv is one set-up daemon workload: the catalogue and the daemon
// it is sent to.
type serveEnv struct {
	spec serveSpec
	cat  *catalogue
	rank []int // popularity ranking for Zipf draws
	d    *daemon
}

// call is one HTTP call.
type call struct {
	idx   int           // catalogue index
	start time.Time     // request sent
	lat   time.Duration // request sent to answer read
	fail  string        // "" or the failure kind: shed, non_200, certificate
	hit   bool          // predicted cache hit (traced run only)
	// resps are the checked answers, kept only until the call is folded
	// into the run's answers.
	resps []serve.Response
}

// answers accumulates what the figures need from the checked answers,
// so a run keeps no response past its call.
type answers struct {
	ratio     map[int]float64 // makespan / lower bound, first answer per item
	fallbacks []float64       // per memory1/memory2 answer
	segments  []float64       // per dag answer
}

func newAnswers() *answers { return &answers{ratio: map[int]float64{}} }

// observe folds one checked call in.
func (a *answers) observe(cl *call) {
	if cl.fail != "" {
		return
	}
	for i := range cl.resps {
		r := &cl.resps[i]
		switch r.Algo {
		case serve.Algo2Approx, serve.AlgoBest:
			if _, ok := a.ratio[cl.idx]; !ok {
				a.ratio[cl.idx] = float64(r.Makespan) / float64(r.LPBound)
			}
		case serve.AlgoDAG:
			if _, ok := a.ratio[cl.idx]; !ok {
				a.ratio[cl.idx] = float64(r.Makespan) / float64(r.ScenarioLB)
			}
			a.segments = append(a.segments, float64(r.Segments))
		case serve.AlgoMemory1, serve.AlgoMemory2:
			a.fallbacks = append(a.fallbacks, float64(r.Fallbacks))
		}
	}
}

// merge folds another client's answers in.
func (a *answers) merge(b *answers) {
	for k, v := range b.ratio {
		a.ratio[k] = v
	}
	a.fallbacks = append(a.fallbacks, b.fallbacks...)
	a.segments = append(a.segments, b.segments...)
}

// makespanRatio is the mean of makespan / lower bound over the distinct
// 2approx, best and dag items answered, each counted once.
func (a *answers) makespanRatio() float64 {
	var xs []float64
	for _, v := range a.ratio {
		xs = append(xs, v)
	}
	return mean(xs)
}

// loader sends catalogue items from closed-loop keep-alive clients.
type loader struct {
	env     *serveEnv
	clients []*http.Client
}

const numClients = 2

func newLoader(env *serveEnv) *loader {
	ld := &loader{env: env}
	for c := 0; c < numClients; c++ {
		ld.clients = append(ld.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	return ld
}

func (ld *loader) close() {
	for _, c := range ld.clients {
		c.CloseIdleConnections()
	}
}

// send makes one call for catalogue item idx on client c and checks the
// answer.
func (ld *loader) send(c int, idx int) call {
	it := &ld.env.cat.items[idx]
	start := time.Now()
	cl := call{idx: idx, start: start}
	resp, err := ld.clients[c].Post(ld.env.d.base+it.path, "application/json", bytes.NewReader(it.body))
	if err != nil {
		cl.lat, cl.fail = time.Since(start), "non_200"
		logFailure(err)
		return cl
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	cl.lat = time.Since(start)
	switch {
	case err != nil:
		cl.fail = "non_200"
	case resp.StatusCode == http.StatusTooManyRequests:
		cl.fail = "shed"
		err = fmt.Errorf("%s shed", it.kind)
	case resp.StatusCode != http.StatusOK:
		cl.fail = "non_200"
		err = fmt.Errorf("%s answered %d: %s", it.kind, resp.StatusCode, body)
	default:
		if cl.resps, err = checkBody(it, body); err != nil {
			cl.fail = "certificate"
		}
	}
	if err != nil {
		logFailure(err)
	}
	return cl
}

var failOnce sync.Once

// logFailure prints the first failure of a run to standard error.
func logFailure(err error) {
	failOnce.Do(func() { fmt.Fprintln(os.Stderr, "hspbench: first failure:", err) })
}

// picker returns a client's next catalogue index.
type picker func() int

// pickers gives each client its index stream: serve-cold's clients share
// one cursor over the fixed order; serve-zipf's clients draw from their
// own seeded streams, numbered from stream.
func (env *serveEnv) pickers(seed int64, stream int64) []picker {
	n := len(env.cat.items)
	ps := make([]picker, numClients)
	if env.spec.zipfAlpha == 0 {
		var mu sync.Mutex
		next := 0
		for c := range ps {
			ps[c] = func() int {
				mu.Lock()
				defer mu.Unlock()
				i := next
				next = (next + 1) % n
				return i
			}
		}
		return ps
	}
	for c := range ps {
		ps[c] = newZipf(env.rank, seed, stream+int64(c), env.spec.zipfAlpha).next
	}
	return ps
}

// drive runs the clients until dur has passed and returns every call
// with the measured wall time and the answers. after, when set, runs on
// the client's goroutine after each call and may annotate it.
func (ld *loader) drive(dur time.Duration, ps []picker, after func(c int, cl *call)) ([]call, time.Duration, *answers) {
	per := make([][]call, numClients)
	ans := make([]*answers, numClients)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ans[c] = newAnswers()
			for time.Now().Before(deadline) {
				cl := ld.send(c, ps[c]())
				if after != nil {
					after(c, &cl)
				}
				ans[c].observe(&cl)
				cl.resps = nil
				per[c] = append(per[c], cl)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []call
	for _, p := range per {
		all = append(all, p...)
	}
	for _, a := range ans[1:] {
		ans[0].merge(a)
	}
	return all, elapsed, ans[0]
}

// setupServe builds the catalogue, starts the daemon and warms it up
// from a stream the measured phase does not use: serve-cold sends a
// prefix of the catalogue, serve-zipf fills the cache.
func setupServe(spec serveSpec, seed int64) (*serveEnv, error) {
	cat, err := buildCatalogue(seed, spec.rounds)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(serve.Config{Workers: 1, CacheEntries: spec.cacheEntries})
	if err != nil {
		return nil, err
	}
	env := &serveEnv{spec: spec, cat: cat, rank: cat.ranking(seed), d: d}
	ld := newLoader(env)
	defer ld.close()
	// A wrong answer here is not an error of the set-up: the measured
	// phase meets the same request again and counts it as failed.
	pick := env.pickers(seed, 1000)[0]
	for i := 0; i < spec.warmup; i++ {
		ld.send(0, pick())
	}
	return env, nil
}

// tally folds calls into operation counts.
func tally(cat *catalogue, calls []call) ops {
	var o ops
	for _, cl := range calls {
		n := int64(cat.items[cl.idx].entry)
		o.Attempted += n
		switch cl.fail {
		case "":
			o.Succeeded += n
		case "shed":
			o.Shed += n
		case "non_200":
			o.Non200 += n
		case "certificate":
			o.Certificate += n
		}
	}
	return o
}

// latenciesMS returns the latencies of the answered calls in ms. Failed
// calls have no latency; they show in the result's failed count, which
// makes the run incorrect.
func latenciesMS(calls []call) []float64 {
	var out []float64
	for _, cl := range calls {
		if cl.fail == "" {
			out = append(out, float64(cl.lat.Nanoseconds())/1e6)
		}
	}
	return out
}

// loadShares reports the distinct-request share and the repeat share of
// the calls sent.
func loadShares(calls []call) (distinct, repeat float64) {
	seen := map[int]bool{}
	repeats := 0
	for _, cl := range calls {
		if seen[cl.idx] {
			repeats++
		}
		seen[cl.idx] = true
	}
	return ratio(float64(len(seen)), float64(len(calls))), ratio(float64(repeats), float64(len(calls)))
}

// hitRatio is the daemon cache's hit ratio between two counter
// snapshots; collapsed requests count as hits.
func hitRatio(before, after serve.Stats) float64 {
	hits := float64(after.CacheHits + after.CacheCollapsed - before.CacheHits - before.CacheCollapsed)
	return ratio(hits, hits+float64(after.CacheMisses-before.CacheMisses))
}

// runServe sets up, measures and reports one daemon workload.
func runServe(o options, spec serveSpec) (*report, error) {
	env, setupS, err := timeSetup(setupReps,
		func() (*serveEnv, error) { return setupServe(spec, o.seed) },
		func(e *serveEnv) { e.d.stop() })
	if err != nil {
		return nil, err
	}
	defer env.d.stop()
	if o.trace {
		return traceServe(o, env)
	}
	ld := newLoader(env)
	defer ld.close()
	before := env.d.srv.Stats()
	calls, elapsed, ans := ld.drive(seconds(o.seconds), env.pickers(o.seed, 0), nil)
	after := env.d.srv.Stats()
	if len(calls) == 0 {
		return nil, fmt.Errorf("no call completed in %.2fs", o.seconds)
	}
	rep := &report{ops: tally(env.cat, calls)}
	win := splitWindows(env.cat, calls, elapsed)
	rep.metrics = map[string]float64{
		"throughput_rps": median(win.itemRate),
		"p50_ms":         median(win.p50),
		"p99_ms":         quantile(latenciesMS(calls), 0.99),
		"makespan_ratio": ans.makespanRatio(),
		"suite_wall_s":   float64(len(env.cat.items)) / median(win.callRate),
		"setup_s":        setupS,
	}
	distinct, repeat := loadShares(calls)
	rep.facts = map[string]any{
		"latency_samples": len(calls),
		"window_rates":    win.itemRate,
		"catalogue_items": len(env.cat.items),
		"catalogue_reqs":  env.cat.entries,
		"distinct_share":  distinct,
		"repeat_share":    repeat,
		"hit_ratio":       hitRatio(before, after),
	}
	// The live heap is read with the daemon still up but the run's own
	// call records unreachable: catalogue, cache and workspaces.
	calls = nil
	rep.metrics["live_heap_mib"] = liveHeapMiB()
	return rep, nil
}

// numWindows is how many equal windows a measured phase is cut into.
// Throughput and p50 are medians of their per-window values, so a burst
// of outside load on the machine moves one window rather than the run.
const numWindows = 10

// windowStats are per-window figures of a measured phase.
type windowStats struct {
	itemRate []float64 // certified request items per second
	callRate []float64 // HTTP calls per second
	p50      []float64 // median call latency, ms
}

// splitWindows assigns each call to the window its answer arrived in
// (calls still in flight at the end go to the last window).
func splitWindows(cat *catalogue, calls []call, elapsed time.Duration) windowStats {
	start := calls[0].start
	for _, cl := range calls {
		if cl.start.Before(start) {
			start = cl.start
		}
	}
	width := elapsed / numWindows
	items := make([]float64, numWindows)
	ncalls := make([]float64, numWindows)
	lat := make([][]call, numWindows)
	for _, cl := range calls {
		w := min(int(cl.start.Add(cl.lat).Sub(start)/width), numWindows-1)
		ncalls[w]++
		if cl.fail == "" {
			items[w] += float64(cat.items[cl.idx].entry)
		}
		lat[w] = append(lat[w], cl)
	}
	var ws windowStats
	for w := 0; w < numWindows; w++ {
		ws.itemRate = append(ws.itemRate, items[w]/width.Seconds())
		ws.callRate = append(ws.callRate, ncalls[w]/width.Seconds())
		ws.p50 = append(ws.p50, quantile(latenciesMS(lat[w]), 0.5))
	}
	return ws
}

// seconds converts a --seconds value to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
