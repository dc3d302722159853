package main

import (
	"bufio"
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hsp/internal/model"
	"hsp/internal/scenario"
	"hsp/internal/serve"
)

// span is one timed interval of the traced run. Spans of one request
// share ID; a child names its parent span.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Kind   string `json:"kind,omitempty"`
	Inst   int    `json:"inst"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) add(ss ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// at converts an instant to the tracer's offset.
func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.t0)) }

// write stores the spans as JSONL in dir/name and returns the path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// byName groups span durations in ms by span name.
func (t *tracer) byName() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s.ms())
	}
	return out
}

// selfTimes returns, for every span named root that has children, its
// duration minus its children's, in ms.
func (t *tracer) selfTimes(root string) []float64 {
	total := map[int64]float64{}
	children := map[int64]float64{}
	for _, s := range t.spans {
		switch {
		case s.Name == root:
			total[s.ID] += s.ms()
		case s.Parent == root:
			children[s.ID] += s.ms()
		}
	}
	var out []float64
	for id, ms := range total {
		if c, ok := children[id]; ok {
			out = append(out, ms-c)
		}
	}
	return out
}

// lru mirrors the daemon cache's entry-bounded LRU from the client's
// side, to tell which calls the cache answered.
type lru struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent
	pos   map[serve.CacheKey]*list.Element
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, order: list.New(), pos: map[serve.CacheKey]*list.Element{}}
}

// touch records the requests of one call and reports whether all of
// them were resident before it.
func (l *lru) touch(keys []serve.CacheKey) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	hit := true
	for _, k := range keys {
		if e, ok := l.pos[k]; ok {
			l.order.MoveToFront(e)
			continue
		}
		hit = false
		l.pos[k] = l.order.PushFront(k)
		if l.order.Len() > l.cap {
			last := l.order.Back()
			l.order.Remove(last)
			delete(l.pos, last.Value.(serve.CacheKey))
		}
	}
	return hit
}

// solverCounts are the workspace counters replayed requests moved.
type solverCounts struct {
	probes, pivots, solves, cold, warm, subset int
	exactProbes, visited, canonical            int
}

func countsOf(ws *serve.Workspaces) solverCounts {
	rs, es := ws.Relax.Stats(), ws.Exact.Stats()
	return solverCounts{
		probes:      rs.Probes + es.Relax.Probes,
		pivots:      rs.LP.Pivots + es.Relax.LP.Pivots,
		solves:      rs.LP.Solves + es.Relax.LP.Solves,
		cold:        rs.LP.ColdSolves + es.Relax.LP.ColdSolves,
		warm:        rs.LP.WarmHits + es.Relax.LP.WarmHits,
		subset:      rs.LP.SubsetHits + es.Relax.LP.SubsetHits,
		exactProbes: es.Probes,
		visited:     es.Visited,
		canonical:   es.Canonical,
	}
}

// addDelta adds the counters moved from before to after.
func (a *solverCounts) addDelta(after, before solverCounts) {
	a.probes += after.probes - before.probes
	a.pivots += after.pivots - before.pivots
	a.solves += after.solves - before.solves
	a.cold += after.cold - before.cold
	a.warm += after.warm - before.warm
	a.subset += after.subset - before.subset
	a.exactProbes += after.exactProbes - before.exactProbes
	a.visited += after.visited - before.visited
	a.canonical += after.canonical - before.canonical
}

// replayer re-runs one client's requests in process on a held
// Workspaces, timing the public entry points the daemon calls:
// model.Decode or the scenario decoder, serve.Run or serve.RunScenario,
// and the JSON encoding of the answer.
type replayer struct {
	tr      *tracer
	ws      *serve.Workspaces
	all     solverCounts // every replayed request
	exact   solverCounts // exact requests only
	nreq    int
	nexact  int
	compile []float64 // dag compile times in ms, on the scenario interface
}

// replay runs decode, solve and encode for every request of a call and
// records them as children of the call's http span.
func (rp *replayer) replay(id int64, it *item, cl *call) error {
	ctx := context.Background()
	tr := rp.tr
	for i, req := range it.reqs {
		desc, isScenario := scenario.Lookup(req.Algo)
		var (
			in  *model.Instance
			wl  scenario.Workload
			err error
		)
		t0 := time.Now()
		if isScenario {
			wl, err = desc.Decode(req.Instance)
		} else {
			in, err = model.Decode(bytes.NewReader(req.Instance))
		}
		if err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
		t1 := time.Now()
		before := countsOf(rp.ws)
		if isScenario {
			_, err = serve.RunScenario(ctx, wl, req, rp.ws)
		} else {
			_, err = serve.Run(ctx, in, req, rp.ws)
		}
		if err != nil {
			return fmt.Errorf("replay solve: %w", err)
		}
		t2 := time.Now()
		after := countsOf(rp.ws)
		if _, err := json.Marshal(&cl.resps[i]); err != nil {
			return fmt.Errorf("replay encode: %w", err)
		}
		t3 := time.Now()
		rp.all.addDelta(after, before)
		rp.nreq++
		if req.Algo == serve.AlgoExact {
			rp.exact.addDelta(after, before)
			rp.nexact++
		}
		if isScenario {
			c0 := time.Now()
			if _, err := wl.Compile(); err != nil {
				return fmt.Errorf("replay compile: %w", err)
			}
			rp.compile = append(rp.compile, float64(time.Since(c0).Nanoseconds())/1e6)
		}
		tr.add(
			span{ID: id, Name: "decode", Parent: "http", Kind: req.Algo, Inst: it.inst, Start: tr.at(t0), End: tr.at(t1)},
			span{ID: id, Name: "solve." + req.Algo, Parent: "http", Kind: req.Algo, Inst: it.inst, Start: tr.at(t1), End: tr.at(t2)},
			span{ID: id, Name: "encode", Parent: "http", Kind: req.Algo, Inst: it.inst, Start: tr.at(t2), End: tr.at(t3)},
		)
	}
	return nil
}

// traceServe is the traced run of a daemon workload, in two halves of
// the run's time. The first half drives the same closed loop as the
// end-to-end run, adding only the client-side cache mirror and runtime
// counters; it gives the latency split, cache and Go runtime figures.
// The second half replays each answered miss in process after its HTTP
// call and records spans, from which the solver layers' figures come.
func traceServe(o options, env *serveEnv) (*report, error) {
	half := seconds(o.seconds / 2)
	ld := newLoader(env)
	defer ld.close()
	keys := make([][]serve.CacheKey, len(env.cat.items))
	for i := range env.cat.items {
		for _, r := range env.cat.items[i].reqs {
			k, _ := serve.KeyRequest(r)
			keys[i] = append(keys[i], k)
		}
	}
	var mirror *lru
	if env.spec.cacheEntries > 0 {
		// Replay the warm-up stream so the mirror starts where the
		// daemon's cache does.
		mirror = newLRU(env.spec.cacheEntries)
		pick := env.pickers(o.seed, 1000)[0]
		for i := 0; i < env.spec.warmup; i++ {
			mirror.touch(keys[pick()])
		}
	}
	classify := func(cl *call) {
		cl.hit = mirror != nil && mirror.touch(keys[cl.idx])
	}

	statsA0, memA0 := env.d.srv.Stats(), runtimeMem()
	callsA, _, ansA := ld.drive(half, env.pickers(o.seed, 0), func(_ int, cl *call) { classify(cl) })
	statsA1, memA1 := env.d.srv.Stats(), runtimeMem()
	if len(callsA) == 0 {
		return nil, fmt.Errorf("no call completed in %.2fs", o.seconds/2)
	}

	tr := &tracer{t0: time.Now()}
	rps := make([]*replayer, numClients)
	for c := range rps {
		rps[c] = &replayer{tr: tr, ws: serve.NewWorkspaces()}
	}
	var (
		idMu    sync.Mutex
		nextID  int64
		errOnce sync.Once
		errRep  error
	)
	callsB, _, ansB := ld.drive(half, env.pickers(o.seed, 10), func(c int, cl *call) {
		classify(cl)
		idMu.Lock()
		nextID++
		id := nextID
		idMu.Unlock()
		it := &env.cat.items[cl.idx]
		tr.add(span{ID: id, Name: "http", Kind: it.kind, Inst: it.inst, Start: tr.at(cl.start), End: tr.at(cl.start.Add(cl.lat))})
		if cl.fail != "" || cl.hit {
			return // the daemon did no solver work on a hit
		}
		if err := rps[c].replay(id, it, cl); err != nil {
			errOnce.Do(func() { errRep = err })
		}
	})
	if errRep != nil {
		return nil, errRep
	}
	rtAllocs, err := rtAllocsPerProbe(env.cat)
	if err != nil {
		return nil, err
	}
	path, err := tr.write(o.out, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	rep := &report{ops: tally(env.cat, callsA)}
	rep.ops.add(tally(env.cat, callsB))
	m := map[string]float64{}
	rep.metrics = m

	// serve: the latency split, cache effect and per-call overhead.
	var hitMS, missMS []float64
	bodyBytes, items := 0, 0
	for _, cl := range callsA {
		ms := float64(cl.lat.Nanoseconds()) / 1e6
		if cl.hit {
			hitMS = append(hitMS, ms)
		} else {
			missMS = append(missMS, ms)
		}
		bodyBytes += len(env.cat.items[cl.idx].body)
		items += env.cat.items[cl.idx].entry
	}
	m["serve.hit_p50_ms"] = quantile(hitMS, 0.50)
	m["serve.hit_p99_ms"] = quantile(hitMS, 0.99)
	m["serve.miss_p50_ms"] = quantile(missMS, 0.50)
	m["serve.hit_ratio"] = hitRatio(statsA0, statsA1)
	m["serve.evictions_per_1k"] = ratio(float64(statsA1.CacheEvictions-statsA0.CacheEvictions)*1000, float64(items))
	m["serve.cache_mib"] = float64(statsA1.CacheBytes) / (1 << 20)
	m["serve.overhead_us"] = median(tr.selfTimes("http")) * 1000

	// Solver layers, from the replay spans and workspace counters.
	spans := tr.byName()
	var all, exact solverCounts
	nreq, nexact := 0, 0
	var compile []float64
	for _, rp := range rps {
		all.addDelta(rp.all, solverCounts{})
		exact.addDelta(rp.exact, solverCounts{})
		nreq += rp.nreq
		nexact += rp.nexact
		compile = append(compile, rp.compile...)
	}
	m["model.decode_us"] = median(spans["decode"]) * 1000
	m["model.bytes_per_req"] = ratio(float64(bodyBytes), float64(items))
	m["relax.lp_ms"] = median(spans["solve."+serve.AlgoLP])
	m["relax.probes_per_req"] = ratio(float64(all.probes), float64(nreq))
	m["lp.pivots_per_req"] = ratio(float64(all.pivots), float64(nreq))
	m["lp.cold_solves_per_req"] = ratio(float64(all.cold), float64(nreq))
	m["lp.warm_hit_ratio"] = ratio(float64(all.warm), float64(all.solves))
	m["lp.subset_hits_per_req"] = ratio(float64(all.subset), float64(nreq))
	m["approx.round_ms"] = instanceDiff(tr, serve.Algo2Approx, serve.AlgoLP)
	m["approx.best_extra_ms"] = instanceDiff(tr, serve.AlgoBest, serve.Algo2Approx)
	m["exact.solve_p50_ms"] = quantile(spans["solve."+serve.AlgoExact], 0.50)
	m["exact.solve_p99_ms"] = quantile(spans["solve."+serve.AlgoExact], 0.99)
	m["exact.probes_per_req"] = ratio(float64(exact.exactProbes), float64(nexact))
	m["exact.visited_per_req"] = ratio(float64(exact.visited), float64(nexact))
	m["exact.canonical_per_req"] = ratio(float64(exact.canonical), float64(nexact))
	m["rt.test_ms"] = median(spans["solve."+serve.AlgoRT])
	m["rt.allocs_per_probe"] = rtAllocs
	m["memcap.model1_ms"] = median(spans["solve."+serve.AlgoMemory1])
	m["memcap.model2_ms"] = median(spans["solve."+serve.AlgoMemory2])
	m["dag.compile_ms"] = median(compile)
	ansA.merge(ansB)
	m["memcap.fallbacks_per_req"] = mean(ansA.fallbacks)
	m["dag.segments_per_req"] = mean(ansA.segments)

	// Go runtime, over the first half only: the replay allocates too.
	m["go.allocs_per_req"] = ratio(float64(memA1.Mallocs-memA0.Mallocs), float64(items))
	m["go.alloc_bytes_per_req"] = ratio(float64(memA1.TotalAlloc-memA0.TotalAlloc), float64(items))
	m["go.gc_per_1k_req"] = ratio(float64(memA1.NumGC-memA0.NumGC)*1000, float64(items))

	m["trace.overhead_ms"] = quantile(latenciesMS(callsB), 0.5) - quantile(latenciesMS(callsA), 0.5)
	m["load.distinct_share"], m["load.repeat_share"] = loadShares(callsA)

	rep.facts = map[string]any{
		"latency_samples": len(callsA),
		"hit_samples":     len(hitMS),
		"miss_samples":    len(missMS),
		"traced_calls":    len(callsB),
		"replayed_reqs":   nreq,
		"spans":           path,
	}
	return rep, nil
}

// instanceDiff is the median, over instances the replay solved with both
// algorithms, of the difference of their median solve times: the time
// algo a adds over algo b on the same instance.
func instanceDiff(tr *tracer, a, b string) float64 {
	per := map[int]map[string][]float64{}
	for _, s := range tr.spans {
		if s.Name != "solve."+a && s.Name != "solve."+b {
			continue
		}
		if per[s.Inst] == nil {
			per[s.Inst] = map[string][]float64{}
		}
		per[s.Inst][s.Kind] = append(per[s.Inst][s.Kind], s.ms())
	}
	var diffs []float64
	for _, byAlgo := range per {
		if len(byAlgo[a]) > 0 && len(byAlgo[b]) > 0 {
			diffs = append(diffs, median(byAlgo[a])-median(byAlgo[b]))
		}
	}
	return median(diffs)
}

// rtProbes is how many rt probes rtAllocsPerProbe runs.
const rtProbes = 24

// rtAllocsPerProbe runs rt probes of the catalogue one after another on
// an idle process and returns the heap allocations per probe.
func rtAllocsPerProbe(cat *catalogue) (float64, error) {
	type probe struct {
		in  *model.Instance
		req *serve.Request
	}
	var probes []probe
	for i := range cat.items {
		it := &cat.items[i]
		if it.kind != kindSweep {
			continue
		}
		for _, req := range it.reqs {
			in, err := model.Decode(bytes.NewReader(req.Instance))
			if err != nil {
				return 0, err
			}
			probes = append(probes, probe{in, req})
		}
		if len(probes) >= rtProbes {
			break
		}
	}
	ws := serve.NewWorkspaces()
	before := runtimeMem()
	for _, p := range probes {
		if _, err := serve.Run(context.Background(), p.in, p.req, ws); err != nil {
			return 0, fmt.Errorf("rt probe: %w", err)
		}
	}
	after := runtimeMem()
	return ratio(float64(after.Mallocs-before.Mallocs), float64(len(probes))), nil
}

// runtimeMem reads the runtime's allocation counters.
func runtimeMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}
