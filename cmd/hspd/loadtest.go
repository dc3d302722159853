package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hsp"
	"hsp/internal/serve"
	"hsp/internal/trajectory"
)

// loadConfig parameterizes the synthetic-traffic harness.
type loadConfig struct {
	cfg         serve.Config
	duration    time.Duration
	concurrency int
	seed        int64
	url         string // empty = spin an in-process daemon
	summaryPath string
	benchOut    string
	driftFail   float64 // p99/QPS drift gate factor (0 = report only)
}

// loadSummary is the harness's machine-readable result: one JSON
// document for -summary, one JSONL record for the -bench-out trajectory
// (same append-only convention as BENCH_hbench.json).
type loadSummary struct {
	Schema        int     `json:"schema"`
	Time          string  `json:"time"` // RFC 3339 with nanoseconds, UTC
	Kind          string  `json:"kind"` // "hspd-loadtest"
	Key           string  `json:"key"`  // trajectory identity, see summaryKey
	GoVersion     string  `json:"go"`
	Seed          int64   `json:"seed"`
	Concurrency   int     `json:"concurrency"`
	Workers       int     `json:"workers"`
	QueueDepth    int     `json:"queue_depth"`
	DurationMS    float64 `json:"duration_ms"`
	Requests      uint64  `json:"requests"`
	OK            uint64  `json:"ok"`
	Shed          uint64  `json:"shed"`   // deterministic 429s
	Failed        uint64  `json:"failed"` // transport or non-200/429 answers
	ClaimFailures uint64  `json:"claim_failures"`
	QPS           float64 `json:"qps"` // OK answers per second, sustained
	P50MS         float64 `json:"p50_ms"`
	P90MS         float64 `json:"p90_ms"`
	P99MS         float64 `json:"p99_ms"`
	MaxMS         float64 `json:"max_ms"`
	// Cold/warm split the successful answers by repetition: a probe's
	// first success is cold (the daemon had to solve), every repeat is
	// warm (with the content-addressed cache on, a hit). The traffic mix
	// is repeat-heavy by construction — each client cycles the same probe
	// set — so warm latency is what the cache is buying.
	ColdP99MS float64 `json:"cold_p99_ms,omitempty"`
	WarmP99MS float64 `json:"warm_p99_ms,omitempty"`
	// Cache counters are this run's deltas from GET /statsz (zero when
	// the daemon runs without a cache); CacheEntries echoes the
	// configured capacity for in-process runs. HitRatio is
	// (hits+collapsed)/(hits+misses+collapsed).
	CacheEntries   int     `json:"cache_entries,omitempty"`
	CacheHits      uint64  `json:"cache_hits,omitempty"`
	CacheMisses    uint64  `json:"cache_misses,omitempty"`
	CacheCollapsed uint64  `json:"cache_collapsed,omitempty"`
	CacheEvictions uint64  `json:"cache_evictions,omitempty"`
	HitRatio       float64 `json:"hit_ratio,omitempty"`
	// Drift compares against the previous same-key record in the
	// -bench-out trajectory; nil on the first record of a key.
	Drift *loadDrift `json:"drift,omitempty"`
}

// probe is one pre-encoded request template plus its response check: the
// paper's guarantees double as load-test correctness claims.
type probe struct {
	name  string
	path  string // /v1/solve or /v1/batch
	body  []byte
	check func(body []byte) error
}

// buildProbes pre-generates deterministic instances (in cfg.seed) and
// encodes the traffic mix once: certified 2-approximations, LP bounds,
// small exact solves, a schedulability query, and a batch of small LP
// probes for the batching path.
func buildProbes(seed int64) ([]probe, error) {
	semi, err := hsp.GenerateWorkload(hsp.WorkloadConfig{
		Topology: hsp.TopoSemiPartitioned, Machines: 4, Jobs: 10,
		Seed: seed, MinWork: 3, MaxWork: 20, OverheadPerLevel: 0.25,
	})
	if err != nil {
		return nil, err
	}
	clus, err := hsp.GenerateWorkload(hsp.WorkloadConfig{
		Topology: hsp.TopoClustered, Clusters: 2, ClusterSize: 3, Jobs: 12,
		Seed: seed + 1, MinWork: 3, MaxWork: 20, OverheadPerLevel: 0.3,
	})
	if err != nil {
		return nil, err
	}
	small, err := hsp.GenerateWorkload(hsp.WorkloadConfig{
		Topology: hsp.TopoSemiPartitioned, Machines: 3, Jobs: 8,
		Seed: seed + 2, MinWork: 2, MaxWork: 12,
	})
	if err != nil {
		return nil, err
	}
	// A frame the constructive 2-approximation provably fits, so the rt
	// probe must answer "schedulable".
	frameRes, err := hsp.Solve(semi)
	if err != nil {
		return nil, err
	}
	dagTask, err := hsp.GenerateDAG(hsp.DAGConfig{
		Machines: 4, Nodes: 20, Layers: 4, EdgeProb: 0.4, Seed: seed + 3,
		MinWork: 2, MaxWork: 12, MinMem: 1, MaxMem: 6,
	})
	if err != nil {
		return nil, err
	}

	enc := func(in *hsp.Instance) (json.RawMessage, error) {
		var buf bytes.Buffer
		if err := hsp.EncodeInstance(&buf, in); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	semiJSON, err := enc(semi)
	if err != nil {
		return nil, err
	}
	clusJSON, err := enc(clus)
	if err != nil {
		return nil, err
	}
	smallJSON, err := enc(small)
	if err != nil {
		return nil, err
	}
	var dagBuf bytes.Buffer
	if err := hsp.EncodeDAG(&dagBuf, dagTask); err != nil {
		return nil, err
	}
	dagJSON := json.RawMessage(dagBuf.Bytes())

	mustBody := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		return b
	}
	decode := func(body []byte) (*serve.Response, error) {
		var resp serve.Response
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, fmt.Errorf("undecodable response: %w", err)
		}
		if resp.Error != "" {
			return nil, fmt.Errorf("response error: %s", resp.Error)
		}
		return &resp, nil
	}
	checkTwoApprox := func(body []byte) error {
		resp, err := decode(body)
		if err != nil {
			return err
		}
		if resp.Makespan <= 0 || resp.LPBound <= 0 || resp.Makespan > 2*resp.LPBound {
			return fmt.Errorf("2-approx guarantee violated: makespan=%d T*=%d", resp.Makespan, resp.LPBound)
		}
		return nil
	}

	return []probe{
		{
			name: "2approx/semi", path: "/v1/solve",
			body:  mustBody(&serve.Request{Algo: serve.Algo2Approx, Instance: semiJSON}),
			check: checkTwoApprox,
		},
		{
			name: "best/clustered", path: "/v1/solve",
			body:  mustBody(&serve.Request{Algo: serve.AlgoBest, Instance: clusJSON}),
			check: checkTwoApprox,
		},
		{
			name: "lp/clustered", path: "/v1/solve",
			body: mustBody(&serve.Request{Algo: serve.AlgoLP, Instance: clusJSON}),
			check: func(body []byte) error {
				resp, err := decode(body)
				if err != nil {
					return err
				}
				if resp.LPBound < 1 {
					return fmt.Errorf("LP bound %d < 1", resp.LPBound)
				}
				return nil
			},
		},
		{
			name: "exact/small", path: "/v1/solve",
			body: mustBody(&serve.Request{Algo: serve.AlgoExact, Instance: smallJSON}),
			check: func(body []byte) error {
				resp, err := decode(body)
				if err != nil {
					return err
				}
				if !resp.Optimal || resp.Makespan <= 0 {
					return fmt.Errorf("exact answer not optimal: %+v", resp)
				}
				return nil
			},
		},
		{
			name: "rt/semi", path: "/v1/solve",
			body: mustBody(&serve.Request{Algo: serve.AlgoRT, Instance: semiJSON, Frame: frameRes.Makespan}),
			check: func(body []byte) error {
				resp, err := decode(body)
				if err != nil {
					return err
				}
				if resp.Verdict != "schedulable" {
					return fmt.Errorf("rt verdict %q, want schedulable", resp.Verdict)
				}
				return nil
			},
		},
		{
			name: "dag/layered", path: "/v1/solve",
			body: mustBody(&serve.Request{Algo: serve.AlgoDAG, Instance: dagJSON}),
			check: func(body []byte) error {
				resp, err := decode(body)
				if err != nil {
					return err
				}
				if resp.Scenario != "dag" || resp.ScenarioLB <= 0 || resp.Segments <= 0 {
					return fmt.Errorf("scenario metadata missing: %+v", resp)
				}
				if resp.Makespan <= 0 || resp.Makespan > 2*resp.ScenarioLB {
					return fmt.Errorf("DAG bound violated: makespan=%d LB=%d", resp.Makespan, resp.ScenarioLB)
				}
				return nil
			},
		},
		{
			name: "batch/lp", path: "/v1/batch",
			body: mustBody([]*serve.Request{
				{Algo: serve.AlgoLP, Instance: semiJSON},
				{Algo: serve.AlgoLP, Instance: smallJSON},
				{Algo: serve.AlgoLP, Instance: clusJSON},
			}),
			check: func(body []byte) error {
				var resps []serve.Response
				if err := json.Unmarshal(body, &resps); err != nil {
					return fmt.Errorf("undecodable batch response: %w", err)
				}
				if len(resps) != 3 {
					return fmt.Errorf("batch answered %d of 3", len(resps))
				}
				for i, r := range resps {
					if r.Error != "" || r.LPBound < 1 {
						return fmt.Errorf("batch item %d: error=%q T*=%d", i, r.Error, r.LPBound)
					}
				}
				return nil
			},
		},
	}, nil
}

// runLoadtest drives synthetic traffic against a daemon (in-process by
// default) and reports sustained QPS plus p50/p90/p99 latency. It exits
// nonzero — the smoke gate — when no request succeeded, any failed
// outright, or any response violated its paper-guarantee claim.
func runLoadtest(lc loadConfig, stdout, stderr io.Writer) error {
	probes, err := buildProbes(lc.seed)
	if err != nil {
		return fmt.Errorf("loadtest: building probes: %w", err)
	}

	base := lc.url
	target := "daemon at " + base
	resolved := lc.cfg
	if base == "" {
		srv := serve.New(lc.cfg)
		resolved = srv.Config()
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		base = "http://" + ln.Addr().String()
		target = fmt.Sprintf("in-process daemon (workers=%d queue=%d)",
			srv.Config().Workers, srv.Config().QueueDepth)
	}

	var (
		requests, ok, shed, failed, claims atomic.Uint64
		mu                                 sync.Mutex
		latencies                          []float64 // ms, successful answers only
		latCold, latWarm                   []float64 // split by probe repetition
		failLogOnce                        sync.Once
	)
	// okSeen[i] counts probe i's successful answers so far: the first
	// success is the cold solve, repeats are the warm (cacheable) path.
	okSeen := make([]atomic.Uint64, len(probes))
	client := &http.Client{}
	statsBefore := fetchStats(client, base)
	deadline := time.Now().Add(lc.duration)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < lc.concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				pi := (c + k) % len(probes)
				p := probes[pi]
				requests.Add(1)
				t0 := time.Now()
				resp, err := client.Post(base+p.path, "application/json", bytes.NewReader(p.body))
				if err != nil {
					failed.Add(1)
					failLogOnce.Do(func() { fmt.Fprintf(stderr, "loadtest: transport error: %v\n", err) })
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				elapsed := time.Since(t0)
				switch resp.StatusCode {
				case http.StatusOK:
					if err := p.check(body); err != nil {
						claims.Add(1)
						failLogOnce.Do(func() { fmt.Fprintf(stderr, "loadtest: %s claim failed: %v\n", p.name, err) })
						continue
					}
					warm := okSeen[pi].Add(1) > 1
					ok.Add(1)
					ms := float64(elapsed.Microseconds()) / 1000
					mu.Lock()
					latencies = append(latencies, ms)
					if warm {
						latWarm = append(latWarm, ms)
					} else {
						latCold = append(latCold, ms)
					}
					mu.Unlock()
				case http.StatusTooManyRequests:
					// Deterministic shedding is the design working, not a
					// failure; back off briefly so overload runs still
					// make progress.
					shed.Add(1)
					time.Sleep(2 * time.Millisecond)
				default:
					failed.Add(1)
					failLogOnce.Do(func() {
						fmt.Fprintf(stderr, "loadtest: %s answered %d: %s\n", p.name, resp.StatusCode, body)
					})
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	statsAfter := fetchStats(client, base)

	sort.Float64s(latencies)
	sort.Float64s(latCold)
	sort.Float64s(latWarm)
	pct := func(p float64) float64 { return pctOf(latencies, p) }
	sum := loadSummary{
		Schema:        1,
		Time:          time.Now().UTC().Format(time.RFC3339Nano),
		Kind:          "hspd-loadtest",
		Key:           summaryKey(lc.seed, lc.concurrency, lc.cfg.CacheEntries),
		GoVersion:     runtime.Version(),
		Seed:          lc.seed,
		Concurrency:   lc.concurrency,
		Workers:       resolved.Workers,
		QueueDepth:    resolved.QueueDepth,
		DurationMS:    float64(elapsed.Microseconds()) / 1000,
		Requests:      requests.Load(),
		OK:            ok.Load(),
		Shed:          shed.Load(),
		Failed:        failed.Load(),
		ClaimFailures: claims.Load(),
		QPS:           float64(ok.Load()) / elapsed.Seconds(),
		P50MS:         pct(0.50),
		P90MS:         pct(0.90),
		P99MS:         pct(0.99),
		ColdP99MS:     pctOf(latCold, 0.99),
		WarmP99MS:     pctOf(latWarm, 0.99),
	}
	if n := len(latencies); n > 0 {
		sum.MaxMS = latencies[n-1]
	}
	if lc.url == "" {
		sum.CacheEntries = lc.cfg.CacheEntries
	}
	if statsBefore != nil && statsAfter != nil {
		sum.CacheHits = statsAfter.CacheHits - statsBefore.CacheHits
		sum.CacheMisses = statsAfter.CacheMisses - statsBefore.CacheMisses
		sum.CacheCollapsed = statsAfter.CacheCollapsed - statsBefore.CacheCollapsed
		sum.CacheEvictions = statsAfter.CacheEvictions - statsBefore.CacheEvictions
		if total := sum.CacheHits + sum.CacheMisses + sum.CacheCollapsed; total > 0 {
			sum.HitRatio = float64(sum.CacheHits+sum.CacheCollapsed) / float64(total)
		}
	}

	fmt.Fprintf(stdout, "hspd loadtest: %s, %d clients against %s\n", lc.duration, lc.concurrency, target)
	fmt.Fprintf(stdout, "requests=%d ok=%d shed=%d failed=%d claim-failures=%d\n",
		sum.Requests, sum.OK, sum.Shed, sum.Failed, sum.ClaimFailures)
	fmt.Fprintf(stdout, "sustained QPS = %.1f\n", sum.QPS)
	fmt.Fprintf(stdout, "latency ms: p50=%.2f p90=%.2f p99=%.2f max=%.2f (cold p99=%.2f, warm p99=%.2f)\n",
		sum.P50MS, sum.P90MS, sum.P99MS, sum.MaxMS, sum.ColdP99MS, sum.WarmP99MS)
	if sum.CacheHits+sum.CacheMisses+sum.CacheCollapsed > 0 {
		fmt.Fprintf(stdout, "cache: hits=%d misses=%d collapsed=%d evictions=%d hit-ratio=%.3f\n",
			sum.CacheHits, sum.CacheMisses, sum.CacheCollapsed, sum.CacheEvictions, sum.HitRatio)
	}

	if lc.benchOut != "" {
		// Compare against the previous same-key record before appending
		// this run, so the trajectory file carries its own drift verdicts.
		lines, err := checkDrift(lc.benchOut, &sum, lc.driftFail)
		if err != nil {
			return fmt.Errorf("loadtest: reading trajectory: %w", err)
		}
		for _, line := range lines {
			fmt.Fprintf(stdout, "drift: %s\n", line)
		}
	}
	if lc.summaryPath != "" {
		b, err := json.MarshalIndent(&sum, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(lc.summaryPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if lc.benchOut != "" {
		if err := trajectory.Append(lc.benchOut, &sum); err != nil {
			return err
		}
	}

	switch {
	case sum.OK == 0:
		return fmt.Errorf("loadtest: no request succeeded")
	case sum.Failed > 0:
		return fmt.Errorf("loadtest: %d requests failed", sum.Failed)
	case sum.ClaimFailures > 0:
		return fmt.Errorf("loadtest: %d responses violated their claims", sum.ClaimFailures)
	case lc.url == "" && lc.cfg.CacheEntries > 0 && sum.CacheHits+sum.CacheCollapsed == 0:
		// The mix cycles a fixed probe set, so an enabled cache that never
		// hit means the content addressing is broken, not that traffic was
		// unlucky.
		return fmt.Errorf("loadtest: cache enabled (%d entries) but produced no hits", lc.cfg.CacheEntries)
	case sum.Drift != nil && sum.Drift.Regressed:
		return fmt.Errorf("loadtest: latency/throughput regressed beyond the %.0fx drift gate", lc.driftFail)
	}
	return nil
}

// pctOf reads the p-quantile from an ascending-sorted latency slice.
func pctOf(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// fetchStats reads the daemon's /statsz counters; nil when the endpoint
// is unreachable (the summary then simply omits the cache fields).
func fetchStats(client *http.Client, base string) *serve.Stats {
	resp, err := client.Get(base + "/statsz")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil
	}
	return &st
}
