package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"hsp/internal/dag"
	"hsp/internal/model"
	"hsp/internal/workload"
)

// This file is the cache's ground-truth gate: the same seeded traffic
// mix — every algorithm the daemon serves (including dag), single and
// batch submissions, deterministic error paths, and requests that can
// only time out — replayed through a cached and an uncached server must
// be indistinguishable on the wire. Successful answers' wire bytes
// (Result.Body) are compared byte for byte (the cache serves stored
// bytes, so any divergence means a solver answer depends on workspace
// history — exactly the bug a response cache would turn from a
// curiosity into a lie). Error texts
// from real deadline kills embed pivot/node counts and are therefore
// timing-dependent even without a cache; those are compared by kind.

// diffItem is one submission in the mix: a single request or a batch.
type diffItem struct {
	name string
	reqs []*Request
}

// diffMix builds the deterministic traffic mix. Everything flows from
// the seed, so both servers replay the identical byte stream.
func diffMix(t *testing.T, seed int64) []diffItem {
	t.Helper()
	gen := func(cfg workload.Config) json.RawMessage {
		t.Helper()
		in, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := model.Encode(&buf, in); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	semi := gen(workload.Config{
		Topology: workload.SemiPartitioned, Machines: 4, Jobs: 10, Seed: seed,
		MinWork: 3, MaxWork: 20, OverheadPerLevel: 0.25,
	})
	clus := gen(workload.Config{
		Topology: workload.Clustered, Clusters: 2, ClusterSize: 3, Jobs: 12, Seed: seed + 1,
		MinWork: 3, MaxWork: 20, OverheadPerLevel: 0.3, SpeedSpread: 0.5,
	})
	small := gen(workload.Config{
		Topology: workload.SemiPartitioned, Machines: 3, Jobs: 7, Seed: seed + 2,
		MinWork: 2, MaxWork: 12,
	})
	smp := gen(workload.Config{
		Topology: workload.SMPCMP, Branching: []int{2, 2}, Jobs: 9, Seed: seed + 3,
		MinWork: 2, MaxWork: 9, OverheadPerLevel: 0.2,
	})
	flat := gen(workload.Config{
		Topology: workload.Flat, Machines: 4, Jobs: 12, Seed: seed + 4,
		MinWork: 2, MaxWork: 15,
	})
	huge := gen(workload.Config{
		Topology: workload.SemiPartitioned, Machines: 6, Jobs: 60, Seed: seed + 5,
		MinWork: 5, MaxWork: 40,
	})
	// The timeout probes must time out on BOTH servers deterministically,
	// not race the clock: 500 jobs make even the first LP phase cost
	// thousands of pivots, so a millisecond-scale deadline always expires
	// mid-solve — warm workspaces included — on any machine.
	giant := gen(workload.Config{
		Topology: workload.SemiPartitioned, Machines: 6, Jobs: 500, Seed: seed + 6,
		MinWork: 5, MaxWork: 40,
	})

	dagJSON := func(dseed int64) json.RawMessage {
		task, err := workload.GenerateDAG(workload.DAGConfig{
			Machines: 4, Nodes: 18, Layers: 4, EdgeProb: 0.4, Seed: dseed,
			MinWork: 2, MaxWork: 12, MinMem: 1, MaxMem: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dag.Encode(&buf, task); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	dagA, dagB := dagJSON(seed+10), dagJSON(seed+11)

	mem := func(inst json.RawMessage) (*MemorySpec, *MemorySpec) {
		in, err := model.Decode(bytes.NewReader(inst))
		if err != nil {
			t.Fatal(err)
		}
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
		return &MemorySpec{Budget: budget, Size: size}, &MemorySpec{JobSize: jobSize, Mu: 4}
	}
	semiM1, semiM2 := mem(semi)
	smallM1, smallM2 := mem(small)

	single := func(name string, req *Request) diffItem {
		return diffItem{name: name, reqs: []*Request{req}}
	}
	return []diffItem{
		// Solver coverage on every topology.
		single("semi/2approx", &Request{Algo: Algo2Approx, Instance: semi}),
		single("semi/best+sched", &Request{Algo: AlgoBest, Instance: semi, WantSchedule: true}),
		single("semi/lp", &Request{Algo: AlgoLP, Instance: semi}),
		single("semi/exact", &Request{Algo: AlgoExact, Instance: semi}),
		single("semi/rt", &Request{Algo: AlgoRT, Instance: semi, Frame: 64, MaxNodes: 1 << 16}),
		single("clus/2approx", &Request{Algo: Algo2Approx, Instance: clus}),
		single("clus/best", &Request{Algo: AlgoBest, Instance: clus}),
		single("clus/lp", &Request{Algo: AlgoLP, Instance: clus}),
		single("small/exact+sched", &Request{Algo: AlgoExact, Instance: small, WantSchedule: true}),
		single("small/rt", &Request{Algo: AlgoRT, Instance: small, Frame: 32, MaxNodes: 1 << 16}),
		single("smp/2approx", &Request{Algo: Algo2Approx, Instance: smp}),
		single("smp/best+sched", &Request{Algo: AlgoBest, Instance: smp, WantSchedule: true}),
		single("smp/exact", &Request{Algo: AlgoExact, Instance: smp}),
		single("flat/2approx", &Request{Algo: Algo2Approx, Instance: flat}),
		single("flat/lp", &Request{Algo: AlgoLP, Instance: flat}),
		single("huge/2approx", &Request{Algo: Algo2Approx, Instance: huge}),

		// Memory models, both flavors, two instances each.
		single("semi/memory1", &Request{Algo: AlgoMemory1, Instance: semi, Memory: semiM1}),
		single("semi/memory2", &Request{Algo: AlgoMemory2, Instance: semi, Memory: semiM2}),
		single("small/memory1", &Request{Algo: AlgoMemory1, Instance: small, Memory: smallM1}),
		single("small/memory2", &Request{Algo: AlgoMemory2, Instance: small, Memory: smallM2}),

		// The scenario layer.
		single("dagA", &Request{Algo: AlgoDAG, Instance: dagA}),
		single("dagB", &Request{Algo: AlgoDAG, Instance: dagB}),

		// Deterministic error paths: these fail identically every time, so
		// their error strings must match across servers byte for byte.
		single("err/unknown-algo", &Request{Algo: "simplexx", Instance: semi}),
		single("err/bad-instance", &Request{Algo: Algo2Approx, Instance: json.RawMessage(`{"m":`)}),
		single("err/rt-no-frame", &Request{Algo: AlgoRT, Instance: semi}),
		single("err/memory1-no-spec", &Request{Algo: AlgoMemory1, Instance: semi}),
		single("err/node-cap", &Request{Algo: AlgoExact, Instance: semi, MaxNodes: 1}),

		// Wall-clock timeouts: a solve that cannot finish in time must
		// keep timing out on the cached server (the timeout is part of
		// the key and failures are never stored).
		single("timeout/exact-1ms", &Request{Algo: AlgoExact, Instance: giant, TimeoutMS: 1}),
		single("timeout/exact-2ms", &Request{Algo: AlgoExact, Instance: giant, TimeoutMS: 2}),

		// Batches: mixed algos, repeated instances, an error in the middle.
		{name: "batch/mixed", reqs: []*Request{
			{Algo: AlgoLP, Instance: semi},
			{Algo: AlgoLP, Instance: clus},
			{Algo: AlgoLP, Instance: small},
		}},
		{name: "batch/repeat+err", reqs: []*Request{
			{Algo: Algo2Approx, Instance: semi},
			{Algo: "nope", Instance: semi},
			{Algo: Algo2Approx, Instance: semi},
			{Algo: AlgoBest, Instance: small},
		}},
	}
}

// replay submits the mix `rounds` times and returns one flattened
// Result list (input order, so index k means the same request on every
// server).
func replay(t *testing.T, s *Server, items []diffItem, rounds int) []Result {
	t.Helper()
	var out []Result
	for r := 0; r < rounds; r++ {
		for _, it := range items {
			results, err := s.Submit(context.Background(), it.reqs)
			if err != nil {
				t.Fatalf("round %d %s: submit: %v", r, it.name, err)
			}
			out = append(out, results...)
		}
	}
	return out
}

// TestCacheDifferentialReplay is the byte-identity satellite: 200+
// requests through cached and uncached servers, every answer compared.
func TestCacheDifferentialReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("differential replay exceeds -short budget")
	}
	items := diffMix(t, 42)
	const rounds = 6
	var names []string
	total := 0
	for r := 0; r < rounds; r++ {
		for _, it := range items {
			for i := range it.reqs {
				names = append(names, fmt.Sprintf("round%d/%s#%d", r, it.name, i))
				total++
			}
		}
	}
	if total < 200 {
		t.Fatalf("mix has only %d requests; the satellite requires 200+", total)
	}

	cached := New(Config{Workers: 2, QueueDepth: 64, CacheEntries: 64, CacheBytes: 1 << 20})
	defer cached.Close()
	uncached := New(Config{Workers: 2, QueueDepth: 64})
	defer uncached.Close()

	want := replay(t, uncached, items, rounds)
	got := replay(t, cached, items, rounds)
	if len(want) != total || len(got) != total {
		t.Fatalf("replay lengths: uncached=%d cached=%d want %d", len(want), len(got), total)
	}

	for k := range want {
		w, g := want[k], got[k]
		switch {
		case w.Err == nil && g.Err == nil:
			if !bytes.Equal(w.Body, g.Body) {
				t.Errorf("%s: cached response diverged\nuncached %s\ncached   %s", names[k], w.Body, g.Body)
			}
		case w.Err != nil && g.Err != nil:
			wTO := errors.Is(w.Err, context.DeadlineExceeded)
			gTO := errors.Is(g.Err, context.DeadlineExceeded)
			if wTO != gTO {
				t.Errorf("%s: timeout asymmetry: uncached=%v cached=%v", names[k], w.Err, g.Err)
			} else if !wTO && w.Err.Error() != g.Err.Error() {
				// Deadline-kill messages embed pivot/node counts and are
				// timing-dependent on ANY server; every other error is
				// deterministic and must match exactly.
				t.Errorf("%s: error text diverged\nuncached %v\ncached   %v", names[k], w.Err, g.Err)
			}
		default:
			t.Errorf("%s: outcome diverged: uncached err=%v, cached err=%v", names[k], w.Err, g.Err)
		}
	}

	// Counter reconciliation: this client is sequential, so nothing ever
	// collapses — every request that reached the cache is a hit or a miss.
	st := cached.Stats()
	if st.CacheHits+st.CacheMisses != uint64(total) {
		t.Errorf("hits(%d)+misses(%d) = %d, want the %d requests served",
			st.CacheHits, st.CacheMisses, st.CacheHits+st.CacheMisses, total)
	}
	if st.CacheCollapsed != 0 {
		t.Errorf("collapsed = %d on a sequential client", st.CacheCollapsed)
	}
	if st.CacheHits == 0 {
		t.Error("a 6-round replay produced zero cache hits")
	}
	// Errors and timeouts must never populate the cache, so every round
	// re-misses them: at least rounds×errorRequests misses.
	if st.CacheMisses < 6*uint64(rounds) {
		t.Errorf("misses = %d; the %d never-cacheable requests per round should each miss", st.CacheMisses, 6)
	}

	ust := uncached.Stats()
	if ust.CacheHits != 0 || ust.CacheMisses != 0 || ust.CacheCollapsed != 0 || ust.CacheEntries != 0 {
		t.Errorf("uncached server's cache counters moved: %+v", ust)
	}
}
