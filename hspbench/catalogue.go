package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"hsp/internal/approx"
	"hsp/internal/dag"
	"hsp/internal/memcap"
	"hsp/internal/model"
	"hsp/internal/serve"
	"hsp/internal/workload"
)

// Request kinds of the catalogue. Every kind but kindSweep is one
// /v1/solve call named after its algorithm; kindSweep is the rt
// admission sweep, one /v1/batch of rt probes on one task set.
const (
	kindLP      = serve.AlgoLP
	kind2Approx = serve.Algo2Approx
	kindBest    = serve.AlgoBest
	kindExact   = serve.AlgoExact
	kindMemory1 = serve.AlgoMemory1
	kindMemory2 = serve.AlgoMemory2
	kindDAG     = serve.AlgoDAG
	kindSweep   = "rt-sweep"
)

// sizeClass fixes the instance dimensions of one size.
type sizeClass struct {
	name     string
	machines int // semi-partitioned and random-laminar
	clusters int // clustered: clusters × clusterSize machines
	clSize   int
	jobs     int
	dagNodes int
	dagM     int
}

// The three sizes. small is the only class exact runs on; large keeps
// one solve in the low milliseconds so a ten-second run sees hundreds of
// them on one worker.
var sizes = []sizeClass{
	{name: "small", machines: 4, clusters: 2, clSize: 2, jobs: 8, dagNodes: 12, dagM: 2},
	{name: "medium", machines: 6, clusters: 2, clSize: 3, jobs: 14, dagNodes: 20, dagM: 4},
	{name: "large", machines: 8, clusters: 2, clSize: 4, jobs: 18, dagNodes: 32, dagM: 6},
}

// topologies are the three admissible-family shapes the catalogue uses.
var topologies = []workload.Topology{workload.SemiPartitioned, workload.Clustered, workload.RandomLaminar}

// sweepFrames is the number of rt probes in one admission sweep.
const sweepFrames = 4

// cert is what the client knows about an instance before asking: the
// reference figures its certificate checks compare answers against.
type cert struct {
	tStar  int64   // T*, the LP bound (Theorem V.2's lower bound)
	approx int64   // the 2-approximation's makespan on the same instance
	sigma  float64 // Theorem VI.3's σ for the instance's depth
}

// item is one catalogue entry: the exact bytes sent, the decoded
// requests for the traced replay, and the reference data of its checks.
type item struct {
	kind  string
	size  string
	topo  string
	inst  int // instance index; items of one instance share it
	path  string
	body  []byte
	reqs  []*serve.Request
	cert  cert
	entry int // cache entries the item occupies (its request count)
}

// catalogue is a seeded list of distinct requests in a fixed shuffled
// order.
type catalogue struct {
	items   []item
	entries int // total cache entries, Σ item.entry
}

// buildCatalogue generates rounds × (sizes × topologies) instances from
// seed and emits every request kind for each, plus one DAG task per
// size and round. All randomness flows from seed, so equal arguments
// give byte-identical catalogues.
func buildCatalogue(seed int64, rounds int) (*catalogue, error) {
	rng := rand.New(rand.NewSource(seed))
	c := &catalogue{}
	inst := 0
	for r := 0; r < rounds; r++ {
		for _, sc := range sizes {
			for _, topo := range topologies {
				if err := c.addInstance(rng, sc, topo, inst); err != nil {
					return nil, err
				}
				inst++
			}
			if err := c.addDAG(rng, sc, inst); err != nil {
				return nil, err
			}
			inst++
		}
	}
	rng.Shuffle(len(c.items), func(i, j int) { c.items[i], c.items[j] = c.items[j], c.items[i] })
	for _, it := range c.items {
		c.entries += it.entry
	}
	return c, nil
}

// addInstance generates one instance of the class and appends its lp,
// 2approx, best, exact (small only), memory1, memory2 and rt-sweep
// requests.
func (c *catalogue) addInstance(rng *rand.Rand, sc sizeClass, topo workload.Topology, inst int) error {
	cfg := workload.Config{
		Topology: topo, Machines: sc.machines, Clusters: sc.clusters, ClusterSize: sc.clSize,
		Jobs: sc.jobs, Seed: rng.Int63(), MinWork: 2, MaxWork: 30, OverheadPerLevel: 0.25,
	}
	in, err := workload.Generate(cfg)
	if err != nil {
		return fmt.Errorf("generating %s %s instance: %w", sc.name, topo, err)
	}
	// The client-side reference: T* and the 2-approximation's makespan,
	// computed once here so every answer can be checked against them.
	ar, err := approx.TwoApproxCtx(context.Background(), in)
	if err != nil {
		return fmt.Errorf("reference 2-approximation: %w", err)
	}
	ref := cert{tStar: ar.LPBound, approx: ar.Makespan, sigma: sigmaOf(in)}
	var buf bytes.Buffer
	if err := model.Encode(&buf, in); err != nil {
		return err
	}
	doc := json.RawMessage(buf.Bytes())

	kinds := []string{kindLP, kind2Approx, kindBest, kindMemory1, kindMemory2}
	if sc.name == "small" {
		kinds = append(kinds, kindExact)
	}
	for _, k := range kinds {
		req := &serve.Request{Algo: k, Instance: doc}
		switch k {
		case kindMemory1:
			m1, err := workload.AttachModel1(in, workload.MemoryConfig{MinSize: 1, MaxSize: 10, BudgetSlack: 2}, rng.Int63())
			if err != nil {
				return err
			}
			req.Memory = &serve.MemorySpec{Budget: m1.Budget, Size: m1.Size}
		case kindMemory2:
			m2, err := workload.AttachModel2(in, workload.MemoryConfig{Mu: 2}, rng.Int63())
			if err != nil {
				return err
			}
			if m2.Validate() != nil {
				// Model 2 needs a tree with a uniform leaf level, which
				// some random laminar families lack; such an instance
				// gets no memory2 request.
				continue
			}
			req.Memory = &serve.MemorySpec{JobSize: m2.JobSize, Mu: m2.Mu}
		}
		if err := c.add(k, sc.name, topo.String(), inst, "/v1/solve", ref, req); err != nil {
			return err
		}
	}
	return c.add(kindSweep, sc.name, topo.String(), inst, "/v1/batch", ref, sweep(doc, ref)...)
}

// sweep builds the rt probes of one admission sweep: a frame below T*
// (provably unschedulable), frames at T* and inside the bracket, and the
// 2-approximation's makespan (provably schedulable), so both verdicts
// occur in every sweep.
func sweep(doc json.RawMessage, ref cert) []*serve.Request {
	t, a := ref.tStar, ref.approx
	frames := [sweepFrames]int64{t - 1, t, (t + a) / 2, a}
	reqs := make([]*serve.Request, 0, sweepFrames)
	for _, f := range frames {
		if f < 1 {
			f = 1
		}
		reqs = append(reqs, &serve.Request{Algo: serve.AlgoRT, Instance: doc, Frame: f})
	}
	return reqs
}

// addDAG generates one layered DAG task of the class's size.
func (c *catalogue) addDAG(rng *rand.Rand, sc sizeClass, inst int) error {
	task, err := workload.GenerateDAG(workload.DAGConfig{
		Machines: sc.dagM, Nodes: sc.dagNodes, EdgeProb: 0.35, Seed: rng.Int63(),
		MinWork: 2, MaxWork: 20, MinMem: 1, MaxMem: 8,
	})
	if err != nil {
		return fmt.Errorf("generating %s dag: %w", sc.name, err)
	}
	var buf bytes.Buffer
	if err := dag.Encode(&buf, task); err != nil {
		return err
	}
	req := &serve.Request{Algo: serve.AlgoDAG, Instance: buf.Bytes()}
	return c.add(kindDAG, sc.name, "dag", inst, "/v1/solve", cert{}, req)
}

// add encodes one item's body once; the daemon only ever sees these
// bytes.
func (c *catalogue) add(kind, size, topo string, inst int, path string, ref cert, reqs ...*serve.Request) error {
	var v any = reqs[0]
	if path == "/v1/batch" {
		v = reqs
	}
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	// Keep the requests as the daemon decodes them from these bytes, so
	// the traced replay and the cache-key mirror see what it sees.
	sent := make([]*serve.Request, len(reqs))
	for i := range sent {
		sent[i] = new(serve.Request)
	}
	if path == "/v1/batch" {
		err = json.Unmarshal(body, &sent)
	} else {
		err = json.Unmarshal(body, sent[0])
	}
	if err != nil {
		return err
	}
	c.items = append(c.items, item{
		kind: kind, size: size, topo: topo, inst: inst, path: path,
		body: body, reqs: sent, cert: ref, entry: len(reqs),
	})
	return nil
}

// sigmaOf is Theorem VI.3's σ for the instance's family: 2 + H_k for k
// levels, sharpened to 3 + 1/m for two levels, as memcap rounds it.
func sigmaOf(in *model.Instance) float64 {
	if k := in.Family.Levels(); k != 2 {
		return memcap.Sigma(k)
	}
	return memcap.SigmaTwoLevel(in.M())
}

// ranking orders the catalogue by popularity for Zipf draws (rank →
// catalogue index). Each kind-and-size class is spread evenly over the
// ranks, so every popularity band carries the catalogue's mix of kinds
// and the seed decides which instances are popular, not which kinds:
// otherwise a seed that happened to make the heaviest requests popular
// would measure a different workload.
func (c *catalogue) ranking(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	groups := map[string][]int{}
	var names []string
	for i, it := range c.items {
		k := it.kind + "/" + it.size
		if _, ok := groups[k]; !ok {
			names = append(names, k)
		}
		groups[k] = append(groups[k], i)
	}
	sort.Strings(names)
	type ranked struct {
		key float64 // position within the class, scaled to [0, 1)
		idx int
	}
	var all []ranked
	for _, name := range names {
		g := groups[name]
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		for i, idx := range g {
			all = append(all, ranked{(float64(i) + rng.Float64()) / float64(len(g)), idx})
		}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].key < all[b].key })
	perm := make([]int, len(all))
	for r, x := range all {
		perm[r] = x.idx
	}
	return perm
}

// zipf draws catalogue indices with P(rank r) ∝ 1/(r+1)^alpha.
type zipf struct {
	cum  []float64 // cumulative weights by rank
	perm []int     // rank → catalogue index
	rng  *rand.Rand
}

// newZipf returns a draw stream over a ranking. Streams of one seed
// share the ranking and differ in their draws through stream.
func newZipf(perm []int, seed, stream int64, alpha float64) *zipf {
	n := len(perm)
	z := &zipf{cum: make([]float64, n), perm: perm}
	sum := 0.0
	for r := range z.cum {
		sum += 1 / math.Pow(float64(r+1), alpha)
		z.cum[r] = sum
	}
	z.rng = rand.New(rand.NewSource(seed ^ (stream+1)*0x5851f42d4c957f2d))
	return z
}

// next returns the next drawn catalogue index.
func (z *zipf) next() int {
	u := z.rng.Float64() * z.cum[len(z.cum)-1]
	return z.perm[sort.SearchFloat64s(z.cum, u)]
}
