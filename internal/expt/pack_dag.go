package expt

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"hsp/internal/approx"
	"hsp/internal/dag"
	"hsp/internal/memcap"
	"hsp/internal/workload"
)

// The dag pack exercises the scenario layer end to end: layered DAG
// tasks partitioned into maxLive-bounded segments, compiled onto the
// laminar core and solved with the Section V pipeline. The claims are
// the compile-time certificate (makespan ≤ 2·max(critical path,
// ceil(W/m)), the Graham-style lower bound), the partitioner's memory
// invariants, and Theorem VI.1's bicriteria factors on the compiled
// memcap annotations.
func init() {
	RegisterPack(Pack{
		Name: "dag",
		Description: "DAG-task scenario: partition → compile → solve with the certified " +
			"2·max(CP, W/m) bound, memory-budget invariants, and Model 1 factors (internal/dag)",
	})
	Register(Experiment{ID: "DAG1", Pack: "dag",
		Title: "DAG compile certificate: makespan vs max(critical path, W/m)",
		Claim: "the compiled 2-approximation stays within 2·LB on every task, with T* ≤ LB and work conserved",
		Run:   Suite.DAG1})
	Register(Experiment{ID: "DAG2", Pack: "dag",
		Title: "Partitioner memory invariants across tightening budgets",
		Claim: "every partition has maxLive ≤ budget and tiles the task; tightening the budget never merges segments",
		Run:   Suite.DAG2})
	Register(Experiment{ID: "DAG3", Pack: "dag",
		Title: "Model 1 factors on compiled memcap annotations",
		Claim: "fallback-free roundings of compiled DAG tasks stay within makespan ≤ 3T and memory ≤ 3B (Theorem VI.1)",
		Run:   Suite.DAG3})
}

// dagConfig draws one generator configuration in the given shape.
func dagConfig(rng *rand.Rand, machines, nodes int, edgeProb float64, withMem bool) workload.DAGConfig {
	cfg := workload.DAGConfig{
		Machines: machines,
		Nodes:    nodes,
		EdgeProb: edgeProb,
		Seed:     rng.Int63(),
		MinWork:  2, MaxWork: 20,
	}
	if withMem {
		cfg.MinMem, cfg.MaxMem = 1, 8
	}
	return cfg
}

// DAG1 sweeps shapes (machine count × edge density) and checks the
// compile certificate on every task: the solved makespan is ≤ 2·LB for
// LB = max(critical path, ceil(W/m)), the LP bound is sandwiched T* ≤
// LB, segment work tiles the task exactly, and generation is
// byte-deterministic in the seed.
func (s Suite) DAG1(ctx context.Context) *Table {
	t := newTable("DAG1", "machines", "edge prob", "trials", "max makespan/LB", "max T*/LB", "max segments")
	rng := rand.New(rand.NewSource(s.Seed + 11))
	type shape struct {
		m    int
		prob float64
	}
	shapes := []shape{{2, 0.2}, {4, 0.4}, {8, 0.6}}
	if s.Quick {
		shapes = []shape{{2, 0.2}, {8, 0.6}}
	}
	for _, sh := range shapes {
		if ctx.Err() != nil {
			return t
		}
		trials := s.trials(8)
		var maxRatio, maxTstar float64
		maxSegs, conserved := 0, true
		for k := 0; k < trials; k++ {
			if ctx.Err() != nil {
				return t
			}
			cfg := dagConfig(rng, sh.m, 16+rng.Intn(25), sh.prob, false)
			task, err := workload.GenerateDAG(cfg)
			if err != nil {
				t.CheckFail(fmt.Sprintf("m=%d p=%.1f generate", sh.m, sh.prob), err.Error())
				continue
			}
			c, err := task.Compile()
			if err != nil {
				t.CheckFail(fmt.Sprintf("m=%d p=%.1f compile", sh.m, sh.prob), err.Error())
				continue
			}
			res, err := approx.TwoApprox(ctx, c.Instance, nil)
			if err != nil {
				continue
			}
			if err := c.CheckMakespan(res.Makespan); err != nil {
				t.CheckFail(fmt.Sprintf("m=%d p=%.1f certificate", sh.m, sh.prob), err.Error())
			}
			if r := float64(res.Makespan) / float64(c.LowerBound); r > maxRatio {
				maxRatio = r
			}
			if r := float64(res.LPBound) / float64(c.LowerBound); r > maxTstar {
				maxTstar = r
			}
			if c.Segments > maxSegs {
				maxSegs = c.Segments
			}
			var segWork int64
			for j := 0; j < c.Instance.N(); j++ {
				segWork += c.Instance.Proc[j][0]
			}
			if segWork != task.TotalWork() {
				conserved = false
			}
		}
		t.AddRow(sh.m, fmt.Sprintf("%.1f", sh.prob), trials, maxRatio, maxTstar, maxSegs)
		// Never vacuous: a zero max ratio means no trial reached the solver.
		t.CheckGE(fmt.Sprintf("m=%d p=%.1f solved", sh.m, sh.prob), maxRatio, 1e-9, 0)
		t.CheckLE(fmt.Sprintf("m=%d p=%.1f makespan vs 2·LB", sh.m, sh.prob), maxRatio, 2, 1e-9)
		t.CheckLE(fmt.Sprintf("m=%d p=%.1f T* vs LB", sh.m, sh.prob), maxTstar, 1, 1e-9)
		t.CheckEq(fmt.Sprintf("m=%d p=%.1f work conserved", sh.m, sh.prob), conserved, true)
	}

	// Determinism: the same config byte-reproduces the same task.
	cfg := dagConfig(rng, 4, 24, 0.4, true)
	var a, b bytes.Buffer
	ta, errA := workload.GenerateDAG(cfg)
	tb, errB := workload.GenerateDAG(cfg)
	if errA != nil || errB != nil {
		t.CheckFail("deterministic generation", fmt.Sprintf("%v / %v", errA, errB))
	} else if dag.Encode(&a, ta) != nil || dag.Encode(&b, tb) != nil {
		t.CheckFail("deterministic generation", "encode failed")
	} else {
		t.CheckEq("deterministic generation", bytes.Equal(a.Bytes(), b.Bytes()), true)
	}
	t.Notes = append(t.Notes,
		"LB = max(critical path, ceil(W/m)) — the compile-time certificate is against the DAG's own lower bound,",
		"so the 2× claim also holds against any schedule of the original precedence-constrained task")
	return t
}

// DAG2 sweeps one memory-weighted task across a descending budget
// ladder: every partition must respect its budget (maxLive ≤ B), tile
// the node set exactly, and — because a node whose subtree exceeds a
// tight budget also exceeds every tighter one — tightening the budget
// can only add cuts, never merge segments.
func (s Suite) DAG2(ctx context.Context) *Table {
	t := newTable("DAG2", "budget", "segments", "maxLive", "work tiled")
	rng := rand.New(rand.NewSource(s.Seed + 12))
	nodes := 48
	if s.Quick {
		nodes = 28
	}
	task, err := workload.GenerateDAG(dagConfig(rng, 4, nodes, 0.35, true))
	if err != nil {
		t.CheckFail("generate", err.Error())
		return t
	}
	var largest, total int64
	for _, n := range task.Nodes {
		if n.Mem > largest {
			largest = n.Mem
		}
		total += n.Mem
	}
	budgets := []int64{total, total / 2, total / 4, total / 8, largest}
	prev := -1
	for _, b := range budgets {
		if ctx.Err() != nil {
			return t
		}
		if b < largest {
			b = largest // below the largest node nothing validates
		}
		task.MemBudget = b
		p, err := task.Partition()
		if err != nil {
			t.CheckFail(fmt.Sprintf("B=%d partition", b), err.Error())
			continue
		}
		var segWork int64
		covered := 0
		for _, seg := range p.Segments {
			segWork += seg.Work
			covered += len(seg.Nodes)
		}
		tiled := segWork == task.TotalWork() && covered == len(task.Nodes)
		t.AddRow(b, len(p.Segments), p.MaxLive, tiled)
		t.CheckLE(fmt.Sprintf("B=%d maxLive", b), float64(p.MaxLive), float64(b), 0)
		t.CheckEq(fmt.Sprintf("B=%d tiles the task", b), tiled, true)
		if prev >= 0 {
			t.CheckGE(fmt.Sprintf("B=%d segments vs looser budget", b), float64(len(p.Segments)), float64(prev), 0)
		}
		prev = len(p.Segments)
	}
	t.Notes = append(t.Notes,
		"budgets descend from the task's total memory to its largest node — the tightest admissible budget")
	return t
}

// DAG3 solves the compiled memcap annotations: compiling with a budget
// yields a Model 1 instance (uniform per-machine budgets, segments
// resident at their maxLive), and Theorem VI.1's bicriteria factors
// must hold on every fallback-free rounding, as in MC1.
func (s Suite) DAG3(ctx context.Context) *Table {
	t := newTable("DAG3", "trials", "solved", "fallback-free", "max load factor", "max mem factor")
	rng := rand.New(rand.NewSource(s.Seed + 13))
	trials := s.trials(8)
	solved, clean := 0, 0
	var maxLoad, maxMem float64
	for k := 0; k < trials; k++ {
		if ctx.Err() != nil {
			return t
		}
		task, err := workload.GenerateDAG(dagConfig(rng, 3+rng.Intn(4), 20+rng.Intn(21), 0.35, true))
		if err != nil {
			continue
		}
		c, err := task.Compile()
		if err != nil || c.Memory1 == nil {
			continue
		}
		res, err := memcap.SolveModel1(ctx, c.Memory1)
		if err != nil {
			continue
		}
		solved++
		if res.Fallbacks > 0 {
			continue
		}
		clean++
		if res.LoadFactor > maxLoad {
			maxLoad = res.LoadFactor
		}
		if res.MemFactor > maxMem {
			maxMem = res.MemFactor
		}
	}
	t.AddRow(trials, solved, clean, maxLoad, maxMem)
	t.CheckGE("solved", float64(solved), 1, 0)
	// The factor claims must never pass vacuously (cf. MC1).
	t.CheckGE("fallback-free", float64(clean), 1, 0)
	t.CheckLE("load factor", maxLoad, 3, 1e-7)
	t.CheckLE("mem factor", maxMem, 3, 1e-7)
	t.Notes = append(t.Notes,
		"segments are resident at their maxLive wherever they run — the compile emits uniform Model 1 rows")
	return t
}
