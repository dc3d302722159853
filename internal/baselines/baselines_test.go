package baselines

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"hsp/internal/exact"
	"hsp/internal/hier"
	"hsp/internal/laminar"
	"hsp/internal/model"
	"hsp/internal/sched"
	"hsp/internal/workload"
)

func randomInstance(rng *rand.Rand) *model.Instance {
	topo := []workload.Topology{workload.SemiPartitioned, workload.Clustered, workload.SMPCMP}[rng.Intn(3)]
	in, err := workload.Generate(workload.Config{
		Topology: topo,
		Machines: 3 + rng.Intn(5),
		Clusters: 2, ClusterSize: 2 + rng.Intn(2),
		Branching:        []int{2, 2},
		Jobs:             3 + rng.Intn(12),
		Seed:             rng.Int63(),
		MinWork:          4,
		MaxWork:          40,
		SpeedSpread:      0.3,
		OverheadPerLevel: 0.4,
	})
	if err != nil {
		panic(err)
	}
	return in
}

// All heuristics must produce schedulable assignments: the claimed
// makespan is exactly realizable by Algorithms 2+3.
func TestHeuristicsProduceSchedulableAssignments(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng).WithSingletons()
		for name, run := range map[string]func(*model.Instance) (*Result, error){
			"lpt":    PartitionedLPT,
			"greedy": GreedyCheapestSet,
			"ls":     GreedyWithLocalSearch,
		} {
			res, err := run(in)
			if err != nil {
				t.Logf("seed %d %s: %v", seed, name, err)
				return false
			}
			s, err := hier.Schedule(in, res.Assignment, res.Makespan)
			if err != nil {
				t.Logf("seed %d %s: unschedulable at claimed makespan: %v", seed, name, err)
				return false
			}
			demand, allowed := res.Assignment.Requirement(in)
			if err := s.Validate(sched.Requirement{Demand: demand, Allowed: allowed}); err != nil {
				t.Logf("seed %d %s: invalid schedule: %v", seed, name, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Local search never worsens the greedy solution, and the greedy never
// beats the exact optimum.
func TestHeuristicOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		in := randomInstance(rng).WithSingletons()
		g, err := GreedyCheapestSet(in)
		if err != nil {
			t.Fatal(err)
		}
		ls, moves := LocalSearch(in, g.Assignment, 0)
		if ls.Makespan > g.Makespan {
			t.Fatalf("trial %d: local search worsened %d -> %d", trial, g.Makespan, ls.Makespan)
		}
		if moves < 0 {
			t.Fatalf("negative move count")
		}
		if in.N() <= 8 {
			_, opt, err := exact.Solve(context.Background(), in, exact.Options{}, nil)
			if err != nil {
				continue
			}
			if ls.Makespan < opt {
				t.Fatalf("trial %d: heuristic %d beats optimum %d", trial, ls.Makespan, opt)
			}
		}
	}
}

func TestPartitionedLPTOnExampleII1(t *testing.T) {
	// Pure partitioning cannot beat 3 on Example II.1 (the unrelated
	// optimum), while the hierarchy-aware greedy finds the migratory 2.
	in := model.ExampleII1()
	lpt, err := PartitionedLPT(in)
	if err != nil {
		t.Fatal(err)
	}
	if lpt.Makespan != 3 {
		t.Fatalf("LPT makespan = %d, want 3", lpt.Makespan)
	}
	g, err := GreedyCheapestSet(in)
	if err != nil {
		t.Fatal(err)
	}
	if g.Makespan != 2 {
		t.Fatalf("greedy makespan = %d, want 2 (assign job 3 globally)", g.Makespan)
	}
}

func TestLPTRequiresSingletons(t *testing.T) {
	in := model.New(laminar.Flat(3))
	in.AddJob([]int64{5})
	if _, err := PartitionedLPT(in); err == nil {
		t.Fatal("flat family accepted")
	}
}

func TestGreedyRejectsUnschedulableJob(t *testing.T) {
	f := laminar.SemiPartitioned(2)
	in := model.New(f)
	proc := make([]int64, f.Len())
	for s := range proc {
		proc[s] = model.Infinity
	}
	in.Proc = append(in.Proc, proc)
	if _, err := GreedyCheapestSet(in); err == nil {
		t.Fatal("unschedulable job accepted")
	}
}

func TestLocalSearchFindsMigration(t *testing.T) {
	// Start from the all-partitioned assignment of Example II.1 (makespan
	// 3); one move (job 3 to the root) reaches the optimum 2.
	in := model.ExampleII1()
	f := in.Family
	start := model.Assignment{f.Singleton(0), f.Singleton(1), f.Singleton(0)}
	res, moves := LocalSearch(in, start, 0)
	if res.Makespan != 2 || moves == 0 {
		t.Fatalf("local search: makespan=%d moves=%d, want 2 with ≥1 move", res.Makespan, moves)
	}
}
