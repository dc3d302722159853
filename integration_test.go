package hsp_test

import (
	"context"
	"testing"

	"hsp"
)

// TestEveryTopologyEndToEnd pushes one instance of every topology through
// the full pipeline: generate → validate → LP bound → solve (certified and
// best) → schedule validation → simulation, cross-checking the invariants
// that tie the pieces together.
func TestEveryTopologyEndToEnd(t *testing.T) {
	topologies := []struct {
		name string
		cfg  hsp.WorkloadConfig
	}{
		{"flat", hsp.WorkloadConfig{Topology: hsp.TopoFlat, Machines: 4}},
		{"singletons", hsp.WorkloadConfig{Topology: hsp.TopoSingletons, Machines: 4}},
		{"semi-partitioned", hsp.WorkloadConfig{Topology: hsp.TopoSemiPartitioned, Machines: 5}},
		{"clustered", hsp.WorkloadConfig{Topology: hsp.TopoClustered, Clusters: 2, ClusterSize: 3}},
		{"smp-cmp", hsp.WorkloadConfig{Topology: hsp.TopoSMPCMP, Branching: []int{2, 2, 2}}},
		{"random", hsp.WorkloadConfig{Topology: hsp.TopoRandomLaminar, Machines: 7}},
	}
	for _, tc := range topologies {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Jobs = 12
			cfg.Seed = 42
			cfg.MinWork, cfg.MaxWork = 5, 40
			cfg.SpeedSpread = 0.3
			cfg.OverheadPerLevel = 0.25
			in, err := hsp.GenerateWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := in.Validate(); err != nil {
				t.Fatal(err)
			}

			lb, err := hsp.LowerBoundLP(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			res, err := hsp.Solve(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			if res.LPBound != lb {
				// Adding singletons cannot change the relaxation's optimum:
				// singleton times inherit from minimal covering sets, so any
				// singleton mass is also valid mass on the covering set.
				t.Logf("note: LP bound moved %d -> %d after singleton extension", lb, res.LPBound)
				if res.LPBound > lb {
					t.Fatalf("singleton extension raised the LP bound: %d > %d", res.LPBound, lb)
				}
			}
			if res.Makespan > 2*res.LPBound {
				t.Fatalf("guarantee violated: %d > 2·%d", res.Makespan, res.LPBound)
			}
			if err := hsp.ValidateSchedule(res.Instance, res.Assignment, res.Schedule); err != nil {
				t.Fatal(err)
			}

			best, err := hsp.SolveBest(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			if best.Makespan > res.Makespan {
				t.Fatalf("SolveBest regressed: %d > %d", best.Makespan, res.Makespan)
			}

			// Simulate the certified schedule; per-job costs must aggregate.
			rep, err := hsp.Simulate(res.Instance.Family, res.Schedule,
				hsp.DefaultCostModel(res.Instance.Family, 2))
			if err != nil {
				t.Fatal(err)
			}
			var perJob int64
			for _, c := range rep.PerJobCost {
				perJob += c
			}
			if perJob != rep.MigrationCost+rep.PreemptCost {
				t.Fatalf("simulation cost accounting broken: %d vs %d",
					perJob, rep.MigrationCost+rep.PreemptCost)
			}

			// Real-time layer: the constructive bracket must be schedulable.
			_, hi, err := hsp.MinFrame(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := hsp.TestSchedulability(context.Background(), in, hi, hsp.RTOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rt.Verdict != hsp.RTSchedulable {
				t.Fatalf("frame %d should be schedulable, got %v", hi, rt.Verdict)
			}
		})
	}
}

// TestStatsAgreeAcrossCountings sanity-checks the two migration-counting
// conventions on solver output: cyclic counts never exceed wall-clock ones.
func TestStatsAgreeAcrossCountings(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		in, err := hsp.GenerateWorkload(hsp.WorkloadConfig{
			Topology: hsp.TopoSemiPartitioned, Machines: 4,
			Jobs: 10, Seed: seed, MinWork: 3, MaxWork: 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := hsp.SolveBest(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		wall := res.Schedule.Stats()
		cyc := res.Schedule.CyclicStats()
		if cyc.Migrations+cyc.Preemptions > wall.Migrations+wall.Preemptions {
			t.Fatalf("seed %d: cyclic events %d exceed wall-clock %d", seed,
				cyc.Migrations+cyc.Preemptions, wall.Migrations+wall.Preemptions)
		}
	}
}

// TestExampleV1ThroughFacade reproduces the gap family end to end at a
// couple of sizes, including schedule construction at the exact optimum.
func TestExampleV1ThroughFacade(t *testing.T) {
	for _, n := range []int{4, 7} {
		in := hsp.ExampleV1(n)
		a, opt, err := hsp.SolveExact(context.Background(), in, 0)
		if err != nil {
			t.Fatal(err)
		}
		if opt != int64(n-1) {
			t.Fatalf("n=%d: OPT = %d, want %d", n, opt, n-1)
		}
		s, err := hsp.BuildSchedule(in, a, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := hsp.ValidateSchedule(in, a, s); err != nil {
			t.Fatal(err)
		}
		// The migratory job visits every machine: m-1 moves.
		st := s.CyclicStats()
		if st.Migrations > in.M()-1 {
			t.Fatalf("n=%d: %d migrations exceed m-1", n, st.Migrations)
		}
	}
}
