package hsp_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"hsp"
)

func TestEndToEndQuickstart(t *testing.T) {
	// Build a 2-node × 2-core cluster, add jobs, solve, validate.
	f, err := hsp.Hierarchy(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := hsp.NewInstance(f)
	root := f.Roots()[0]
	for j := 0; j < 6; j++ {
		proc := make([]int64, f.Len())
		for s := range proc {
			proc[s] = int64(10 + 2*(f.Levels()-f.Level(s)))
		}
		_ = root
		in.AddJob(proc)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := hsp.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan > 2*res.LPBound {
		t.Fatalf("makespan %d > 2·T* = %d", res.Makespan, res.LPBound*2)
	}
	if err := hsp.ValidateSchedule(res.Instance, res.Assignment, res.Schedule); err != nil {
		t.Fatal(err)
	}
}

func TestPaperExampleThroughPublicAPI(t *testing.T) {
	in := hsp.ExampleII1()
	a, opt, err := hsp.SolveExact(context.Background(), in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 2 {
		t.Fatalf("OPT = %d, want 2", opt)
	}
	s, err := hsp.BuildScheduleSemiPartitioned(in, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := hsp.ValidateSchedule(in, a, s); err != nil {
		t.Fatal(err)
	}
	lb, err := hsp.LowerBoundLP(context.Background(), in)
	if err != nil || lb != 2 {
		t.Fatalf("LP bound = %d (err %v), want 2", lb, err)
	}
}

func TestWorkloadRoundTrip(t *testing.T) {
	in, err := hsp.GenerateWorkload(hsp.WorkloadConfig{
		Topology:  hsp.TopoSMPCMP,
		Branching: []int{2, 2, 2},
		Jobs:      12, Seed: 99, MinWork: 5, MaxWork: 40,
		SpeedSpread: 0.3, OverheadPerLevel: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := hsp.EncodeInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := hsp.DecodeInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != in.N() || back.M() != in.M() {
		t.Fatal("round trip changed dimensions")
	}
	res, err := hsp.Solve(context.Background(), back)
	if err != nil {
		t.Fatal(err)
	}
	if err := hsp.ValidateSchedule(res.Instance, res.Assignment, res.Schedule); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryModelsThroughPublicAPI(t *testing.T) {
	in, err := hsp.GenerateWorkload(hsp.WorkloadConfig{
		Topology: hsp.TopoSemiPartitioned, Machines: 4,
		Jobs: 10, Seed: 5, MinWork: 3, MaxWork: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	m1, err := hsp.AttachMemory1(in, hsp.MemoryConfig{MinSize: 1, MaxSize: 6, BudgetSlack: 1.5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := hsp.SolveMemory1(context.Background(), m1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.LoadFactor > 3 || r1.MemFactor > 3 {
		t.Fatalf("Theorem VI.1 factors exceeded: %+v", r1)
	}

	f, _ := hsp.Hierarchy(2, 2)
	in2 := hsp.NewInstance(f)
	for j := 0; j < 6; j++ {
		proc := make([]int64, f.Len())
		for s := range proc {
			proc[s] = int64(5 + f.Levels() - f.Level(s))
		}
		in2.AddJob(proc)
	}
	m2, err := hsp.AttachMemory2(in2, hsp.MemoryConfig{Mu: 2.5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := hsp.SolveMemory2(context.Background(), m2)
	if err != nil {
		t.Fatal(err)
	}
	if err := hsp.ValidateSchedule(r2.Instance, r2.Assignment, r2.Schedule); err != nil {
		t.Fatal(err)
	}
}

func TestGeneralMasksThroughPublicAPI(t *testing.T) {
	g := &hsp.GeneralInstance{
		M:    3,
		Sets: [][]int{{0, 1}, {1, 2}, {0}, {1}, {2}},
		Proc: [][]int64{
			{4, 4, 3, 3, 4},
			{5, 4, 5, 4, 3},
		},
	}
	res, err := hsp.SolveGeneral(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan > 2*res.LPBound {
		t.Fatalf("LST guarantee violated: %d > 2·%d", res.Makespan, res.LPBound)
	}
}

func TestSolveBestNeverWorseThanSolve(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		in, err := hsp.GenerateWorkload(hsp.WorkloadConfig{
			Topology:  hsp.TopoSMPCMP,
			Branching: []int{2, 2},
			Jobs:      9, Seed: seed, MinWork: 5, MaxWork: 40,
			SpeedSpread: 0.3, OverheadPerLevel: 0.4,
		})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := hsp.Solve(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		best, err := hsp.SolveBest(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if best.Makespan > plain.Makespan {
			t.Fatalf("seed %d: SolveBest %d worse than Solve %d", seed, best.Makespan, plain.Makespan)
		}
		if best.Makespan > 2*best.LPBound {
			t.Fatalf("seed %d: certificate broken: %d > 2·%d", seed, best.Makespan, best.LPBound)
		}
		if err := hsp.ValidateSchedule(best.Instance, best.Assignment, best.Schedule); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestFamilyConstructors(t *testing.T) {
	if f := hsp.Flat(4); f.Len() != 1 {
		t.Fatal("flat family wrong")
	}
	if f := hsp.Singletons(4); f.Len() != 4 {
		t.Fatal("singleton family wrong")
	}
	if f := hsp.SemiPartitioned(4); f.Len() != 5 {
		t.Fatal("semi-partitioned family wrong")
	}
	if _, err := hsp.Clustered(0, 4); err == nil {
		t.Fatal("bad clustered accepted")
	}
	if _, err := hsp.NewFamily(3, [][]int{{0, 1}, {1, 2}}); err == nil {
		t.Fatal("non-laminar family accepted")
	}
}

// TestCtxEntryPoints: every context-first entry point answers under
// context.Background() and aborts under a canceled context — the public
// half of the daemon's cancellation contract.
func TestCtxEntryPoints(t *testing.T) {
	in := hsp.ExampleII1()
	bg := context.Background()

	plain, err := hsp.Solve(bg, in)
	if err != nil {
		t.Fatal(err)
	}
	if plain.LPBound != 2 || plain.Makespan > 2*plain.LPBound {
		t.Fatalf("Solve: makespan=%d T*=%d, want T*=2 and makespan ≤ 2·T*",
			plain.Makespan, plain.LPBound)
	}
	if res, err := hsp.SolveBest(bg, in); err != nil || res.Makespan > plain.Makespan {
		t.Fatalf("SolveBest: makespan=%d err=%v (Solve gave %d)", res.Makespan, err, plain.Makespan)
	}
	if _, opt, err := hsp.SolveExact(bg, in, 0); err != nil || opt != 2 {
		t.Fatalf("SolveExact: opt=%d err=%v, want 2/nil", opt, err)
	}
	if lb, err := hsp.LowerBoundLP(bg, in); err != nil || lb != plain.LPBound {
		t.Fatalf("LowerBoundLP: %d err=%v, want %d", lb, err, plain.LPBound)
	}
	if lo, hi, err := hsp.MinFrame(bg, in); err != nil || lo != 2 || hi < lo {
		t.Fatalf("MinFrame: [%d, %d] err=%v, want lower 2", lo, hi, err)
	}

	canceled, cancel := context.WithCancel(bg)
	cancel()
	if _, err := hsp.Solve(canceled, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("Solve under canceled ctx: %v", err)
	}
	if _, err := hsp.SolveBest(canceled, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveBest under canceled ctx: %v", err)
	}
	if _, _, err := hsp.SolveExact(canceled, in, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveExact under canceled ctx: %v", err)
	}
	if _, err := hsp.LowerBoundLP(canceled, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("LowerBoundLP under canceled ctx: %v", err)
	}
	if _, err := hsp.TestSchedulability(canceled, in, 3, hsp.RTOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("TestSchedulability under canceled ctx: %v", err)
	}
	if _, _, err := hsp.MinFrame(canceled, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("MinFrame under canceled ctx: %v", err)
	}
}

// TestMemoryCtxEntryPoints covers the Section VI entry points the same
// way.
func TestMemoryCtxEntryPoints(t *testing.T) {
	in, err := hsp.GenerateWorkload(hsp.WorkloadConfig{
		Topology: hsp.TopoSemiPartitioned, Machines: 4,
		Jobs: 10, Seed: 5, MinWork: 3, MaxWork: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	m1, err := hsp.AttachMemory1(in, hsp.MemoryConfig{MinSize: 1, MaxSize: 6, BudgetSlack: 1.5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r1, err := hsp.SolveMemory1(context.Background(), m1); err != nil || r1.Makespan <= 0 {
		t.Fatalf("SolveMemory1: %+v err=%v", r1, err)
	}

	f, _ := hsp.Hierarchy(2, 2)
	in2 := hsp.NewInstance(f)
	for j := 0; j < 6; j++ {
		proc := make([]int64, f.Len())
		for s := range proc {
			proc[s] = int64(5 + f.Levels() - f.Level(s))
		}
		in2.AddJob(proc)
	}
	m2, err := hsp.AttachMemory2(in2, hsp.MemoryConfig{Mu: 2.5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r2, err := hsp.SolveMemory2(context.Background(), m2); err != nil || r2.Makespan <= 0 {
		t.Fatalf("SolveMemory2: %+v err=%v", r2, err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := hsp.SolveMemory1(canceled, m1); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveMemory1 under canceled ctx: %v", err)
	}
	if _, err := hsp.SolveMemory2(canceled, m2); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveMemory2 under canceled ctx: %v", err)
	}
}
