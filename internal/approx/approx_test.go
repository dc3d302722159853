package approx

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"hsp/internal/exact"
	"hsp/internal/laminar"
	"hsp/internal/model"
	"hsp/internal/sched"
)

func randomInstance(rng *rand.Rand) *model.Instance {
	m := 2 + rng.Intn(7)
	var f *laminar.Family
	var err error
	switch rng.Intn(3) {
	case 0:
		f = laminar.SemiPartitioned(m)
	case 1:
		f, err = laminar.Clustered(2, 1+m/2)
	default:
		f, err = laminar.Hierarchy(2, 1+m/2)
	}
	if err != nil {
		panic(err)
	}
	in := model.New(f)
	n := 1 + rng.Intn(16)
	maxLevel := f.Levels()
	for j := 0; j < n; j++ {
		base := int64(1 + rng.Intn(25))
		step := int64(rng.Intn(4))
		proc := make([]int64, f.Len())
		for s := range proc {
			proc[s] = base + step*int64(maxLevel-f.Level(s))
		}
		in.AddJob(proc)
	}
	return in
}

func TestTwoApproxOnExampleII1(t *testing.T) {
	res, err := TwoApprox(context.Background(), model.ExampleII1(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LPBound != 2 {
		t.Fatalf("LP bound = %d, want 2", res.LPBound)
	}
	if res.Makespan > 2*res.LPBound {
		t.Fatalf("makespan %d exceeds 2·T* = %d", res.Makespan, 2*res.LPBound)
	}
	// The rounding is purely partitioned; on this instance the best
	// partitioned makespan is 3 = OPT(I_u).
	if res.Makespan != 3 {
		t.Fatalf("makespan = %d, want 3 (the unrelated optimum)", res.Makespan)
	}
}

// Theorem V.2 as a property: the algorithm returns a valid schedule of
// makespan ≤ 2·T* ≤ 2·OPT.
func TestTheoremV2Property(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng)
		res, err := TwoApprox(context.Background(), in, nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if res.Makespan > 2*res.LPBound {
			t.Logf("seed %d: makespan %d > 2·T* = %d", seed, res.Makespan, 2*res.LPBound)
			return false
		}
		demand, allowed := res.Assignment.Requirement(res.Instance)
		if err := res.Schedule.Validate(sched.Requirement{Demand: demand, Allowed: allowed}); err != nil {
			t.Logf("seed %d: invalid schedule: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Against the exact optimum on small instances: OPT ≤ ALG ≤ 2·OPT, and the
// LP bound brackets OPT from below.
func TestTwoApproxVersusExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		in := randomInstance(rng)
		if in.N() > 8 {
			continue
		}
		res, err := TwoApprox(context.Background(), in, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, opt, err := exact.Solve(context.Background(), in, exact.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.LPBound > opt {
			t.Fatalf("trial %d: T* = %d > OPT = %d", trial, res.LPBound, opt)
		}
		if res.Makespan > 2*opt {
			t.Fatalf("trial %d: ALG = %d > 2·OPT = %d", trial, res.Makespan, 2*opt)
		}
		if res.Makespan < opt {
			// The rounded schedule is a feasible solution of the (possibly
			// extended) instance; extension with singletons cannot beat OPT
			// because singleton times inherit from covering sets.
			t.Fatalf("trial %d: ALG = %d below OPT = %d", trial, res.Makespan, opt)
		}
	}
}

func TestEightApproxGeneralMasks(t *testing.T) {
	// Two overlapping non-laminar sets {0,1} and {1,2} plus singletons.
	g := &model.GeneralInstance{
		M:    3,
		Sets: [][]int{{0, 1}, {1, 2}, {0}, {1}, {2}},
		Proc: [][]int64{
			{4, 4, 3, 3, 4},
			{5, 4, 5, 4, 3},
			{6, 6, 5, 5, 5},
		},
	}
	res, err := EightApprox(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan > 2*res.LPBound {
		t.Fatalf("makespan %d > 2·LP = %d", res.Makespan, 2*res.LPBound)
	}
	if res.Makespan > 8*res.LPBound { // the paper's end-to-end guarantee
		t.Fatalf("makespan %d > 8·LP = %d", res.Makespan, 8*res.LPBound)
	}
	for j, i := range res.MachineAssign {
		if i < 0 || i >= g.M {
			t.Fatalf("job %d on machine %d", j, i)
		}
	}
}

func TestEightApproxRejectsInvalid(t *testing.T) {
	g := &model.GeneralInstance{
		M:    2,
		Sets: [][]int{{0}, {0, 1}},
		Proc: [][]int64{{1, 0}}, // singleton dearer than superset: p({0})=1 > p({0,1})=0
	}
	if _, err := EightApprox(context.Background(), g); err == nil {
		t.Fatal("monotonicity violation accepted")
	}
}

func TestTwoApproxRejectsInvalidInstance(t *testing.T) {
	f := laminar.SemiPartitioned(2)
	in := model.New(f)
	in.Proc = append(in.Proc, []int64{1}) // arity mismatch
	if _, err := TwoApprox(context.Background(), in, nil); err == nil {
		t.Fatal("invalid instance accepted")
	}
}
