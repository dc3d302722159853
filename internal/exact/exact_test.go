package exact

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"hsp/internal/hier"
	"hsp/internal/laminar"
	"hsp/internal/model"
	"hsp/internal/relax"
	"hsp/internal/sched"
)

func TestExampleII1Optimal(t *testing.T) {
	in := model.ExampleII1()
	a, opt, err := Solve(context.Background(), in, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 2 {
		t.Fatalf("opt = %d, want 2", opt)
	}
	if err := a.Check(in, opt); err != nil {
		t.Fatal(err)
	}
	// Job 3 must be global in any makespan-2 solution.
	if a[2] != in.Family.Roots()[0] {
		t.Fatalf("job 3 assigned to set %d, want global", a[2])
	}
}

func TestExampleV1Optimal(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		in := model.ExampleV1(n)
		_, opt, err := Solve(context.Background(), in, Options{}, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if want := int64(n - 1); opt != want {
			t.Fatalf("n=%d: opt = %d, want %d", n, opt, want)
		}
	}
}

// bruteForceOpt enumerates every assignment to find the true optimum on
// tiny instances (cross-checks the branch-and-bound pruning).
func bruteForceOpt(in *model.Instance) int64 {
	f := in.Family
	n := in.N()
	best := in.TrivialUpperBound()
	a := make(model.Assignment, n)
	// minimalT computes the smallest T for which a satisfies (2b)-(2c).
	minimalT := func() int64 {
		below := make([]int64, f.Len())
		vol := a.Volumes(in)
		var T int64 = 0
		for _, s := range f.BottomUp() {
			below[s] = vol[s]
			for _, c := range f.Children(s) {
				below[s] += below[c]
			}
			if need := (below[s] + int64(f.Size(s)) - 1) / int64(f.Size(s)); need > T {
				T = need
			}
		}
		for j, s := range a {
			if p := in.Proc[j][s]; p > T {
				T = p
			}
		}
		return T
	}
	var rec func(j int)
	rec = func(j int) {
		if j == n {
			if T := minimalT(); T < best {
				best = T
			}
			return
		}
		for s := 0; s < f.Len(); s++ {
			if !in.Admissible(j, s) {
				continue
			}
			a[j] = s
			rec(j + 1)
		}
	}
	rec(0)
	return best
}

func randomSmallInstance(rng *rand.Rand) *model.Instance {
	m := 2 + rng.Intn(3)
	var f *laminar.Family
	if rng.Intn(2) == 0 {
		f = laminar.SemiPartitioned(m)
	} else {
		var err error
		f, err = laminar.Hierarchy(2, 1+m/2)
		if err != nil {
			panic(err)
		}
	}
	in := model.New(f)
	n := 1 + rng.Intn(5)
	maxLevel := f.Levels()
	for j := 0; j < n; j++ {
		base := int64(1 + rng.Intn(12))
		step := int64(rng.Intn(3))
		proc := make([]int64, f.Len())
		for s := range proc {
			proc[s] = base + step*int64(maxLevel-f.Level(s))
		}
		in.AddJob(proc)
	}
	return in
}

func TestSolveMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomSmallInstance(rng)
		_, opt, err := Solve(context.Background(), in, Options{}, nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want := bruteForceOpt(in)
		if opt != want {
			t.Logf("seed %d: solve=%d brute=%d", seed, opt, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The exact optimum is lower-bounded by the LP relaxation's T* and its
// assignment must be schedulable by Algorithms 2+3 at exactly T=OPT.
func TestSolveConsistentWithLPAndScheduler(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		in := randomSmallInstance(rng)
		a, opt, err := Solve(context.Background(), in, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		lpT, _, err := relax.MinFeasibleT(context.Background(), in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if lpT > opt {
			t.Fatalf("trial %d: LP bound %d > OPT %d", trial, lpT, opt)
		}
		s, err := hier.Schedule(in, a, opt)
		if err != nil {
			t.Fatalf("trial %d: optimal assignment unschedulable: %v", trial, err)
		}
		demand, allowed := a.Requirement(in)
		if err := s.Validate(sched.Requirement{Demand: demand, Allowed: allowed}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestNodeCap(t *testing.T) {
	in := model.ExampleV1(9)
	if _, _, err := Solve(context.Background(), in, Options{MaxNodes: 1}, nil); err == nil {
		t.Fatal("node cap of 1 not enforced")
	}
}

func TestFeasibleAssignmentInfeasibleT(t *testing.T) {
	in := model.ExampleII1()
	_, ok, err := FeasibleAssignment(context.Background(), in, 1, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("T=1 reported feasible")
	}
}
