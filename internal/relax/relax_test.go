package relax

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hsp/internal/laminar"
	"hsp/internal/model"
)

// witness solves the relaxation at T on a fresh workspace for its
// fractional solution and fails unless it is feasible.
func witness(in *model.Instance, T int64) (*Fractional, error) {
	ok, fr, err := Feasible(context.Background(), in, T, nil)
	if err == nil && !ok {
		err = fmt.Errorf("no witness at T=%d", T)
	}
	return fr, err
}

func TestExampleII1MinFeasibleT(t *testing.T) {
	// The LP relaxation of Example II.1 is infeasible below T=2: jobs 1,2
	// are forced onto their machines and the root volume constraint gives
	// 4 ≤ 2T.
	in := model.ExampleII1()
	T, err := MinFeasibleT(context.Background(), in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if T != 2 {
		t.Fatalf("T* = %d, want 2", T)
	}
	fr, err := witness(in, T)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Check(in, T, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestExampleV1MinFeasibleT(t *testing.T) {
	for _, n := range []int{3, 5, 9} {
		in := model.ExampleV1(n)
		T, err := MinFeasibleT(context.Background(), in, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if T != int64(n-1) {
			t.Fatalf("n=%d: T* = %d, want %d", n, T, n-1)
		}
		fr, err := witness(in, T)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := fr.Check(in, T, 1e-6); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestFeasibleFastNegative(t *testing.T) {
	in := model.ExampleII1()
	ok, _, err := Feasible(context.Background(), in, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("T=1 reported feasible; job 3 needs 2 units everywhere")
	}
}

func TestMinFeasibleTNoAdmissibleSet(t *testing.T) {
	f := laminar.SemiPartitioned(2)
	in := model.New(f)
	proc := make([]int64, f.Len())
	for s := range proc {
		proc[s] = model.Infinity
	}
	in.Proc = append(in.Proc, proc)
	if _, err := MinFeasibleT(context.Background(), in, nil); err == nil {
		t.Fatal("instance with unschedulable job accepted")
	}
}

func randomInstance(rng *rand.Rand) *model.Instance {
	m := 2 + rng.Intn(6)
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
	n := 1 + rng.Intn(15)
	maxLevel := f.Levels()
	for j := 0; j < n; j++ {
		base := int64(1 + rng.Intn(20))
		step := int64(rng.Intn(3))
		proc := make([]int64, f.Len())
		for s := range proc {
			proc[s] = base + step*int64(maxLevel-f.Level(s))
		}
		in.AddJob(proc)
	}
	return in
}

// Property: the binary search returns a T where the LP is feasible and
// (when T > the simple lower bound) infeasible at T-1.
func TestMinFeasibleTIsMinimal(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng)
		T, err := MinFeasibleT(context.Background(), in, nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		fr, err := witness(in, T)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := fr.Check(in, T, 1e-6); err != nil {
			t.Logf("seed %d: solution check: %v", seed, err)
			return false
		}
		if T > 1 {
			ok, _, err := Feasible(context.Background(), in, T-1, nil)
			if err != nil {
				return false
			}
			if ok {
				t.Logf("seed %d: T-1=%d still feasible", seed, T-1)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Lemma V.1 as a property: push-down preserves feasibility and leaves all
// mass on singletons.
func TestLemmaV1Property(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng).WithSingletons()
		T, err := MinFeasibleT(context.Background(), in, nil)
		if err != nil {
			return false
		}
		fr, err := witness(in, T)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		down, err := PushDown(in, T, fr)
		if err != nil {
			t.Logf("seed %d: pushdown: %v", seed, err)
			return false
		}
		if !down.SingletonOnly(in, 1e-7) {
			t.Logf("seed %d: mass left on non-singletons", seed)
			return false
		}
		if err := down.Check(in, T, 1e-5); err != nil {
			t.Logf("seed %d: pushed-down solution infeasible: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPushDownRequiresCoveringChildren(t *testing.T) {
	// Family {0,1,2},{0} leaves machines 1,2 uncovered by children.
	f := laminar.MustNew(3, [][]int{{0, 1, 2}, {0}})
	in := model.New(f)
	in.AddJob([]int64{3, 3})
	fr := NewFractional(in)
	fr.X[0][0] = 1
	if _, err := PushDown(in, 3, fr); err == nil {
		t.Fatal("push-down accepted a family whose children do not cover")
	}
}

func TestPushDownPreservesAssignmentRows(t *testing.T) {
	in := model.ExampleII1()
	T, err := MinFeasibleT(context.Background(), in, nil)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := witness(in, T)
	if err != nil {
		t.Fatal(err)
	}
	down, err := PushDown(in, T, fr)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < in.N(); j++ {
		sum := 0.0
		for s := range down.X {
			sum += down.X[s][j]
		}
		if math.Abs(sum-1) > 1e-7 {
			t.Fatalf("job %d row sums to %g", j, sum)
		}
	}
}

func TestSlackComputation(t *testing.T) {
	in := model.ExampleII1()
	f := in.Family
	fr := NewFractional(in)
	g := f.Roots()[0]
	fr.X[f.Singleton(0)][0] = 1
	fr.X[f.Singleton(1)][1] = 1
	fr.X[g][2] = 1
	// Root slack at T=2: 2*2 - (1 + 1 + 2) = 0.
	if sl := fr.Slack(in, g, 2); math.Abs(sl) > 1e-9 {
		t.Fatalf("root slack = %g, want 0", sl)
	}
	// Singleton 0 slack at T=2: 2 - 1 = 1.
	if sl := fr.Slack(in, f.Singleton(0), 2); math.Abs(sl-1) > 1e-9 {
		t.Fatalf("singleton slack = %g, want 1", sl)
	}
}

func TestCheckCatchesViolations(t *testing.T) {
	in := model.ExampleII1()
	fr := NewFractional(in)
	// Row sums are zero: must fail.
	if err := fr.Check(in, 2, 1e-9); err == nil {
		t.Fatal("zero solution accepted")
	}
	f := in.Family
	fr.X[f.Singleton(0)][0] = 1
	fr.X[f.Singleton(1)][1] = 1
	fr.X[f.Singleton(0)][2] = 1 // machine 0 overloaded at T=2: 1+2 > 2
	if err := fr.Check(in, 2, 1e-9); err == nil {
		t.Fatal("negative slack accepted")
	}
}
