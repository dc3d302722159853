package unrelated

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"hsp/internal/model"
	"hsp/internal/sched"
)

func randInstance(rng *rand.Rand, n, m int, forbid float64) *Instance {
	in := &Instance{P: make([][]int64, n)}
	for j := 0; j < n; j++ {
		row := make([]int64, m)
		allowed := false
		for i := 0; i < m; i++ {
			if rng.Float64() < forbid {
				row[i] = model.Infinity
			} else {
				row[i] = int64(1 + rng.Intn(30))
				allowed = true
			}
		}
		if !allowed {
			row[rng.Intn(m)] = int64(1 + rng.Intn(30))
		}
		in.P[j] = row
	}
	return in
}

func TestExampleII1Projection(t *testing.T) {
	// The unrelated projection of Example II.1 has optimal makespan 3.
	in := FromProjection(model.ExampleII1().UnrelatedProjection())
	_, opt, err := ExactSmall(in)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 3 {
		t.Fatalf("opt = %d, want 3", opt)
	}
}

func TestExampleV1Projection(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		in := FromProjection(model.ExampleV1(n).UnrelatedProjection())
		_, opt, err := ExactSmall(in)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if want := int64(2*n - 3); opt != want {
			t.Fatalf("n=%d: opt = %d, want %d", n, opt, want)
		}
	}
}

func TestLSTWithinTwiceLP(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randInstance(rng, 1+rng.Intn(14), 2+rng.Intn(5), 0.2)
		assign, lpT, err := LST(context.Background(), in, nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for j, i := range assign {
			if i < 0 || in.P[j][i] >= model.Infinity {
				t.Logf("seed %d: job %d assigned to invalid machine %d", seed, j, i)
				return false
			}
		}
		mk := in.Makespan(assign)
		if mk > 2*lpT {
			t.Logf("seed %d: makespan %d > 2·T* = %d", seed, mk, 2*lpT)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestLSTVersusExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		in := randInstance(rng, 1+rng.Intn(8), 2+rng.Intn(3), 0.15)
		assign, lpT, err := LST(context.Background(), in, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, opt, err := ExactSmall(in)
		if err != nil {
			t.Fatal(err)
		}
		mk := in.Makespan(assign)
		if lpT > opt {
			t.Fatalf("trial %d: LP bound %d exceeds OPT %d", trial, lpT, opt)
		}
		if mk > 2*opt {
			t.Fatalf("trial %d: LST makespan %d > 2·OPT = %d", trial, mk, 2*opt)
		}
		if mk < opt {
			t.Fatalf("trial %d: makespan %d below OPT %d (exact solver wrong)", trial, mk, opt)
		}
	}
}

func TestMinFeasibleTMatchesExactLowerBound(t *testing.T) {
	// For identical machines the LP bound equals max(max p, ceil(Σp/m)).
	in := &Instance{P: [][]int64{{5, 5}, {5, 5}, {8, 8}}}
	_, T, err := LST(context.Background(), in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if T != 9 { // ceil(18/2) = 9 ≥ 8
		t.Fatalf("T* = %d, want 9", T)
	}
}

func TestLPTBaseline(t *testing.T) {
	in := &Instance{P: [][]int64{{4, 4}, {3, 3}, {2, 2}, {2, 2}}}
	assign, mk := LPT(in)
	if mk > 7 { // LPT on identical machines: loads 4+2, 3+2
		t.Fatalf("LPT makespan = %d, assign=%v", mk, assign)
	}
}

func TestNoUsableMachine(t *testing.T) {
	in := &Instance{P: [][]int64{{model.Infinity, model.Infinity}}}
	if _, _, err := LST(context.Background(), in, nil); err == nil {
		t.Fatal("unschedulable job accepted")
	}
}

func TestScheduleAssignmentValid(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	in := randInstance(rng, 10, 3, 0)
	assign, _, err := LST(context.Background(), in, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := ScheduleAssignment(in, assign)
	demand := make([]int64, in.N())
	allowed := make([][]bool, in.N())
	for j, i := range assign {
		demand[j] = in.P[j][i]
		allowed[j] = make([]bool, in.M())
		allowed[j][i] = true
	}
	if err := s.Validate(sched.Requirement{Demand: demand, Allowed: allowed}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Migrations != 0 || st.Preemptions != 0 {
		t.Fatalf("nonpreemptive schedule has events: %+v", st)
	}
}

func TestEmptyInstance(t *testing.T) {
	in := &Instance{}
	if a, opt, err := ExactSmall(in); err != nil || opt != 0 || len(a) != 0 {
		t.Fatalf("empty: %v %v %v", a, opt, err)
	}
	if a, lpT, err := LST(context.Background(), in, nil); err != nil || lpT != 1 || len(a) != 0 {
		t.Fatalf("empty LST: %v %v %v", a, lpT, err)
	}
}

func TestRoundVertexRejectsNonVertex(t *testing.T) {
	// Uniform spread over 3 machines for 4 jobs cannot be matched: the
	// matching requires at most m fractional jobs, 4 > 3.
	in := &Instance{P: [][]int64{
		{2, 2, 2}, {2, 2, 2}, {2, 2, 2}, {2, 2, 2},
	}}
	x := make([][]float64, 3) // [machine][job]
	for i := range x {
		x[i] = []float64{1.0 / 3, 1.0 / 3, 1.0 / 3, 1.0 / 3}
	}
	if _, err := RoundVertex(in, 3, x); err == nil {
		t.Fatal("non-vertex fractional solution rounded without error")
	}
}
