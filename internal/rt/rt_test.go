package rt

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"hsp/internal/model"
	"hsp/internal/sched"
	"hsp/internal/workload"
)

func TestVerdictString(t *testing.T) {
	for _, v := range []Verdict{Unschedulable, Schedulable, Unknown} {
		if v.String() == "" {
			t.Fatal("empty verdict name")
		}
	}
}

// newTester returns a Tester on a private workspace, failing the test on
// an invalid instance.
func newTester(tb testing.TB, in *model.Instance) *Tester {
	tb.Helper()
	ts, err := NewTester(in, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return ts
}

func TestExampleII1Schedulability(t *testing.T) {
	ts := newTester(t, model.ExampleII1())
	// Frame 1 < LP bound 2: unschedulable with certificate.
	r, err := ts.Test(context.Background(), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Unschedulable || r.LPBound != 2 {
		t.Fatalf("frame 1: %v (T*=%d), want unschedulable with T*=2", r.Verdict, r.LPBound)
	}
	// Frame 2 = the optimum: schedulable — needs the exact search, because
	// the 2-approximation's partitioned rounding cannot beat 3.
	r, err = ts.Test(context.Background(), 2, Options{ExactNodes: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Schedulable || r.Makespan != 2 {
		t.Fatalf("frame 2: %v makespan=%d, want schedulable at 2", r.Verdict, r.Makespan)
	}
	// Frame 3: the constructive pipeline suffices.
	r, err = ts.Test(context.Background(), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Schedulable {
		t.Fatalf("frame 3: %v, want schedulable", r.Verdict)
	}
}

func TestTestReturnsValidPeriodicSchedule(t *testing.T) {
	in, err := workload.Generate(workload.Config{
		Topology: workload.SemiPartitioned, Machines: 4,
		Jobs: 10, Seed: 3, MinWork: 5, MaxWork: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTester(t, in)
	lo, hi, err := ts.MinFrame(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if lo > hi {
		t.Fatalf("bracket inverted: [%d, %d]", lo, hi)
	}
	r, err := ts.Test(context.Background(), hi, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Schedulable {
		t.Fatalf("frame=upper bracket must be schedulable, got %v", r.Verdict)
	}
	demand, allowed := r.Assignment.Requirement(r.Instance)
	if err := r.Schedule.Validate(sched.Requirement{Demand: demand, Allowed: allowed}); err != nil {
		t.Fatal(err)
	}
	// Unrolled over 3 frames the schedule must stay valid with tripled
	// demands on a tripled horizon.
	u := Unroll(r.Schedule, r.Frame, 3)
	for j := range demand {
		demand[j] *= 3
	}
	if err := u.Validate(sched.Requirement{Demand: demand, Allowed: allowed}); err != nil {
		t.Fatalf("unrolled schedule invalid: %v", err)
	}
}

// Trichotomy property: verdicts are consistent with the bracket — below
// the LP bound always unschedulable, at/above the constructive bound
// always schedulable.
func TestTrichotomyProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in, err := workload.Generate(workload.Config{
			Topology: workload.SemiPartitioned,
			Machines: 2 + rng.Intn(4),
			Jobs:     2 + rng.Intn(10),
			Seed:     rng.Int63(),
			MinWork:  3, MaxWork: 30,
		})
		if err != nil {
			return false
		}
		ts, err := NewTester(in, nil)
		if err != nil {
			return false
		}
		lo, hi, err := ts.MinFrame(context.Background())
		if err != nil {
			return false
		}
		if lo > 1 {
			r, err := ts.Test(context.Background(), lo-1, Options{})
			if err != nil || r.Verdict != Unschedulable {
				t.Logf("seed %d: frame %d below LP bound not rejected (%v)", seed, lo-1, r.Verdict)
				return false
			}
		}
		r, err := ts.Test(context.Background(), hi, Options{})
		if err != nil || r.Verdict != Schedulable {
			t.Logf("seed %d: frame %d not schedulable (%v)", seed, hi, err)
			return false
		}
		return r.Makespan <= hi
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUtilization(t *testing.T) {
	in := model.ExampleII1()
	// Cheapest WCETs: 1 + 1 + 2 = 4 over m·F = 2·2.
	if u := Utilization(in, 2); u != 1.0 {
		t.Fatalf("utilization = %v, want 1", u)
	}
	if u := Utilization(in, 4); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
}

func TestTestRejectsBadInput(t *testing.T) {
	in := model.ExampleII1()
	if _, err := newTester(t, in).Test(context.Background(), 0, Options{}); err == nil {
		t.Fatal("zero frame accepted")
	}
	bad := model.New(in.Family)
	bad.Proc = append(bad.Proc, []int64{1}) // arity mismatch
	if _, err := NewTester(bad, nil); err == nil {
		t.Fatal("invalid instance accepted")
	}
}
