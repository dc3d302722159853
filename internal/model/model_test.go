package model

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"hsp/internal/laminar"
)

func TestValidateMonotonicity(t *testing.T) {
	f := laminar.SemiPartitioned(2)
	in := New(f)
	g := f.Roots()[0]
	s0 := f.Singleton(0)
	// Singleton time larger than the parent's time violates monotonicity.
	in.AddJobMap(map[int]int64{g: 1, s0: 5})
	if err := in.Validate(); err == nil || !strings.Contains(err.Error(), "monotonicity") {
		t.Fatalf("err = %v, want monotonicity violation", err)
	}
}

func TestValidateRejectsBadJobs(t *testing.T) {
	f := laminar.SemiPartitioned(2)

	in := New(f)
	in.Proc = append(in.Proc, []int64{1}) // wrong arity
	if err := in.Validate(); err == nil {
		t.Fatal("arity mismatch accepted")
	}

	in2 := New(f)
	in2.AddJobMap(map[int]int64{}) // no admissible set
	if err := in2.Validate(); err == nil || !strings.Contains(err.Error(), "admissible") {
		t.Fatalf("err = %v", err)
	}

	in3 := New(f)
	in3.AddJob([]int64{-1, 1, 1})
	if err := in3.Validate(); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("err = %v", err)
	}
}

func TestExampleII1(t *testing.T) {
	in := ExampleII1()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.N() != 3 || in.M() != 2 {
		t.Fatalf("n=%d m=%d", in.N(), in.M())
	}
	// The unrelated projection must price job 2 (index) at 2 on both
	// machines, and jobs 0/1 at 1 on their own machine, Infinity elsewhere.
	pu := in.UnrelatedProjection()
	if pu[2][0] != 2 || pu[2][1] != 2 {
		t.Fatalf("projection of job 3: %v", pu[2])
	}
	if pu[0][0] != 1 || pu[0][1] < Infinity {
		t.Fatalf("projection of job 1: %v", pu[0])
	}
}

func TestExampleV1(t *testing.T) {
	for _, n := range []int{3, 5, 10} {
		in := ExampleV1(n)
		if err := in.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if in.N() != n || in.M() != n-1 {
			t.Fatalf("n=%d: got n=%d m=%d", n, in.N(), in.M())
		}
	}
}

func TestAssignmentCheck(t *testing.T) {
	in := ExampleII1()
	f := in.Family
	g := f.Roots()[0]
	good := Assignment{f.Singleton(0), f.Singleton(1), g}
	if err := good.Check(in, 2); err != nil {
		t.Fatalf("paper's optimal assignment rejected at T=2: %v", err)
	}
	if err := good.Check(in, 1); err == nil {
		t.Fatal("T=1 accepted; job 3 needs 2 units")
	}
	// Overload one machine: both unit jobs plus job 3 pinned to machine 0.
	bad := Assignment{f.Singleton(0), f.Singleton(1), f.Singleton(0)}
	if err := bad.Check(in, 2); err == nil || !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("err = %v, want overload", err)
	}
	// Inadmissible assignment: job 0 on machine 1.
	inadm := Assignment{f.Singleton(1), f.Singleton(1), g}
	if err := inadm.Check(in, 10); err == nil || !strings.Contains(err.Error(), "inadmissible") {
		t.Fatalf("err = %v", err)
	}
	short := Assignment{0}
	if err := short.Check(in, 10); err == nil {
		t.Fatal("short assignment accepted")
	}
	oob := Assignment{99, 0, 0}
	if err := oob.Check(in, 10); err == nil {
		t.Fatal("out-of-range set accepted")
	}
}

func TestVolumesAndRequirement(t *testing.T) {
	in := ExampleII1()
	f := in.Family
	g := f.Roots()[0]
	a := Assignment{f.Singleton(0), f.Singleton(1), g}
	vol := a.Volumes(in)
	if vol[g] != 2 || vol[f.Singleton(0)] != 1 || vol[f.Singleton(1)] != 1 {
		t.Fatalf("volumes = %v", vol)
	}
	demand, allowed := a.Requirement(in)
	if demand[2] != 2 || !allowed[2][0] || !allowed[2][1] {
		t.Fatalf("job 3 requirement: demand=%v allowed=%v", demand[2], allowed[2])
	}
	if allowed[0][1] {
		t.Fatal("job 1 must not be allowed on machine 1")
	}
}

func TestWithSingletons(t *testing.T) {
	f := laminar.MustNew(4, [][]int{{0, 1, 2, 3}, {0, 1}})
	in := New(f)
	in.AddJob([]int64{10, 6}) // root: 10, {0,1}: 6
	ex := in.WithSingletons()
	if ex == in {
		t.Fatal("expected a new instance")
	}
	if err := ex.Validate(); err != nil {
		t.Fatal(err)
	}
	nf := ex.Family
	// Machines 0,1 inherit 6 from {0,1}; machines 2,3 inherit 10 from root.
	if ex.Proc[0][nf.Singleton(0)] != 6 || ex.Proc[0][nf.Singleton(3)] != 10 {
		t.Fatalf("inherited times: %v", ex.Proc[0])
	}
	// Instances over complete families are returned unchanged.
	if again := ex.WithSingletons(); again != ex {
		t.Fatal("WithSingletons not idempotent")
	}
}

func TestMinProcAndBounds(t *testing.T) {
	in := ExampleII1()
	v, s := in.MinProc(2)
	if v != 2 || s < 0 {
		t.Fatalf("MinProc(job3) = %d, %d", v, s)
	}
	if ub := in.TrivialUpperBound(); ub != 1+1+2 {
		t.Fatalf("ub = %d, want 4", ub)
	}
	if lb := in.LowerBoundSimple(); lb != 2 {
		t.Fatalf("lb = %d, want 2", lb)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := ExampleII1()
	var buf bytes.Buffer
	if err := Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.N() != in.N() || out.M() != in.M() || out.Family.Len() != in.Family.Len() {
		t.Fatalf("round trip changed dimensions")
	}
	for j := range in.Proc {
		for s := range in.Proc[j] {
			if in.Proc[j][s] != out.Proc[j][s] {
				t.Fatalf("Proc[%d][%d]: %d != %d", j, s, in.Proc[j][s], out.Proc[j][s])
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Overlapping, non-laminar sets.
	bad := `{"machines":3,"sets":[[0,1],[1,2]],"proc":[[1,1]]}`
	if _, err := Decode(strings.NewReader(bad)); err == nil {
		t.Fatal("non-laminar family accepted")
	}
	// Arity mismatch.
	bad2 := `{"machines":2,"sets":[[0,1]],"proc":[[1,2]]}`
	if _, err := Decode(strings.NewReader(bad2)); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

// TestDecodeCapsBeforeAllocating: the machine count and the set count
// are checked before laminar.New sizes its bitsets and tables by them, so
// a tiny body asking for millions of machines (or more sets than any
// laminar family can hold) is rejected at the cost of decoding its JSON.
func TestDecodeCapsBeforeAllocating(t *testing.T) {
	manySets := strings.Repeat("[0],", 2*MaxMachines)
	cases := map[string]string{
		"machines=1e7":     `{"machines":10000000,"sets":[[0]],"proc":[[1]]}`,
		"machines>cap":     fmt.Sprintf(`{"machines":%d,"sets":[[0]],"proc":[[1]]}`, MaxMachines+1),
		"machines=0":       `{"machines":0,"sets":[[0]],"proc":[[1]]}`,
		"machines<0":       `{"machines":-5,"sets":[[0]],"proc":[[1]]}`,
		"sets>2m-1":        `{"machines":2,"sets":[[0,1],[0],[1],[0]],"proc":[[1,1,1,1]]}`,
		"sets>2m-1 at cap": fmt.Sprintf(`{"machines":%d,"sets":[%s[0]],"proc":[]}`, MaxMachines, manySets),
	}
	const budget = 2 << 20 // bytes; decoding the largest body takes under 1 MiB
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decode(strings.NewReader(body))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("accepted %d-byte body", len(body))
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > budget {
				t.Fatalf("rejecting a %d-byte body allocated %d bytes (budget %d): %v", len(body), got, budget, err)
			}
		})
	}
}
