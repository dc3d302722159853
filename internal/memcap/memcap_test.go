package memcap

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hsp/internal/laminar"
	"hsp/internal/model"
	"hsp/internal/sched"
)

func randomModel1(rng *rand.Rand) *Model1 {
	m := 2 + rng.Intn(5)
	f := laminar.SemiPartitioned(m)
	in := model.New(f)
	n := 2 + rng.Intn(10)
	sizes := make([][]int64, n)
	for j := 0; j < n; j++ {
		base := int64(1 + rng.Intn(20))
		proc := make([]int64, f.Len())
		for s := range proc {
			if f.IsSingleton(s) {
				proc[s] = base
			} else {
				proc[s] = base + int64(rng.Intn(3))
			}
		}
		in.AddJob(proc)
		row := make([]int64, m)
		for i := range row {
			row[i] = int64(1 + rng.Intn(8))
		}
		sizes[j] = row
	}
	budget := make([]int64, m)
	for i := range budget {
		// Generous enough that the fractional relaxation is feasible but
		// tight enough to bind: roughly half the total size mass per machine.
		var tot int64
		for j := 0; j < n; j++ {
			tot += sizes[j][i]
		}
		budget[i] = tot/2 + 8
	}
	return &Model1{In: in, Budget: budget, Size: sizes}
}

// Theorem VI.1 as a property: makespan ≤ 3·T_LP and memory ≤ 3·B_i
// whenever the rounding needed no fallback (and in practice also with).
func TestTheoremVI1Property(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m1 := randomModel1(rng)
		res, err := SolveModel1(context.Background(), m1, nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if res.LoadFactor > 3+1e-9 {
			t.Logf("seed %d: load factor %g > 3 (fallbacks=%d)", seed, res.LoadFactor, res.Fallbacks)
			return false
		}
		if res.MemFactor > 3+1e-9 {
			t.Logf("seed %d: memory factor %g > 3 (fallbacks=%d)", seed, res.MemFactor, res.Fallbacks)
			return false
		}
		demand, allowed := res.Assignment.Requirement(res.Instance)
		if err := res.Schedule.Validate(sched.Requirement{Demand: demand, Allowed: allowed}); err != nil {
			t.Logf("seed %d: invalid schedule: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func randomModel2(rng *rand.Rand, branching ...int) *Model2 {
	f, err := laminar.Hierarchy(branching...)
	if err != nil {
		panic(err)
	}
	in := model.New(f)
	n := 3 + rng.Intn(12)
	sizes := make([]float64, n)
	maxLevel := f.Levels()
	for j := 0; j < n; j++ {
		base := int64(1 + rng.Intn(15))
		step := int64(rng.Intn(3))
		proc := make([]int64, f.Len())
		for s := range proc {
			proc[s] = base + step*int64(maxLevel-f.Level(s))
		}
		in.AddJob(proc)
		sizes[j] = 0.1 + 0.9*rng.Float64()
	}
	return &Model2{In: in, JobSize: sizes, Mu: 2 + rng.Float64()}
}

// Theorem VI.3 as a property: both factors stay within σ = 2 + H_k.
func TestTheoremVI3Property(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var m2 *Model2
		if rng.Intn(2) == 0 {
			m2 = randomModel2(rng, 2, 2)
		} else {
			m2 = randomModel2(rng, 2, 2, 2)
		}
		res, err := SolveModel2(context.Background(), m2, nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		sigma := Sigma(m2.In.Family.Levels())
		if res.LoadFactor > sigma+1e-9 {
			t.Logf("seed %d: load factor %g > σ=%g (fallbacks=%d)", seed, res.LoadFactor, sigma, res.Fallbacks)
			return false
		}
		if res.MemFactor > sigma+1e-9 {
			t.Logf("seed %d: memory factor %g > σ=%g (fallbacks=%d)", seed, res.MemFactor, sigma, res.Fallbacks)
			return false
		}
		demand, allowed := res.Assignment.Requirement(res.Instance)
		return res.Schedule.Validate(sched.Requirement{Demand: demand, Allowed: allowed}) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSigma(t *testing.T) {
	// σ(2) = 2 + 1 + 1/2 = 3.5; σ(1) = 3.
	if s := Sigma(1); math.Abs(s-3) > 1e-12 {
		t.Fatalf("Sigma(1) = %g", s)
	}
	if s := Sigma(2); math.Abs(s-3.5) > 1e-12 {
		t.Fatalf("Sigma(2) = %g", s)
	}
}

func TestModel1Validation(t *testing.T) {
	f := laminar.SemiPartitioned(2)
	in := model.New(f)
	in.AddJobMap(map[int]int64{f.Singleton(0): 2})
	m1 := &Model1{In: in, Budget: []int64{1}, Size: [][]int64{{1, 1}}}
	if err := m1.Validate(); err == nil {
		t.Fatal("budget arity mismatch accepted")
	}
	m1.Budget = []int64{1, 0}
	if err := m1.Validate(); err == nil {
		t.Fatal("zero budget accepted")
	}
	m1.Budget = []int64{1, 1}
	m1.Size = [][]int64{{1, -1}}
	if err := m1.Validate(); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestModel2Validation(t *testing.T) {
	f := laminar.SemiPartitioned(2)
	in := model.New(f)
	in.AddJobMap(map[int]int64{f.Singleton(0): 2, f.Roots()[0]: 2})
	m2 := &Model2{In: in, JobSize: []float64{0.5}, Mu: 0.5}
	if err := m2.Validate(); err == nil {
		t.Fatal("µ ≤ 1 accepted")
	}
	m2.Mu = 2
	m2.JobSize = []float64{1.5}
	if err := m2.Validate(); err == nil {
		t.Fatal("job size > 1 accepted")
	}
	// Non-tree family.
	nt := laminar.Singletons(2)
	in2 := model.New(nt)
	in2.AddJobMap(map[int]int64{0: 1})
	m2b := &Model2{In: in2, JobSize: []float64{0.5}, Mu: 2}
	if err := m2b.Validate(); err == nil {
		t.Fatal("forest family accepted for model 2")
	}
}

func TestModel1InfeasibleMemory(t *testing.T) {
	f := laminar.SemiPartitioned(2)
	in := model.New(f)
	root := f.Roots()[0]
	in.AddJobMap(map[int]int64{root: 1, f.Singleton(0): 1, f.Singleton(1): 1})
	// The job's size exceeds every budget: no variable survives pruning.
	m1 := &Model1{In: in, Budget: []int64{1, 1}, Size: [][]int64{{5, 5}}}
	if _, err := SolveModel1(context.Background(), m1, nil); err == nil {
		t.Fatal("memory-infeasible instance accepted")
	}
}

func TestModel1TightExample(t *testing.T) {
	// Two machines, two unit jobs of size 2 each, budget 2 per machine:
	// feasible by pinning one job per machine.
	f := laminar.SemiPartitioned(2)
	in := model.New(f)
	root := f.Roots()[0]
	for j := 0; j < 2; j++ {
		in.AddJobMap(map[int]int64{root: 2, f.Singleton(0): 2, f.Singleton(1): 2})
	}
	m1 := &Model1{
		In:     in,
		Budget: []int64{2, 2},
		Size:   [][]int64{{2, 2}, {2, 2}},
	}
	res, err := SolveModel1(context.Background(), m1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TLP != 2 {
		t.Fatalf("T_LP = %d, want 2", res.TLP)
	}
	if res.MemFactor > 3 {
		t.Fatalf("memory factor %g > 3", res.MemFactor)
	}
}
