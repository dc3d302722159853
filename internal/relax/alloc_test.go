package relax

import (
	"math/rand"
	"testing"

	"hsp/internal/laminar"
	"hsp/internal/model"
	"hsp/internal/testenv"
)

// TestProbeRebuildSteadyStateAllocs pins the probe rebuild — enumerating
// the pairs at T, filling every packing and writing the LP into the
// workspace's problem — at zero allocations once the first (largest-T)
// probe has grown the buffers. It covers the plain (IP-3) relaxation the
// binary search probes and both of Section VI's row sets: Model 1's
// memory row per machine, charged by every set containing it, under an
// admission filter, and Model 2's memory row per non-root set, charged
// by that set's own pairs.
func TestProbeRebuildSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are gated by make bench-alloc")
	}
	rng := rand.New(rand.NewSource(5))
	f, err := laminar.Hierarchy(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := model.New(f)
	for j := 0; j < 12; j++ {
		proc := make([]int64, f.Len())
		for s := range proc {
			proc[s] = 1 + rng.Int63n(30)
		}
		in.AddJob(proc)
	}
	nsets := f.Len()
	size := func(j, l int) float64 { return float64(1 + (j+l)%5) }

	model1 := NewRelaxation(in)
	model1.Extra, model1.Size = make([][]int, nsets), size
	model1.Admit = make([]bool, in.N()*nsets)
	for s := 0; s < nsets; s++ {
		for _, i := range f.Machines(s) {
			model1.Extra[s] = append(model1.Extra[s], nsets+i)
		}
		for j := 0; j < in.N(); j++ {
			model1.Admit[j*nsets+s] = (j+s)%3 != 0
		}
	}
	for i := 0; i < f.M(); i++ {
		model1.Packs = append(model1.Packs, Packing{B: 40})
	}

	model2 := NewRelaxation(in)
	model2.Extra, model2.Size = make([][]int, nsets), size
	for s := 0; s < nsets; s++ {
		if f.Parent(s) >= 0 {
			model2.Extra[s] = []int{len(model2.Packs)}
			model2.Packs = append(model2.Packs, Packing{B: 8})
		}
	}

	ws := NewWorkspace()
	for _, c := range []struct {
		name string
		r    *Relaxation
	}{
		{"ip3", ws.relaxation(in)},
		{"model1", model1},
		{"model2", model2},
	} {
		lo, hi := in.LowerBoundSimple(), in.TrivialUpperBound()
		c.r.Build(hi)
		if !c.r.load(ws.Problem()) {
			t.Fatalf("%s: no variable for some job at the trivial upper bound", c.name)
		}
		allocs := testing.AllocsPerRun(10, func() {
			for _, T := range []int64{hi, lo + (hi-lo)/2, lo} {
				c.r.Build(T)
				c.r.load(ws.Problem())
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warmed probe rebuild allocates %v/op, want 0", c.name, allocs)
		}
	}
}

// TestBuildReservesRealEntries pins Build's load-row sizing to the
// entries that exist at T. On a prefix chain {0} ⊂ {0,1} ⊂ … of depth K
// with every job admissible only on {0}, each variable sits on K load
// rows, so the rows hold n·K entries, while the bound n·Σ_s|subtree(s)|
// is n·K(K+1)/2, quadratic in the depth.
func TestBuildReservesRealEntries(t *testing.T) {
	const depth, jobs = 200, 50
	sets := make([][]int, depth)
	for k := range sets {
		for i := 0; i <= k; i++ {
			sets[k] = append(sets[k], i)
		}
	}
	f, err := laminar.New(depth, sets)
	if err != nil {
		t.Fatal(err)
	}
	in := model.New(f)
	for j := 0; j < jobs; j++ {
		proc := make([]int64, f.Len())
		for s := range proc {
			proc[s] = model.Infinity
		}
		proc[0] = int64(1 + j%7)
		in.AddJob(proc)
	}
	r := NewRelaxation(in)
	for _, T := range []int64{in.TrivialUpperBound(), 4, 1} {
		r.Build(T)
		entries, reserved := 0, 0
		for _, pk := range r.Packs {
			entries += len(pk.Idx)
			reserved += cap(pk.Idx)
		}
		if want := len(r.Pairs) * depth; entries != want {
			t.Fatalf("T=%d: load rows hold %d entries, want %d (%d variables × depth %d)", T, entries, want, len(r.Pairs), depth)
		}
		if limit := 2 * jobs * depth; reserved > limit {
			t.Errorf("T=%d: load rows reserve %d entries for %d variables on a depth-%d chain, want at most %d",
				T, reserved, len(r.Pairs), depth, limit)
		}
	}
}
