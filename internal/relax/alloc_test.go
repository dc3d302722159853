package relax

import (
	"context"
	"math/rand"
	"testing"

	"hsp/internal/laminar"
	"hsp/internal/model"
	"hsp/internal/testenv"
)

// allocRelaxations builds a 12-job instance on a two-level binary
// hierarchy and three relaxations of it: the plain (IP-3) relaxation
// the binary search probes, owned by ws, and both of Section VI's row
// sets: Model 1's memory row per machine, charged by every set
// containing it, under an admission filter, and Model 2's memory row per
// non-root set, charged by that set's own pairs.
func allocRelaxations(t *testing.T, ws *Workspace) (*model.Instance, map[string]*Relaxation) {
	t.Helper()
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
	return in, map[string]*Relaxation{"ip3": ws.relaxation(in), "model1": model1, "model2": model2}
}

// TestProbeRebuildSteadyStateAllocs pins the probe rebuild — enumerating
// the pairs at T, filling every packing and writing the LP into the
// workspace's problem — at zero allocations once the first (largest-T)
// probe has grown the buffers, on all three of allocRelaxations' row
// sets.
func TestProbeRebuildSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are gated by make bench-alloc")
	}
	ws := NewWorkspace()
	in, rs := allocRelaxations(t, ws)
	for _, name := range []string{"ip3", "model1", "model2"} {
		r := rs[name]
		lo, hi := in.LowerBoundSimple(), in.TrivialUpperBound()
		r.Build(hi)
		if !r.Load(ws.Problem()) {
			t.Fatalf("%s: no variable for some job at the trivial upper bound", name)
		}
		allocs := testing.AllocsPerRun(10, func() {
			for _, T := range []int64{hi, lo + (hi-lo)/2, lo} {
				r.Build(T)
				r.Load(ws.Problem())
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warmed probe rebuild allocates %v/op, want 0", name, allocs)
		}
	}
}

// TestVerdictSteadyStateAllocs pins the binary searches' probe,
// Workspace.Verdict, at zero allocations once a first probe at the
// trivial upper bound has grown the buffers: the rebuild, the LP
// verdict, warm or cold, and its checks against the input data. It runs
// on Model 1's and Model 2's memory row sets, as memcap's search probes
// them, and requires the probes to warm-start.
func TestVerdictSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets are gated by make bench-alloc")
	}
	ctx := context.Background()
	for _, name := range []string{"model1", "model2"} {
		ws := NewWorkspace()
		in, rs := allocRelaxations(t, ws)
		r := rs[name]
		lo, hi := in.LowerBoundSimple(), in.TrivialUpperBound()
		if ok, err := ws.Verdict(ctx, r, hi); err != nil || !ok {
			t.Fatalf("%s: warm-up at the trivial upper bound: %v %v", name, ok, err)
		}
		var probeErr error
		allocs := testing.AllocsPerRun(10, func() {
			for _, T := range []int64{hi, lo + (hi-lo)/2, lo + (hi-lo)/4, lo} {
				if _, err := ws.Verdict(ctx, r, T); err != nil {
					probeErr = err
				}
			}
		})
		if probeErr != nil {
			t.Fatal(probeErr)
		}
		if ws.Stats().LP.WarmHits == 0 {
			t.Fatalf("%s: no probe warm-started; test would measure the cold path alone", name)
		}
		if allocs != 0 {
			t.Errorf("%s: warmed Verdict probes allocate %v per 4 probes, want 0", name, allocs)
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
