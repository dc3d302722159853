package rt

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hsp/internal/approx"
	"hsp/internal/model"
	"hsp/internal/relax"
	"hsp/internal/sched"
	"hsp/internal/workload"
)

// testerInstances draws small task sets of the three catalogue
// topologies (semi-partitioned, clustered, random laminar) plus a flat
// one, whose family lacks the singletons the 2-approximation adds — so
// MinFrame's heuristic runs on a different instance than Test's.
func testerInstances(tb testing.TB, seed int64, jobs int) []*model.Instance {
	tb.Helper()
	cfgs := []workload.Config{
		{Topology: workload.SemiPartitioned, Machines: 4},
		{Topology: workload.Clustered, Clusters: 2, ClusterSize: 2},
		{Topology: workload.RandomLaminar, Machines: 5},
		{Topology: workload.Flat, Machines: 3},
	}
	out := make([]*model.Instance, 0, len(cfgs))
	for k, cfg := range cfgs {
		cfg.Jobs, cfg.Seed = jobs, seed+int64(k)
		cfg.MinWork, cfg.MaxWork, cfg.OverheadPerLevel = 2, 30, 0.25
		in, err := workload.Generate(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, in)
	}
	return out
}

// bracket returns T* and the 2-approximation's makespan A.
func bracket(tb testing.TB, in *model.Instance) (tStar, a int64) {
	tb.Helper()
	ar, err := approx.TwoApprox(context.Background(), in, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return ar.LPBound, ar.Makespan
}

// sweepFrames returns the frames {1, T*−1, T*, (T*+A)/2, A, 2A} that are
// positive: both ends of every verdict region.
func sweepFrames(tb testing.TB, in *model.Instance) []int64 {
	tb.Helper()
	t, a := bracket(tb, in)
	var frames []int64
	for _, f := range []int64{1, t - 1, t, (t + a) / 2, a, 2 * a} {
		if f >= 1 {
			frames = append(frames, f)
		}
	}
	return frames
}

// fresh answers one frame the one-shot way: a new Tester on a private
// workspace.
func fresh(tb testing.TB, in *model.Instance, frame int64, opts Options) *Result {
	tb.Helper()
	r, err := newTester(tb, in).Test(context.Background(), frame, opts)
	if err != nil {
		tb.Fatalf("fresh test at frame %d: %v", frame, err)
	}
	return r
}

// diffResults reports the first field in which two results differ; the
// schedule is compared by its JSON encoding.
func diffResults(got, want *Result) error {
	switch {
	case got.Verdict != want.Verdict:
		return fmt.Errorf("verdict %v, want %v", got.Verdict, want.Verdict)
	case got.Frame != want.Frame:
		return fmt.Errorf("frame %d, want %d", got.Frame, want.Frame)
	case got.LPBound != want.LPBound:
		return fmt.Errorf("LP bound %d, want %d", got.LPBound, want.LPBound)
	case got.Makespan != want.Makespan:
		return fmt.Errorf("makespan %d, want %d", got.Makespan, want.Makespan)
	case fmt.Sprint(got.Assignment) != fmt.Sprint(want.Assignment):
		return fmt.Errorf("assignment %v, want %v", got.Assignment, want.Assignment)
	}
	if (got.Schedule == nil) != (want.Schedule == nil) {
		return fmt.Errorf("schedule present=%t, want %t", got.Schedule != nil, want.Schedule != nil)
	}
	if got.Schedule == nil {
		return nil
	}
	var g, w bytes.Buffer
	if err := sched.EncodeJSON(&g, got.Schedule); err != nil {
		return err
	}
	if err := sched.EncodeJSON(&w, want.Schedule); err != nil {
		return err
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		return fmt.Errorf("schedule JSON differs:\n got %s\nwant %s", g.Bytes(), w.Bytes())
	}
	return nil
}

// TestTesterMatchesFreshTest: one Tester answers a frame sweep run
// ascending, descending and repeated exactly as a fresh Tester answers
// each frame alone. The Testers share one relaxation workspace across
// all instances, as a daemon worker's do.
func TestTesterMatchesFreshTest(t *testing.T) {
	ws := relax.NewWorkspace()
	for seed := int64(1); seed <= 6; seed++ {
		for _, in := range testerInstances(t, seed, 6+int(seed)) {
			frames := sweepFrames(t, in)
			desc := make([]int64, len(frames))
			for i, f := range frames {
				desc[len(frames)-1-i] = f
			}
			orders := map[string][]int64{
				"ascending":  frames,
				"descending": desc,
				"repeated":   append(append([]int64(nil), frames...), frames...),
			}
			wlo, whi, err := newTester(t, in).MinFrame(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []Options{{}, {ExactNodes: 2000}} {
				want := map[int64]*Result{}
				for _, f := range frames {
					want[f] = fresh(t, in, f, opts)
				}
				for name, order := range orders {
					ts, err := NewTester(in, ws)
					if err != nil {
						t.Fatal(err)
					}
					// The bracket is asked before and after the sweep,
					// so its memo and Test's are both seen first.
					checkMinFrame(t, ts, wlo, whi)
					for _, f := range order {
						got, err := ts.Test(context.Background(), f, opts)
						if err != nil {
							t.Fatalf("seed %d %s frame %d: %v", seed, name, f, err)
						}
						if err := diffResults(got, want[f]); err != nil {
							t.Fatalf("seed %d %s frame %d exact=%d: %v", seed, name, f, opts.ExactNodes, err)
						}
					}
					checkMinFrame(t, ts, wlo, whi)
				}
			}
		}
	}
}

// checkMinFrame compares a Tester's bracket with a fresh one's.
func checkMinFrame(t *testing.T, ts *Tester, wlo, whi int64) {
	t.Helper()
	lo, hi, err := ts.MinFrame(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if lo != wlo || hi != whi {
		t.Fatalf("MinFrame [%d, %d], fresh [%d, %d]", lo, hi, wlo, whi)
	}
}

// TestTesterCanceledCallNotMemoized: a call under a dead context fails —
// also once T* is memoized — and leaves nothing behind that a later
// live call could see.
func TestTesterCanceledCallNotMemoized(t *testing.T) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for _, in := range testerInstances(t, 11, 9) {
		frames := sweepFrames(t, in)
		ts := newTester(t, in)
		if _, err := ts.Test(dead, frames[len(frames)-1], Options{}); err == nil {
			t.Fatal("canceled first call answered")
		}
		if _, _, err := ts.MinFrame(dead); err == nil {
			t.Fatal("canceled MinFrame answered")
		}
		for _, f := range frames {
			got, err := ts.Test(context.Background(), f, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := diffResults(got, fresh(t, in, f, Options{})); err != nil {
				t.Fatalf("frame %d after a canceled call: %v", f, err)
			}
			if _, err := ts.Test(dead, f, Options{}); err == nil {
				t.Fatalf("frame %d: canceled call answered from the memo", f)
			}
		}
	}
}

// FuzzTesterMatchesTest: for any small task set and any frame sequence,
// every answer of one Tester equals a fresh Tester's.
func FuzzTesterMatchesTest(f *testing.F) {
	f.Add(int64(1), []byte{0, 5, 9, 3})
	f.Add(int64(7), []byte{255, 1, 128, 1, 255})
	f.Add(int64(42), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, picks []byte) {
		if len(picks) > 12 {
			picks = picks[:12]
		}
		rng := rand.New(rand.NewSource(seed))
		ins := testerInstances(t, seed, 1+rng.Intn(8))
		in := ins[rng.Intn(len(ins))]
		// Frames range over [1, 2A]: every verdict region and its edges.
		frames := sweepFrames(t, in)
		top := frames[len(frames)-1]
		ts := newTester(t, in)
		for _, b := range picks {
			frame := 1 + int64(b)*top/255
			got, err := ts.Test(context.Background(), frame, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := diffResults(got, fresh(t, in, frame, Options{})); err != nil {
				t.Fatalf("frame %d: %v", frame, err)
			}
		}
	})
}
