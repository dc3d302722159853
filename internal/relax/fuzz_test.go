package relax_test

import (
	"context"
	"encoding/binary"
	"testing"

	"hsp/internal/relax"
	"hsp/internal/testdiff"
	"hsp/internal/workload"
)

// decodeFuzzConfig maps raw fuzz bytes onto a small workload.Config.
// Sizes are clamped hard (≤ 10 jobs, ≤ 6 machines) so every fuzz
// iteration solves in microseconds; the fuzzer's job here is to find
// odd topology/volume combinations, not big instances.
func decodeFuzzConfig(data []byte) workload.Config {
	var b [12]byte
	copy(b[:], data)
	topos := []workload.Topology{
		workload.Flat, workload.Singletons, workload.SemiPartitioned,
		workload.Clustered, workload.SMPCMP, workload.RandomLaminar,
	}
	cfg := workload.Config{
		Topology: topos[int(b[0])%len(topos)],
		Machines: 1 + int(b[1])%6,
		Jobs:     1 + int(b[2])%10,
		Seed:     int64(binary.LittleEndian.Uint32(b[3:7])),
		MinWork:  1,
		MaxWork:  1 + int64(b[7])*int64(b[8]), // up to ~65k, heavy skew possible
	}
	switch cfg.Topology {
	case workload.Clustered:
		cfg.Clusters = 1 + int(b[9])%3
		cfg.ClusterSize = 1 + int(b[9]>>4)%3
		cfg.PinFraction = float64(b[10]) / 512
	case workload.SMPCMP:
		cfg.Branching = []int{1 + int(b[9])%3, 1 + int(b[9]>>4)%2, 2}
		cfg.SpeedSpread = float64(b[10]) / 512
		cfg.OverheadPerLevel = float64(b[11]) / 512
	case workload.SemiPartitioned:
		cfg.SpeedSpread = float64(b[10]) / 384
	case workload.RandomLaminar:
		cfg.PinFraction = float64(b[10]) / 768
	}
	return cfg
}

// FuzzMinFeasibleT is the property test for the warm-started binary
// search: on any generable instance, the warm T* must equal the cold
// oracle's, lie in relax.Bracket's range and match the loose-bracket
// reference search (testdiff.CheckBracket), feasibility must be
// monotone around T* (T*-1 infeasible, T* and T*+1 feasible), and the
// warm workspace's Verdict probes must agree with relax.Feasible's cold,
// exact solves at those boundary points — the exact places a bad
// dual-simplex verdict would shift the search's answer. It also checks Lemma V.1 (testdiff.CheckLemmaV1): the
// singleton-extended instance's T* equals its unrelated projection's,
// up to one at an LP-tolerance tie, approx.TwoApprox succeeds with its
// bound at the larger of the two, and both TwoApprox's and LST's
// makespans are at most twice their bounds.
func FuzzMinFeasibleT(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 5, 1, 0, 0, 0, 9, 4, 0, 0, 0})
	f.Add([]byte{3, 3, 7, 77, 1, 0, 0, 50, 40, 0x21, 200, 0})
	f.Add([]byte{4, 1, 6, 5, 0, 2, 0, 30, 30, 0x12, 100, 100})
	f.Add([]byte{5, 5, 9, 9, 9, 9, 9, 255, 255, 0, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := workload.Generate(decodeFuzzConfig(data))
		if err != nil {
			t.Skip() // generator rejected the parameter combination
		}
		ctx := context.Background()
		warm := relax.NewWorkspace()
		tWarm, errWarm := relax.MinFeasibleT(ctx, in, warm)
		tCold, _, errCold := testdiff.ColdMinFeasibleT(ctx, in)
		if (errWarm == nil) != (errCold == nil) {
			t.Fatalf("error disagreement: warm=%v cold=%v", errWarm, errCold)
		}
		if errWarm != nil {
			return
		}
		if tWarm != tCold {
			t.Fatalf("T* disagreement: warm=%d cold=%d", tWarm, tCold)
		}
		if ok, _, err := relax.Feasible(ctx, in, tWarm, warm); !ok || err != nil {
			t.Fatalf("no witness at T*=%d (err=%v)", tWarm, err)
		}
		if err := testdiff.CheckBracket(ctx, in, tWarm); err != nil {
			t.Fatal(err)
		}
		if err := testdiff.CheckLemmaV1(ctx, in); err != nil {
			t.Fatal(err)
		}
		r := relax.NewRelaxation(in)
		for _, d := range []int64{-1, 0, 1} {
			T := tWarm + d
			if T < 1 {
				continue
			}
			okWarm, err := warm.Verdict(ctx, r, T)
			if err != nil {
				t.Fatalf("warm probe T=%d: %v", T, err)
			}
			okCold, _, err := relax.Feasible(ctx, in, T, nil)
			if err != nil {
				t.Fatalf("cold probe T=%d: %v", T, err)
			}
			if okWarm != okCold {
				t.Fatalf("probe disagreement at T=%d: warm=%v cold=%v", T, okWarm, okCold)
			}
			if okWarm != (T >= tWarm) {
				t.Fatalf("not monotone: T*=%d but feasible(%d)=%v", tWarm, T, okWarm)
			}
		}
	})
}
