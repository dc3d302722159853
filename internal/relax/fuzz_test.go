package relax_test

import (
	"context"
	"encoding/binary"
	"testing"

	"hsp/internal/relax"
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
// oracle's, feasibility must be monotone around T* (T*-1 infeasible,
// T* and T*+1 feasible), and warm/cold probe verdicts must agree at
// those boundary points — the exact places a bad dual-simplex verdict
// would shift the search's answer.
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
		tWarm, frWarm, errWarm := relax.MinFeasibleT(ctx, in, warm)
		cold := relax.NewWorkspace()
		cold.LP.SetWarmStart(false)
		tCold, _, errCold := relax.MinFeasibleT(ctx, in, cold)
		if (errWarm == nil) != (errCold == nil) {
			t.Fatalf("error disagreement: warm=%v cold=%v", errWarm, errCold)
		}
		if errWarm != nil {
			return
		}
		if tWarm != tCold {
			t.Fatalf("T* disagreement: warm=%d cold=%d", tWarm, tCold)
		}
		if frWarm == nil {
			t.Fatalf("no witness at T*=%d", tWarm)
		}
		for _, d := range []int64{-1, 0, 1} {
			T := tWarm + d
			if T < 1 {
				continue
			}
			okWarm, err := relax.ProbeFeasible(ctx, in, T, warm)
			if err != nil {
				t.Fatalf("warm probe T=%d: %v", T, err)
			}
			okCold, err := relax.ProbeFeasible(ctx, in, T, cold)
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
