package exact

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"

	"hsp/internal/model"
	"hsp/internal/workload"
)

// fuzzInstance maps fuzz bytes onto a small instance: bytes that decode
// as a wire-format instance are used as they are, and any other bytes
// drive workload.Generate. Instances beyond 10 jobs, 8 machines or 16
// sets are rejected so both kernels finish every probe quickly.
func fuzzInstance(data []byte) (*model.Instance, bool) {
	in, err := model.Decode(bytes.NewReader(data))
	if err != nil {
		var b [10]byte
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
			MaxWork:  1 + int64(b[7])%100,
		}
		switch cfg.Topology {
		case workload.Clustered:
			cfg.Clusters = 1 + int(b[8])%3
			cfg.ClusterSize = 1 + int(b[8]>>4)%3
			cfg.PinFraction = float64(b[9]) / 512
		case workload.SMPCMP:
			cfg.Branching = []int{1 + int(b[8])%2, 2, 2}
			cfg.SpeedSpread = float64(b[9]) / 512
			cfg.OverheadPerLevel = float64(b[9]>>4) / 16
		case workload.SemiPartitioned:
			cfg.SpeedSpread = float64(b[9]) / 384
		case workload.RandomLaminar:
			cfg.PinFraction = float64(b[9]) / 768
		}
		if in, err = workload.Generate(cfg); err != nil {
			return nil, false
		}
	}
	return in, in.N() <= 10 && in.M() <= 8 && in.Family.Len() <= 16
}

// FuzzExactKernel drives the slack-step kernel against the reference
// kernel (ref_test.go) on arbitrary small instances, makespans and node
// caps: two probes, at T and T+1 on the same pair of workspaces, must
// agree on the verdict, the witness, the canonical and visited node
// counts and the error text. T ranges from one below the largest
// cheapest processing time (no candidate for some job) to past the
// trivial upper bound; the cap from 1 to 65,536 nodes.
func FuzzExactKernel(f *testing.F) {
	// internal/model's FuzzDecode seeds: wire-format instances and junk.
	var ex bytes.Buffer
	if err := model.Encode(&ex, model.ExampleII1()); err != nil {
		f.Fatal(err)
	}
	f.Add(ex.Bytes(), uint16(3), uint16(500))
	f.Add([]byte(`{"machines":2,"sets":[[0,1],[0],[1]],"proc":[[2,1,1]]}`), uint16(1), uint16(10))
	f.Add([]byte(`{"machines":0,"sets":[],"proc":[]}`), uint16(0), uint16(0))
	f.Add([]byte(`not json at all`), uint16(40), uint16(2000))
	// Generator configurations: a flat pool, SMP-CMP trees with twins.
	f.Add([]byte{0, 3, 7, 1, 0, 0, 0, 40, 0, 0}, uint16(5), uint16(100))
	f.Add([]byte{4, 0, 9, 9, 9, 9, 9, 60, 0x01, 0x90}, uint16(2), uint16(65535))
	f.Add([]byte{5, 5, 8, 77, 1, 0, 0, 99, 0, 200}, uint16(7), uint16(3000))
	f.Fuzz(func(t *testing.T, data []byte, tOff, capSeed uint16) {
		in, ok := fuzzInstance(data)
		if !ok {
			t.Skip()
		}
		lo, hi := in.LowerBoundSimple(), in.TrivialUpperBound()
		// |root|·T must stay within the model's overflow headroom, where
		// neither kernel's volume arithmetic can wrap.
		if (hi+4)*int64(in.M()) > model.Infinity {
			t.Skip()
		}
		T := lo - 1 + int64(tOff)%(hi-lo+4)
		opts := Options{MaxNodes: 1 + int(capSeed)}
		ctx := context.Background()
		ws, ref := NewWorkspace(), &refWorkspace{}
		for _, T := range []int64{T, T + 1} {
			if _, err := diffProbe(ctx, ws, ref, in, T, opts); err != nil {
				t.Fatal(err)
			}
		}
	})
}
