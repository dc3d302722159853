package workload

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"hsp/internal/memcap"
	"hsp/internal/model"
)

func TestGenerateAllTopologies(t *testing.T) {
	cases := []Config{
		{Topology: Flat, Machines: 4, Jobs: 6, Seed: 1, MinWork: 1, MaxWork: 10},
		{Topology: Singletons, Machines: 4, Jobs: 6, Seed: 2, MinWork: 1, MaxWork: 10},
		{Topology: SemiPartitioned, Machines: 4, Jobs: 6, Seed: 3, MinWork: 1, MaxWork: 10},
		{Topology: Clustered, Clusters: 2, ClusterSize: 3, Jobs: 8, Seed: 4, MinWork: 1, MaxWork: 10},
		{Topology: SMPCMP, Branching: []int{2, 2, 2}, Jobs: 8, Seed: 5, MinWork: 1, MaxWork: 10},
		{Topology: RandomLaminar, Machines: 7, Jobs: 8, Seed: 6, MinWork: 1, MaxWork: 10},
	}
	for _, cfg := range cases {
		in, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Topology, err)
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("%v: generated invalid instance: %v", cfg.Topology, err)
		}
		if in.N() != cfg.Jobs {
			t.Fatalf("%v: %d jobs, want %d", cfg.Topology, in.N(), cfg.Jobs)
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{Topology: Flat, Machines: 4, Jobs: 0, MinWork: 1, MaxWork: 2},
		{Topology: Flat, Machines: 4, Jobs: 3, MinWork: 0, MaxWork: 2},
		{Topology: Flat, Machines: 4, Jobs: 3, MinWork: 5, MaxWork: 2},
		{Topology: RandomLaminar, Machines: 0, Jobs: 3, MinWork: 1, MaxWork: 2},
		{Topology: Clustered, Clusters: 0, ClusterSize: 2, Jobs: 3, MinWork: 1, MaxWork: 2},
		{Topology: Topology(99), Machines: 2, Jobs: 3, MinWork: 1, MaxWork: 2},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Fatalf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Topology: SMPCMP, Branching: []int{2, 2}, Jobs: 10, Seed: 42,
		MinWork: 5, MaxWork: 50, SpeedSpread: 0.5, OverheadPerLevel: 0.3, PinFraction: 0.3}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Proc {
		for s := range a.Proc[j] {
			if a.Proc[j][s] != b.Proc[j][s] {
				t.Fatalf("same seed produced different instances at [%d][%d]", j, s)
			}
		}
	}
}

// Property: generated instances are always monotone (Validate passes) for
// arbitrary overheads, spreads and pin fractions.
func TestGenerateMonotoneProperty(t *testing.T) {
	prop := func(seed int64, ovhRaw, spreadRaw, pinRaw uint8) bool {
		cfg := Config{
			Topology:         RandomLaminar,
			Machines:         2 + int(seed%7+7)%7,
			Jobs:             5,
			Seed:             seed,
			MinWork:          1,
			MaxWork:          60,
			SpeedSpread:      float64(spreadRaw) / 64,
			OverheadPerLevel: float64(ovhRaw) / 64,
			PinFraction:      float64(pinRaw) / 256,
		}
		if cfg.Machines < 2 {
			cfg.Machines = 2
		}
		in, err := Generate(cfg)
		if err != nil {
			return false
		}
		return in.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPinFractionRestrictsJobs(t *testing.T) {
	cfg := Config{Topology: SemiPartitioned, Machines: 6, Jobs: 40, Seed: 11,
		MinWork: 1, MaxWork: 10, PinFraction: 1.0}
	in, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	restricted := 0
	for j := 0; j < in.N(); j++ {
		inf := 0
		for s := range in.Proc[j] {
			if in.Proc[j][s] >= model.Infinity {
				inf++
			}
		}
		if inf > 0 {
			restricted++
		}
	}
	if restricted == 0 {
		t.Fatal("PinFraction=1 produced no restricted jobs")
	}
}

func TestAttachModel1Solvable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		cfg := Config{Topology: SemiPartitioned, Machines: 3, Jobs: 8,
			Seed: rng.Int63(), MinWork: 2, MaxWork: 20}
		in, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m1, err := AttachModel1(in, MemoryConfig{MinSize: 1, MaxSize: 6, BudgetSlack: 1.5}, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		if err := m1.Validate(); err != nil {
			t.Fatal(err)
		}
		if _, err := memcap.SolveModel1(context.Background(), m1); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestAttachModel2Solvable(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := Config{Topology: SMPCMP, Branching: []int{2, 2}, Jobs: 6,
		Seed: 3, MinWork: 2, MaxWork: 20, OverheadPerLevel: 0.2}
	in, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := AttachModel2(in, MemoryConfig{Mu: 2.5}, rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := memcap.SolveModel2(context.Background(), m2); err != nil {
		t.Fatal(err)
	}
}

func TestAttachRejectsBadConfigs(t *testing.T) {
	in, _ := Generate(Config{Topology: Flat, Machines: 2, Jobs: 2, Seed: 1, MinWork: 1, MaxWork: 5})
	if _, err := AttachModel1(in, MemoryConfig{MinSize: 0, MaxSize: 3, BudgetSlack: 1}, 1); err == nil {
		t.Fatal("zero MinSize accepted")
	}
	if _, err := AttachModel1(in, MemoryConfig{MinSize: 1, MaxSize: 3, BudgetSlack: 0}, 1); err == nil {
		t.Fatal("zero slack accepted")
	}
	if _, err := AttachModel2(in, MemoryConfig{Mu: 1}, 1); err == nil {
		t.Fatal("µ=1 accepted")
	}
}

func TestGenerateGeneralValid(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := GenerateGeneral(5, 8, 4, seed)
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestTopologyString(t *testing.T) {
	for _, topo := range []Topology{Flat, Singletons, SemiPartitioned, Clustered, SMPCMP, RandomLaminar} {
		if topo.String() == "" {
			t.Fatalf("empty name for %d", int(topo))
		}
	}
}
