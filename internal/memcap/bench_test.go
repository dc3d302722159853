package memcap_test

import (
	"context"
	"testing"

	"hsp/internal/memcap"
	"hsp/internal/relax"
	"hsp/internal/workload"
)

// largeClass generates the serve benchmark catalogue's large class — 8
// machines, 18 jobs — on each of its three topologies, with the
// catalogue's memory annotations. Model 2 needs a tree with a uniform
// leaf level, so topologies without one get no Model 2 instance.
func largeClass(b *testing.B) (m1s []*memcap.Model1, m2s []*memcap.Model2) {
	for k, topo := range []workload.Topology{workload.SemiPartitioned, workload.Clustered, workload.RandomLaminar} {
		in, err := workload.Generate(workload.Config{
			Topology: topo, Machines: 8, Clusters: 2, ClusterSize: 4, Jobs: 18,
			Seed: int64(k + 1), MinWork: 2, MaxWork: 30, OverheadPerLevel: 0.25,
		})
		if err != nil {
			b.Fatal(err)
		}
		m1, err := workload.AttachModel1(in, workload.MemoryConfig{MinSize: 1, MaxSize: 10, BudgetSlack: 2}, int64(k+1))
		if err != nil {
			b.Fatal(err)
		}
		m1s = append(m1s, m1)
		m2, err := workload.AttachModel2(in, workload.MemoryConfig{Mu: 2}, int64(k+1))
		if err != nil {
			b.Fatal(err)
		}
		if m2.Validate() == nil {
			m2s = append(m2s, m2)
		}
	}
	return m1s, m2s
}

// benchSolve times one pass over the instances, each solve on a fresh
// private workspace ("fresh") or on one workspace held across every
// solve ("warm"), as a serve worker holds its own. pivots/op counts the
// simplex pivots of a pass: the T_LP search's and the rounding's.
func benchSolve[M any](b *testing.B, ms []M, solve func(context.Context, M, *relax.Workspace) (*memcap.Result, error)) {
	ctx := context.Background()
	run := func(b *testing.B, ws func() *relax.Workspace) {
		b.ReportAllocs()
		pivots := 0
		for i := 0; i < b.N; i++ {
			for _, m := range ms {
				w := ws()
				before := w.Stats().LP.Pivots
				if _, err := solve(ctx, m, w); err != nil {
					b.Fatal(err)
				}
				pivots += w.Stats().LP.Pivots - before
			}
		}
		b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	}
	b.Run("fresh", func(b *testing.B) {
		run(b, relax.NewWorkspace)
	})
	b.Run("warm", func(b *testing.B) {
		ws := relax.NewWorkspace()
		run(b, func() *relax.Workspace { return ws })
	})
}

func BenchmarkSolveModel1(b *testing.B) {
	m1s, _ := largeClass(b)
	benchSolve(b, m1s, memcap.SolveModel1)
}

func BenchmarkSolveModel2(b *testing.B) {
	_, m2s := largeClass(b)
	if len(m2s) == 0 {
		b.Fatal("no large-class instance admits Model 2")
	}
	benchSolve(b, m2s, memcap.SolveModel2)
}
