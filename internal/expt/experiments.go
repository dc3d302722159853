package expt

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"hsp/internal/approx"
	"hsp/internal/exact"
	"hsp/internal/hier"
	"hsp/internal/laminar"
	"hsp/internal/memcap"
	"hsp/internal/model"
	"hsp/internal/relax"
	"hsp/internal/sched"
	"hsp/internal/semipart"
	"hsp/internal/unrelated"
	"hsp/internal/workload"
)

// Suite configures the experiment runs. Quick shrinks trial counts and
// sizes for use inside benchmarks; the full run is what cmd/hbench prints.
type Suite struct {
	Quick bool
	Seed  int64
}

func (s Suite) trials(full int) int {
	if s.Quick {
		if full > 5 {
			return 5
		}
	}
	return full
}

// The core suite E1–E12 registers here; E13–E15 register in
// extensions.go. The registry is the single source of truth for titles
// and claims — newTable pulls the title from it.
func init() {
	Register(Experiment{ID: "E1",
		Title: "Examples II.1/III.1: semi-partitioned vs unrelated optimum",
		Claim: "OPT(I)=2, OPT(I_u)=3, T*=2; Algorithm 1 realizes makespan 2 with ≤1 migration",
		Run:   Suite.E1})
	Register(Experiment{ID: "E2",
		Title: "Theorem III.1: Algorithm 1 validity on random feasible (x,T)",
		Claim: "every feasible (x,T) yields a valid schedule of makespan exactly T",
		Run:   Suite.E2})
	Register(Experiment{ID: "E3",
		Title: "Proposition III.2: migration/preemption bounds",
		Claim: "migrations ≤ m−1 and migrations+preemptions ≤ 2m−2 (cyclic counting)",
		Run:   Suite.E3})
	Register(Experiment{ID: "E4",
		Title: "Theorem IV.3: Algorithms 2+3 validity across topologies",
		Claim: "every feasible hierarchical (x,T) yields a valid schedule of makespan ≤ T",
		Run:   Suite.E4})
	Register(Experiment{ID: "E5",
		Title: "Lemma V.1: push-down preserves feasibility",
		Claim: "push-down keeps the LP solution feasible and singleton-supported",
		Run:   Suite.E5})
	Register(Experiment{ID: "E6",
		Title: "Theorem V.2: 2-approximation measured ratios",
		Claim: "ALG/OPT ≤ 2 on every instance",
		Run:   Suite.E6})
	Register(Experiment{ID: "E7",
		Title: "Example V.1: integral gap of the unrelated projection (series → 2)",
		Claim: "OPT(I_u)/OPT(I) = (2n−3)/(n−1), approaching 2 from below",
		Run:   Suite.E7})
	Register(Experiment{ID: "E8",
		Title: "Theorem VI.1: Model 1 bicriteria factors (bound 3)",
		Claim: "makespan ≤ 3T and memory ≤ 3B under memory Model 1",
		Run:   Suite.E8})
	Register(Experiment{ID: "E9",
		Title: "Theorem VI.3: Model 2 factors vs σ = 2 + H_k",
		Claim: "both bicriteria factors ≤ σ = 2 + H_k per hierarchy depth k",
		Run:   Suite.E9})
	Register(Experiment{ID: "E10",
		Title: "Regime comparison on SMP-CMP (8 machines): makespan vs migration overhead",
		Claim: "hierarchical never loses to any restricted regime (its family contains theirs)",
		Run:   Suite.E10})
	Register(Experiment{ID: "E11",
		Title: "General masks: 8-approximation measured quality",
		Claim: "LST stays within 2× the nonpreemptive LP bound (paper's end-to-end bound is 8)",
		Run:   Suite.E11})
	Register(Experiment{ID: "E12",
		Title: "Solver scaling: 2-approximation wall time",
		Claim: "the LP binary search plus rounding completes without error as sizes grow",
		Run:   Suite.E12})
}

// newTable starts a table for a registered experiment, pulling the title
// from the registry.
func newTable(id string, columns ...string) *Table {
	e, ok := Lookup(id)
	if !ok {
		panic("expt: newTable for unregistered experiment " + id)
	}
	return &Table{ID: id, Title: e.Title, Columns: columns}
}

// E1 reproduces Examples II.1 and III.1: the semi-partitioned optimum is 2,
// the unrelated projection's optimum is 3, and Algorithm 1 realizes the
// makespan-2 schedule of Example III.1.
func (s Suite) E1(ctx context.Context) *Table {
	t := newTable("E1", "quantity", "value", "paper")
	in := model.ExampleII1()
	_, opt, err := exact.Solve(ctx, in, exact.Options{}, nil)
	if err != nil {
		t.Notes = append(t.Notes, "exact solve failed: "+err.Error())
		t.CheckFail("exact solve", err.Error())
		return t
	}
	t.AddRow("OPT(I) hierarchical", opt, 2)
	t.CheckEq("OPT(I) hierarchical", opt, 2)

	u := unrelated.FromProjection(in.UnrelatedProjection())
	_, optU, err := unrelated.ExactSmall(u)
	if err != nil {
		t.Notes = append(t.Notes, "unrelated exact failed: "+err.Error())
		t.CheckFail("unrelated exact", err.Error())
		return t
	}
	t.AddRow("OPT(I_u) unrelated", optU, 3)
	t.CheckEq("OPT(I_u) unrelated", optU, 3)

	tStar, err := relax.MinFeasibleT(ctx, in, nil)
	if err == nil {
		t.AddRow("LP bound T*", tStar, 2)
		t.CheckEq("LP bound T*", tStar, 2)
	} else {
		t.CheckFail("LP bound T*", err.Error())
	}
	res, err := approx.TwoApprox(ctx, in, nil)
	if err == nil {
		t.AddRow("2-approx makespan", res.Makespan, "≤ 4")
		t.CheckLE("2-approx makespan", float64(res.Makespan), 4, 0)
	} else {
		t.CheckFail("2-approx makespan", err.Error())
	}

	// Example III.1's explicit schedule via Algorithm 1.
	f := in.Family
	a := model.Assignment{f.Singleton(0), f.Singleton(1), f.Roots()[0]}
	if sc, err := semipart.Schedule(in, a, 2); err == nil {
		st := sc.CyclicStats()
		t.AddRow("Algorithm 1 makespan", sc.Makespan(), 2)
		t.AddRow("Algorithm 1 migrations", st.Migrations, "≤ 1")
		t.CheckEq("Algorithm 1 makespan", sc.Makespan(), 2)
		t.CheckLE("Algorithm 1 migrations", float64(st.Migrations), 1, 0)
		t.Notes = append(t.Notes, "Algorithm 1 Gantt (machines × time):")
		for _, line := range splitLines(sc.Gantt(1)) {
			t.Notes = append(t.Notes, "  "+line)
		}
	} else {
		t.CheckFail("Algorithm 1 schedule", err.Error())
	}
	return t
}

// E2 validates Theorem III.1 at scale: Algorithm 1 produces valid
// schedules of makespan exactly T on random feasible semi-partitioned
// solutions.
func (s Suite) E2(ctx context.Context) *Table {
	t := newTable("E2", "m", "n", "trials", "valid", "makespan=T")
	rng := rand.New(rand.NewSource(s.Seed))
	for _, mn := range [][2]int{{2, 8}, {4, 16}, {8, 32}, {12, 64}} {
		if ctx.Err() != nil {
			return t
		}
		m, n := mn[0], mn[1]
		trials := s.trials(50)
		valid, tight := 0, 0
		for k := 0; k < trials; k++ {
			in, a, T := randomSemiPartFeasible(rng, m, n)
			sc, err := semipart.Schedule(in, a, T)
			if err != nil {
				continue
			}
			demand, allowed := a.Requirement(in)
			if sc.Validate(sched.Requirement{Demand: demand, Allowed: allowed}) == nil {
				valid++
				if sc.Makespan() <= T {
					tight++
				}
			}
		}
		t.AddRow(m, n, trials, valid, tight)
		t.CheckEq(fmt.Sprintf("m=%d n=%d all valid", m, n), valid, trials)
		t.CheckEq(fmt.Sprintf("m=%d n=%d makespan=T", m, n), tight, trials)
	}
	t.Notes = append(t.Notes, "valid and makespan=T must equal trials (Theorem III.1)")
	return t
}

// E3 measures Proposition III.2: migrations ≤ m−1, migrations+preemptions
// ≤ 2m−2 (cyclic counting; wall-clock shown for comparison).
func (s Suite) E3(ctx context.Context) *Table {
	t := newTable("E3", "m", "trials", "max migr", "bound m-1", "max events", "bound 2m-2", "max wall events")
	rng := rand.New(rand.NewSource(s.Seed + 1))
	for _, m := range []int{2, 4, 8, 12, 16} {
		if ctx.Err() != nil {
			return t
		}
		trials := s.trials(60)
		maxMig, maxEv, maxWall := 0, 0, 0
		for k := 0; k < trials; k++ {
			in, a, T := randomSemiPartFeasible(rng, m, 4*m)
			sc, err := semipart.Schedule(in, a, T)
			if err != nil {
				continue
			}
			st := sc.CyclicStats()
			if st.Migrations > maxMig {
				maxMig = st.Migrations
			}
			if ev := st.Migrations + st.Preemptions; ev > maxEv {
				maxEv = ev
			}
			w := sc.Stats()
			if ev := w.Migrations + w.Preemptions; ev > maxWall {
				maxWall = ev
			}
		}
		t.AddRow(m, trials, maxMig, m-1, maxEv, 2*m-2, maxWall)
		t.CheckLE(fmt.Sprintf("m=%d migrations", m), float64(maxMig), float64(m-1), 0)
		t.CheckLE(fmt.Sprintf("m=%d cyclic events", m), float64(maxEv), float64(2*m-2), 0)
		t.CheckLE(fmt.Sprintf("m=%d wall events", m), float64(maxWall), float64(2*m-2), 0)
	}
	return t
}

// E4 validates Theorem IV.3 on random laminar families and the canonical
// clustered and SMP-CMP topologies.
func (s Suite) E4(ctx context.Context) *Table {
	t := newTable("E4", "topology", "m", "levels", "trials", "valid")
	rng := rand.New(rand.NewSource(s.Seed + 2))
	cases := []struct {
		name string
		mk   func() *laminar.Family
	}{
		{"clustered 2x4", func() *laminar.Family { f, _ := laminar.Clustered(2, 4); return f }},
		{"clustered 4x4", func() *laminar.Family { f, _ := laminar.Clustered(4, 4); return f }},
		{"smp-cmp 2x2x2", func() *laminar.Family { f, _ := laminar.Hierarchy(2, 2, 2); return f }},
		{"smp-cmp 2x2x2x2", func() *laminar.Family { f, _ := laminar.Hierarchy(2, 2, 2, 2); return f }},
		{"random laminar", nil},
	}
	for _, c := range cases {
		if ctx.Err() != nil {
			return t
		}
		trials := s.trials(40)
		valid := 0
		var f *laminar.Family
		for k := 0; k < trials; k++ {
			if c.mk != nil {
				f = c.mk()
			} else {
				f = randomLaminarFamily(rng, 3+rng.Intn(10))
			}
			in, a, T := randomAssignmentOn(rng, f, 3*f.M())
			sc, err := hier.Schedule(in, a, T)
			if err != nil {
				continue
			}
			demand, allowed := a.Requirement(in)
			if sc.Validate(sched.Requirement{Demand: demand, Allowed: allowed}) == nil && sc.Makespan() <= T {
				valid++
			}
		}
		name := c.name
		mM, lv := "-", "-"
		if f != nil {
			mM, lv = fmt.Sprint(f.M()), fmt.Sprint(f.Levels())
		}
		t.AddRow(name, mM, lv, trials, valid)
		t.CheckEq(name+" all valid", valid, trials)
	}
	t.Notes = append(t.Notes, "valid must equal trials (Theorem IV.3)")
	return t
}

// E5 validates Lemma V.1: push-down keeps the LP solution feasible and
// singleton-supported.
func (s Suite) E5(ctx context.Context) *Table {
	t := newTable("E5", "topology", "trials", "feasible after", "singleton-only")
	rng := rand.New(rand.NewSource(s.Seed + 3))
	// One relaxation workspace across every trial's binary search: probes
	// rebuild into one arena.
	rws := relax.NewWorkspace()
	for _, topo := range []workload.Topology{workload.SemiPartitioned, workload.Clustered, workload.SMPCMP} {
		trials := s.trials(25)
		okFeas, okSing := 0, 0
		for k := 0; k < trials; k++ {
			if ctx.Err() != nil {
				return t
			}
			in := generated(rng, topo, 0.4, 0)
			ins := in.WithSingletons()
			T, err := relax.MinFeasibleT(ctx, ins, rws)
			if err != nil {
				continue
			}
			ok, fr, err := relax.Feasible(ctx, ins, T, rws)
			if err != nil || !ok {
				continue
			}
			down, err := relax.PushDown(ins, T, fr)
			if err != nil {
				continue
			}
			if down.Check(ins, T, 1e-5) == nil {
				okFeas++
			}
			if down.SingletonOnly(ins, 1e-7) {
				okSing++
			}
		}
		t.AddRow(topo.String(), trials, okFeas, okSing)
		t.CheckEq(topo.String()+" feasible", okFeas, trials)
		t.CheckEq(topo.String()+" singleton-only", okSing, trials)
	}
	t.Notes = append(t.Notes, "both counters must equal trials (Lemma V.1)")
	return t
}

// E6 measures Theorem V.2: the 2-approximation's ratio to the exact
// optimum (small instances) and to the LP lower bound (larger ones).
func (s Suite) E6(ctx context.Context) *Table {
	t := newTable("E6", "topology", "n", "trials", "avg ALG/OPT", "max ALG/OPT", "avg ALG/T*", "max ALG/T*", "all ≤ 2")
	rng := rand.New(rand.NewSource(s.Seed + 4))
	for _, topo := range []workload.Topology{workload.SemiPartitioned, workload.Clustered, workload.SMPCMP} {
		for _, n := range []int{6, 10} {
			if ctx.Err() != nil {
				return t
			}
			var sumOpt, maxOpt, sumLP, maxLP float64
			cnt, within := 0, 0
			for k := s.trials(15); k > 0 && ctx.Err() == nil; k-- {
				in := generatedN(rng, topo, n, 0.5, 0.2)
				res, err := approx.TwoApprox(ctx, in, nil)
				if err != nil {
					continue
				}
				_, opt, err := exact.Solve(ctx, in, exact.Options{MaxNodes: 2_000_000}, nil)
				if err != nil {
					continue
				}
				rOpt := float64(res.Makespan) / float64(opt)
				rLP := float64(res.Makespan) / float64(res.LPBound)
				sumOpt += rOpt
				sumLP += rLP
				if rOpt > maxOpt {
					maxOpt = rOpt
				}
				if rLP > maxLP {
					maxLP = rLP
				}
				cnt++
				if rOpt <= 2.0000001 {
					within++
				}
			}
			if cnt == 0 {
				continue
			}
			t.AddRow(topo.String(), n, cnt, sumOpt/float64(cnt), maxOpt, sumLP/float64(cnt), maxLP, fmt.Sprintf("%d/%d", within, cnt))
			t.CheckLE(fmt.Sprintf("%s n=%d max ALG/OPT", topo, n), maxOpt, 2, 1e-7)
		}
	}
	t.CheckGE("rows produced", float64(len(t.Rows)), 1, 0)
	t.Notes = append(t.Notes, "Theorem V.2 guarantees ALG/OPT ≤ 2; typical ratios are far smaller")
	return t
}

// E7 reproduces Example V.1: the gap OPT(I_u)/OPT(I) = (2n−3)/(n−1) → 2.
func (s Suite) E7(ctx context.Context) *Table {
	t := newTable("E7", "n", "m", "OPT(I)", "OPT(I_u)", "gap", "paper gap (2n-3)/(n-1)")
	ns := []int{3, 4, 6, 8, 12, 16, 24, 32, 48, 64}
	if s.Quick {
		ns = []int{3, 6, 12, 24}
	}
	for _, n := range ns {
		if ctx.Err() != nil {
			return t
		}
		in := model.ExampleV1(n)
		_, opt, err := exact.Solve(ctx, in, exact.Options{}, nil)
		if err != nil {
			continue
		}
		// OPT(I_u) is closed-form (2n−3): every job is pinned except the
		// last, which adds n−1 to one machine's n−2. Verify small cases.
		optU := int64(2*n - 3)
		if n <= 10 {
			u := unrelated.FromProjection(in.UnrelatedProjection())
			if _, v, err := unrelated.ExactSmall(u); err == nil {
				optU = v
			}
		}
		gap := float64(optU) / float64(opt)
		paper := float64(2*n-3) / float64(n-1)
		t.AddRow(n, n-1, opt, optU, gap, paper)
		t.CheckWithin(fmt.Sprintf("n=%d gap", n), gap, paper, 1e-6)
		t.CheckLE(fmt.Sprintf("n=%d gap below 2", n), gap, 2, -1e-9)
	}
	t.CheckGE("series length", float64(len(t.Rows)), 3, 0)
	return t
}

// E8 measures Theorem VI.1 (memory Model 1): makespan ≤ 3T, memory ≤ 3B.
func (s Suite) E8(ctx context.Context) *Table {
	t := newTable("E8", "m", "n", "trials", "max load factor", "max mem factor", "fallbacks")
	rng := rand.New(rand.NewSource(s.Seed + 5))
	ws := relax.NewWorkspace()
	for _, mn := range [][2]int{{3, 8}, {4, 12}, {6, 18}} {
		m, n := mn[0], mn[1]
		trials := s.trials(12)
		var maxLoad, maxMem float64
		fb, cnt := 0, 0
		for k := 0; k < trials; k++ {
			if ctx.Err() != nil {
				return t
			}
			in := generatedMN(rng, workload.SemiPartitioned, m, n, 0.3, 0)
			m1, err := workload.AttachModel1(in, workload.MemoryConfig{MinSize: 1, MaxSize: 8, BudgetSlack: 1.4}, rng.Int63())
			if err != nil {
				continue
			}
			res, err := memcap.SolveModel1(ctx, m1, ws)
			if err != nil {
				continue
			}
			cnt++
			fb += res.Fallbacks
			if res.LoadFactor > maxLoad {
				maxLoad = res.LoadFactor
			}
			if res.MemFactor > maxMem {
				maxMem = res.MemFactor
			}
		}
		t.AddRow(m, n, cnt, maxLoad, maxMem, fb)
		t.CheckLE(fmt.Sprintf("m=%d n=%d load factor", m, n), maxLoad, 3, 1e-7)
		t.CheckLE(fmt.Sprintf("m=%d n=%d mem factor", m, n), maxMem, 3, 1e-7)
	}
	t.Notes = append(t.Notes, "Theorem VI.1: both factors ≤ 3")
	return t
}

// E9 measures Theorem VI.3 (memory Model 2): factors ≤ σ = 2 + H_k per
// hierarchy depth k.
func (s Suite) E9(ctx context.Context) *Table {
	t := newTable("E9", "levels k", "σ", "trials", "max load factor", "max mem factor", "fallbacks")
	rng := rand.New(rand.NewSource(s.Seed + 6))
	shapes := [][]int{{2, 2}, {2, 2, 2}, {2, 2, 2, 2}}
	trials := s.trials(10)
	// Draw every trial's instance and memory seed in rng order; trial k
	// of shape i is slot i·trials+k.
	type draw struct {
		in   *model.Instance
		seed int64
	}
	draws := make([]draw, len(shapes)*trials)
	levels := make([]int, len(shapes))
	for i, br := range shapes {
		for k := 0; k < trials; k++ {
			f, err := laminar.Hierarchy(br...)
			if err != nil {
				continue
			}
			levels[i] = f.Levels()
			in := instanceOn(rng, f, 2*f.M(), 0.3)
			draws[i*trials+k] = draw{in, rng.Int63()}
		}
	}
	type factors struct {
		ok        bool
		load, mem float64
		fallbacks int
	}
	outs := mapTrials(ctx, len(draws), func(k int) factors {
		d := draws[k]
		if d.in == nil {
			return factors{}
		}
		m2, err := workload.AttachModel2(d.in, workload.MemoryConfig{Mu: 2.5}, d.seed)
		if err != nil {
			return factors{}
		}
		res, err := memcap.SolveModel2(ctx, m2, nil)
		if err != nil {
			return factors{}
		}
		return factors{true, res.LoadFactor, res.MemFactor, res.Fallbacks}
	})
	if ctx.Err() != nil {
		return t
	}
	for i := range shapes {
		var maxLoad, maxMem float64
		fb, cnt := 0, 0
		for _, o := range outs[i*trials : (i+1)*trials] {
			if !o.ok {
				continue
			}
			cnt++
			fb += o.fallbacks
			if o.load > maxLoad {
				maxLoad = o.load
			}
			if o.mem > maxMem {
				maxMem = o.mem
			}
		}
		sigma := memcap.Sigma(levels[i])
		t.AddRow(levels[i], sigma, cnt, maxLoad, maxMem, fb)
		t.CheckLE(fmt.Sprintf("k=%d load factor vs σ", levels[i]), maxLoad, sigma, 1e-6)
		t.CheckLE(fmt.Sprintf("k=%d mem factor vs σ", levels[i]), maxMem, sigma, 1e-6)
	}
	t.Notes = append(t.Notes, "Theorem VI.3: both factors ≤ σ")
	return t
}

// E10 compares the scheduling regimes of Section II on an SMP-CMP cluster
// as the per-level migration overhead grows: the crossover the paper's
// introduction motivates.
func (s Suite) E10(ctx context.Context) *Table {
	t := newTable("E10", "overhead", "global", "partitioned", "semi-part", "clustered", "hierarchical")
	overheads := []float64{0, 0.1, 0.25, 0.5, 1.0, 2.0}
	if s.Quick {
		overheads = []float64{0, 0.5, 2.0}
	}
	rng := rand.New(rand.NewSource(s.Seed + 7))
	// Slightly more similar jobs than machines: the regime where migration
	// buys load balance (the Example V.1 effect) and overheads decide.
	nJobs := 11
	seed := rng.Int63()
	nodeBudget := 3_000_000
	if s.Quick {
		nodeBudget = 200_000
	}
	cfgs := make([]workload.Config, len(overheads))
	for i, ovh := range overheads {
		cfgs[i] = workload.Config{
			Topology: workload.SMPCMP, Branching: []int{2, 2, 2},
			Jobs: nJobs, Seed: seed, MinWork: 25, MaxWork: 40,
			SpeedSpread: 0.15, OverheadPerLevel: ovh,
		}
	}
	// One overhead row is one pool task. Its five regimes stay sequential:
	// each later regime inherits the earlier ones' upper bounds.
	type regimes struct {
		ok    bool
		v     [5]int64 // global, partitioned, semi-part, clustered, hierarchical
		exact [5]bool
	}
	rows := mapTrials(ctx, len(cfgs), func(i int) regimes {
		in, err := workload.Generate(cfgs[i])
		if err != nil {
			return regimes{}
		}
		f := in.Family
		root := f.Roots()[0]

		// regime solves the restriction exactly when the branch and bound
		// fits its node budget; otherwise it reports the best upper bound
		// available — the 2-approximation or any smaller-regime solution,
		// which remains feasible in a superset family — marked "≤".
		regime := func(keep []int, inherited int64) (int64, bool) {
			sub, err := model.Restrict(in, keep)
			if err != nil {
				return inherited, false
			}
			if _, opt, err := exact.Solve(ctx, sub, exact.Options{MaxNodes: nodeBudget}, nil); err == nil {
				return opt, true
			}
			best := inherited
			if res, err := approx.TwoApprox(ctx, sub, nil); err == nil && (best <= 0 || res.Makespan < best) {
				best = res.Makespan
			}
			return best, false
		}
		var singles, chips, all []int
		for set := 0; set < f.Len(); set++ {
			all = append(all, set)
			if f.IsSingleton(set) {
				singles = append(singles, set)
			}
			if f.Size(set) == 2 && !f.IsSingleton(set) {
				chips = append(chips, set)
			}
		}
		r := regimes{ok: true}
		r.v[0], r.exact[0] = regime([]int{root}, 0)
		r.v[1], r.exact[1] = regime(singles, 0)
		r.v[2], r.exact[2] = regime(append([]int{root}, singles...), min64pos(r.v[0], r.v[1]))
		r.v[3], r.exact[3] = regime(append(append([]int{root}, chips...), singles...), r.v[2])
		r.v[4], r.exact[4] = regime(all, min64pos(r.v[2], r.v[3]))
		return r
	})
	if ctx.Err() != nil {
		return t
	}
	format := func(v int64, exactV bool) string {
		if v <= 0 {
			return "-"
		}
		if exactV {
			return fmt.Sprint(v)
		}
		return fmt.Sprintf("≤%d", v)
	}
	for i, ovh := range overheads {
		r := rows[i]
		if !r.ok {
			continue
		}
		t.AddRow(fmt.Sprintf("%.2f", ovh),
			format(r.v[0], r.exact[0]), format(r.v[1], r.exact[1]), format(r.v[2], r.exact[2]),
			format(r.v[3], r.exact[3]), format(r.v[4], r.exact[4]))
		// Hierarchical never loses to any restricted regime: its family is
		// a superset, and upper-bound fallbacks inherit smaller regimes.
		if hierAll := r.v[4]; hierAll > 0 {
			for p, name := range []string{"global", "partitioned", "semi-part", "clustered"} {
				if r.v[p] > 0 {
					t.CheckLE(fmt.Sprintf("ovh=%.2f hier vs %s", ovh, name),
						float64(hierAll), float64(r.v[p]), 0)
				}
			}
		}
	}
	t.CheckGE("series length", float64(len(t.Rows)), 2, 0)
	t.Notes = append(t.Notes,
		"expected shape: global wins at overhead 0; partitioned wins at high overhead;",
		"hierarchical ≤ every other regime (its family contains theirs); ≤x = upper bound (node cap hit)")
	return t
}

// min64pos returns the smaller positive value (0 = unknown).
func min64pos(a, b int64) int64 {
	switch {
	case a <= 0:
		return b
	case b <= 0:
		return a
	case a < b:
		return a
	}
	return b
}

// E11 exercises the Section II 8-approximation on general (non-laminar)
// masks; the measured ratio to the nonpreemptive LP bound stays ≤ 2.
func (s Suite) E11(ctx context.Context) *Table {
	t := newTable("E11", "m", "n", "extra sets", "trials", "avg ALG/LP", "max ALG/LP")
	rng := rand.New(rand.NewSource(s.Seed + 8))
	for _, c := range [][3]int{{4, 10, 3}, {6, 16, 5}, {8, 24, 8}} {
		m, n, extra := c[0], c[1], c[2]
		trials := s.trials(15)
		var sum, max float64
		cnt := 0
		for k := 0; k < trials; k++ {
			if ctx.Err() != nil {
				return t
			}
			g := workload.GenerateGeneral(m, n, extra, rng.Int63())
			res, err := approx.EightApprox(ctx, g, nil)
			if err != nil {
				continue
			}
			r := float64(res.Makespan) / float64(res.LPBound)
			sum += r
			if r > max {
				max = r
			}
			cnt++
		}
		if cnt == 0 {
			continue
		}
		t.AddRow(m, n, extra, cnt, sum/float64(cnt), max)
		t.CheckLE(fmt.Sprintf("m=%d n=%d max ALG/LP", m, n), max, 2, 1e-7)
	}
	t.Notes = append(t.Notes, "LST guarantees ALG ≤ 2·LP; the paper's end-to-end bound is 8·OPT")
	return t
}

// E12 profiles the solver: wall time of the LP binary search plus rounding
// as instance size grows. It stays sequential, unlike the trial sweeps:
// its time column is wall clock, which rows solved side by side would
// skew, and its largest row takes nearly all of its time anyway.
func (s Suite) E12(ctx context.Context) *Table {
	t := newTable("E12", "topology", "m", "n", "LP vars", "T*", "time")
	rng := rand.New(rand.NewSource(s.Seed + 9))
	sizes := [][2]int{{8, 40}, {8, 80}, {16, 80}, {16, 160}, {32, 160}}
	if s.Quick {
		sizes = [][2]int{{8, 40}, {16, 80}}
	}
	for _, mn := range sizes {
		if ctx.Err() != nil {
			return t
		}
		m, n := mn[0], mn[1]
		br := []int{2, 2, 2}
		if m == 16 {
			br = []int{2, 2, 2, 2}
		} else if m == 32 {
			br = []int{2, 2, 2, 2, 2}
		}
		cfg := workload.Config{
			Topology: workload.SMPCMP, Branching: br,
			Jobs: n, Seed: rng.Int63(), MinWork: 10, MaxWork: 100,
			SpeedSpread: 0.5, OverheadPerLevel: 0.3,
		}
		in, err := workload.Generate(cfg)
		if err != nil {
			continue
		}
		start := time.Now()
		res, err := approx.TwoApprox(ctx, in, nil)
		if err != nil {
			t.AddRow("smp-cmp", m, n, "-", "-", "error: "+err.Error())
			t.CheckFail(fmt.Sprintf("m=%d n=%d solve", m, n), err.Error())
			continue
		}
		elapsed := time.Since(start)
		nvars := res.Instance.N() * res.Instance.Family.Len()
		t.AddRow("smp-cmp", m, n, nvars, res.LPBound, elapsed.Round(time.Millisecond).String())
	}
	t.CheckGE("rows produced", float64(len(t.Rows)), 1, 0)
	return t
}
