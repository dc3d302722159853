package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"hsp/internal/expt"
)

// paperPack is the offline reproduction workload: the four quick packs
// (paper, rt, memcap, dag) through expt.Runner the way hbench runs them
// by default, in repeated passes, each checked byte for byte against the
// committed goldens. It covers the large exact searches (E10, E15), the
// LP binary search of E12, memcap's iterative rounding, the unrelated
// baselines and the trial-level worker pool, which serve traffic barely
// touches; it has no HTTP and no cache. One pass is too short to time
// alone, so a run times many. Its inputs are pinned by the goldens (the
// suite seed hbench uses by default), not by --seed.
const paperPack = "paper-pack"

// packWorkers is the runner's experiment-level pool in the measured
// passes: 1, hbench's default, so experiments run one after another and
// each spreads its trials over the cores through expt's shared pool. With
// one experiment per core instead (hbench -parallel), a pass's wall time
// depends on which experiments happen to overlap: on a shared 2-vCPU host
// the middle half of ten 10-second runs of the same code spread by 0.3 to
// 0.4 of their median, against 0.06 for this setting at 30 seconds. The
// traced run still measures that pool's efficiency.
const packWorkers = 1

// packNames are the quick packs in golden order.
var packNames = []string{"paper", "rt", "memcap", "dag"}

// packSuite is the configuration the goldens were made with
// (hbench -quick at its default seed).
var packSuite = expt.Suite{Quick: true, Seed: 7}

// goldenDir holds golden_quick_<pack>.jsonl, relative to the repository
// root the benchmark runs from.
var goldenDir = filepath.Join("cmd", "hbench", "testdata")

// packEnv is the set-up paper-pack workload.
type packEnv struct {
	ids    []string
	golden map[string][]byte // experiment ID → its golden JSONL record
}

// setupPack loads the goldens and runs one warm-up pass.
func setupPack() (*packEnv, error) {
	env := &packEnv{golden: map[string][]byte{}}
	for _, p := range packNames {
		ids, err := expt.PackIDs(p)
		if err != nil {
			return nil, err
		}
		b, err := os.ReadFile(filepath.Join(goldenDir, "golden_quick_"+p+".jsonl"))
		if err != nil {
			return nil, fmt.Errorf("loading goldens: %w", err)
		}
		lines := bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
		if len(lines) != len(ids) {
			return nil, fmt.Errorf("pack %s has %d experiments, its golden %d records", p, len(ids), len(lines))
		}
		for i, id := range ids {
			env.golden[id] = lines[i]
		}
		env.ids = append(env.ids, ids...)
	}
	if !slices.Equal(env.ids, packIDs) {
		return nil, fmt.Errorf("the quick packs hold %v, the benchmark's metrics name %v", env.ids, packIDs)
	}
	if _, err := env.pass(packWorkers); err != nil {
		return nil, err
	}
	return env, nil
}

// passResult is one pass over the four packs.
type passResult struct {
	wall    time.Duration
	results []expt.Result
	ops     ops
	durMS   []float64 // per passing experiment
}

// check compares one experiment's record with its golden and requires
// every claim to pass.
func (env *packEnv) check(r expt.Result) error {
	b, err := expt.MarshalResult(r, expt.JSONOptions{})
	if err != nil {
		return err
	}
	if r.Status != expt.StatusPass {
		return fmt.Errorf("%s: status %s %s", r.ID, r.Status, r.Error)
	}
	if !bytes.Equal(b, env.golden[r.ID]) {
		return fmt.Errorf("%s: record differs from its golden", r.ID)
	}
	return nil
}

// pass runs the listed experiments (all four packs when ids is empty)
// on the given number of workers and checks every record.
func (env *packEnv) pass(workers int, ids ...string) (*passResult, error) {
	if len(ids) == 0 {
		ids = env.ids
	}
	r := expt.Runner{Suite: packSuite, Workers: workers}
	start := time.Now()
	results, err := r.Run(context.Background(), ids)
	if err != nil {
		return nil, err
	}
	pres := &passResult{wall: time.Since(start), results: results}
	for _, res := range results {
		pres.ops.Attempted++
		if err := env.check(res); err != nil {
			logFailure(err)
			pres.ops.Golden++
			continue
		}
		pres.ops.Succeeded++
		pres.durMS = append(pres.durMS, float64(res.Duration().Nanoseconds())/1e6)
	}
	return pres, nil
}

// e6Ratio is the mean of the "avg ALG/T*" column of E6: the mean
// makespan / LP bound of the 2-approximation the pack reports.
func e6Ratio(results []expt.Result) (float64, error) {
	for _, r := range results {
		if r.ID != "E6" || r.Table == nil {
			continue
		}
		col := slices.Index(r.Table.Columns, "avg ALG/T*")
		if col < 0 {
			break
		}
		var xs []float64
		for _, row := range r.Table.Rows {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				return 0, fmt.Errorf("E6 cell %q: %w", row[col], err)
			}
			xs = append(xs, v)
		}
		return mean(xs), nil
	}
	return 0, fmt.Errorf("no E6 table with an avg ALG/T* column")
}

// runPack sets up, measures and reports paper-pack.
func runPack(o options) (*report, error) {
	env, setupS, err := timeSetup(setupReps, setupPack, func(*packEnv) {})
	if err != nil {
		return nil, err
	}
	if o.trace {
		return tracePack(o, env)
	}
	workers := packWorkers
	deadline := time.Now().Add(seconds(o.seconds))
	start := time.Now()
	var passes []*passResult
	for len(passes) == 0 || time.Now().Before(deadline) {
		pres, err := env.pass(workers)
		if err != nil {
			return nil, err
		}
		passes = append(passes, pres)
	}
	elapsed := time.Since(start)
	ratioE6, err := e6Ratio(passes[0].results)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	var durs, walls []float64
	for _, pres := range passes {
		rep.ops.add(pres.ops)
		durs = append(durs, pres.durMS...)
		walls = append(walls, pres.wall.Seconds())
	}
	rep.metrics = map[string]float64{
		"throughput_rps": float64(rep.ops.Succeeded) / elapsed.Seconds(),
		"p50_ms":         quantile(durs, 0.50),
		"p99_ms":         quantile(durs, 0.99),
		"makespan_ratio": ratioE6,
		"suite_wall_s":   median(walls),
		"setup_s":        setupS,
	}
	rep.facts = map[string]any{"passes": len(passes), "pass_wall_s": walls, "latency_samples": len(durs), "workers": workers}
	// Read the live heap with the passes' records unreachable.
	passes = nil
	rep.metrics["live_heap_mib"] = liveHeapMiB()
	return rep, nil
}

// tracePack is paper-pack's traced run, in two halves of the run's time.
// The first half repeats parallel passes and measures allocation and
// how well the runner keeps its workers busy; the second runs one
// experiment at a time through expt.Runner.Run, recording a span per
// experiment.
func tracePack(o options, env *packEnv) (*report, error) {
	workers := runtime.GOMAXPROCS(0)
	half := seconds(o.seconds / 2)
	rep := &report{}
	var allocMiB, efficiency []float64
	deadline := time.Now().Add(half)
	for len(allocMiB) == 0 || time.Now().Before(deadline) {
		before := runtimeMem()
		pres, err := env.pass(workers)
		if err != nil {
			return nil, err
		}
		after := runtimeMem()
		rep.ops.add(pres.ops)
		busy := 0.0
		for _, r := range pres.results {
			busy += r.Duration().Seconds()
		}
		allocMiB = append(allocMiB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		efficiency = append(efficiency, busy/(float64(workers)*pres.wall.Seconds()))
	}

	tr := &tracer{t0: time.Now()}
	perID := map[string][]float64{}
	var wrapper []float64 // span minus the runner's own experiment time
	deadline = time.Now().Add(half)
	var id int64
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for _, eid := range env.ids {
			t0 := time.Now()
			pres, err := env.pass(1, eid)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			id++
			tr.add(span{ID: id, Name: "expt." + eid, Kind: eid, Start: tr.at(t0), End: tr.at(t1)})
			rep.ops.add(pres.ops)
			perID[eid] = append(perID[eid], float64(t1.Sub(t0).Nanoseconds())/1e6)
			wrapper = append(wrapper, float64((t1.Sub(t0)-pres.results[0].Duration()).Nanoseconds())/1e6)
		}
	}
	path, err := tr.write(o.out, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	m := map[string]float64{
		"expt.parallel_efficiency": median(efficiency),
		"go.alloc_mib_per_pass":    median(allocMiB),
		"trace.overhead_ms":        median(wrapper),
		"load.distinct_share":      1 / float64(len(allocMiB)),
		"load.repeat_share":        1 - 1/float64(len(allocMiB)),
	}
	for eid, ms := range perID {
		m["expt."+eid+"_ms"] = median(ms)
	}
	rep.metrics = m
	rep.facts = map[string]any{"passes": len(allocMiB), "rounds": len(perID[env.ids[0]]), "workers": workers, "spans": path}
	return rep, nil
}
