package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"hsp/internal/serve"
)

// TestCatalogueDeterministic pins the generator: the same seed gives a
// byte-identical catalogue, another seed a different one.
func TestCatalogueDeterministic(t *testing.T) {
	encode := func(seed int64) []byte {
		c, err := buildCatalogue(seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, it := range c.items {
			buf.WriteString(it.kind + " " + it.path + " ")
			buf.Write(it.body)
			buf.WriteByte('\n')
		}
		return buf.Bytes()
	}
	a, b := encode(11), encode(11)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different catalogues")
	}
	if bytes.Equal(a, encode(12)) {
		t.Fatal("different seeds gave the same catalogue")
	}
}

// TestCatalogueKinds checks every request kind is present in each size
// and exact only on small instances.
func TestCatalogueKinds(t *testing.T) {
	c, err := buildCatalogue(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, it := range c.items {
		seen[it.kind+"/"+it.size] = true
		if it.kind == kindExact && it.size != "small" {
			t.Errorf("exact request on a %s instance", it.size)
		}
	}
	for _, k := range []string{kindLP, kind2Approx, kindBest, kindMemory1, kindMemory2, kindDAG, kindSweep} {
		for _, sc := range sizes {
			if !seen[k+"/"+sc.name] {
				t.Errorf("no %s request of size %s", k, sc.name)
			}
		}
	}
	if !seen[kindExact+"/small"] {
		t.Error("no exact request")
	}
}

// TestZipfHitShare replays serve-zipf's draw streams through an LRU of
// the daemon's capacity: the hit share must sit in the middle of the
// range, 0.5 to 0.75, for every seed tried. The measured run reports
// the daemon's own ratio beside it.
func TestZipfHitShare(t *testing.T) {
	spec := serveWorkloads["serve-zipf"]
	for _, seed := range []int64{1, 2, 3} {
		c, err := buildCatalogue(seed, spec.rounds)
		if err != nil {
			t.Fatal(err)
		}
		if c.entries < 3*spec.cacheEntries {
			t.Fatalf("catalogue of %d requests is not several times the %d-entry cache", c.entries, spec.cacheEntries)
		}
		keys := make([][]serve.CacheKey, len(c.items))
		for i := range c.items {
			for _, r := range c.items[i].reqs {
				k, _ := serve.KeyRequest(r)
				keys[i] = append(keys[i], k)
			}
		}
		l := newLRU(spec.cacheEntries)
		rank := c.ranking(seed)
		warm := newZipf(rank, seed, 1000, spec.zipfAlpha)
		for i := 0; i < spec.warmup; i++ {
			l.touch(keys[warm.next()])
		}
		z := newZipf(rank, seed, 0, spec.zipfAlpha)
		hits, draws := 0, 20000
		for i := 0; i < draws; i++ {
			if l.touch(keys[z.next()]) {
				hits++
			}
		}
		share := float64(hits) / float64(draws)
		if share < 0.5 || share > 0.75 {
			t.Errorf("seed %d: LRU hit share %.3f outside [0.5, 0.75]", seed, share)
		}
	}
}

// answersOf solves every request of the items in process, as the daemon
// would, and returns their JSON answers by item.
func answersOf(t *testing.T, items []item) [][]byte {
	t.Helper()
	ws := serve.NewWorkspaces()
	out := make([][]byte, len(items))
	for i, it := range items {
		var resps []*serve.Response
		for _, req := range it.reqs {
			r, err := serve.Do(context.Background(), req, ws)
			if err != nil {
				t.Fatalf("%s: %v", it.kind, err)
			}
			resps = append(resps, r)
		}
		var v any = resps[0]
		if it.path == "/v1/batch" {
			v = resps
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// TestCertificateChecks passes every genuine answer of a catalogue and
// rejects each kind's doctored answer.
func TestCertificateChecks(t *testing.T) {
	c, err := buildCatalogue(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	bodies := answersOf(t, c.items)
	doctored := map[string]bool{}
	for i := range c.items {
		it := &c.items[i]
		if _, err := checkBody(it, bodies[i]); err != nil {
			t.Fatalf("genuine %s answer rejected: %v", it.kind, err)
		}
		if doctored[it.kind] {
			continue
		}
		for name, doctor := range doctors(it) {
			var resps []serve.Response
			if it.path == "/v1/batch" {
				if err := json.Unmarshal(bodies[i], &resps); err != nil {
					t.Fatal(err)
				}
			} else {
				resps = make([]serve.Response, 1)
				if err := json.Unmarshal(bodies[i], &resps[0]); err != nil {
					t.Fatal(err)
				}
			}
			doctor(resps)
			var v any = resps[0]
			if it.path == "/v1/batch" {
				v = resps
			}
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := checkBody(it, b); err == nil {
				t.Errorf("%s: doctored answer (%s) passed its check", it.kind, name)
			}
		}
		doctored[it.kind] = true
	}
	for _, k := range []string{kindLP, kind2Approx, kindBest, kindExact, kindMemory1, kindMemory2, kindDAG, kindSweep} {
		if !doctored[k] {
			t.Errorf("no %s answer was doctored", k)
		}
	}
}

// doctors returns, per kind, edits that each break the answer's
// certificate.
func doctors(it *item) map[string]func([]serve.Response) {
	ref := it.cert
	switch it.kind {
	case kindLP:
		return map[string]func([]serve.Response){
			"T* off by one": func(r []serve.Response) { r[0].LPBound++ },
		}
	case kind2Approx, kindBest:
		return map[string]func([]serve.Response){
			"makespan above 2T*": func(r []serve.Response) { r[0].Makespan = 2*r[0].LPBound + 1 },
			"T* inflated":        func(r []serve.Response) { r[0].LPBound *= 2; r[0].Makespan = r[0].LPBound },
		}
	case kindExact:
		return map[string]func([]serve.Response){
			"not optimal":           func(r []serve.Response) { r[0].Optimal = false },
			"above the 2approx":     func(r []serve.Response) { r[0].Makespan = ref.approx + 1 },
			"below the LP bound T*": func(r []serve.Response) { r[0].Makespan = ref.tStar - 1 },
		}
	case kindSweep:
		return map[string]func([]serve.Response){
			"schedulable below T*":     func(r []serve.Response) { r[0].Verdict = "schedulable" },
			"unschedulable at 2approx": func(r []serve.Response) { r[sweepFrames-1].Verdict = "unschedulable" },
			"makespan over the frame": func(r []serve.Response) {
				r[sweepFrames-1].Makespan = r[sweepFrames-1].Frame + 1
			},
		}
	case kindMemory1:
		return map[string]func([]serve.Response){
			"memory over 3B": func(r []serve.Response) { r[0].Fallbacks, r[0].MemFactor = 0, 3.5 },
			"load over 3T":   func(r []serve.Response) { r[0].Fallbacks, r[0].Makespan = 0, 3*r[0].LPBound+1 },
		}
	case kindMemory2:
		return map[string]func([]serve.Response){
			"memory over σ": func(r []serve.Response) { r[0].Fallbacks, r[0].MemFactor = 0, ref.sigma+0.1 },
		}
	case kindDAG:
		return map[string]func([]serve.Response){
			"makespan above 2LB": func(r []serve.Response) { r[0].Makespan = 2*r[0].ScenarioLB + 1 },
			"no scenario":        func(r []serve.Response) { r[0].Scenario = "" },
		}
	}
	return nil
}

// benchmarkFile is the part of BENCHMARK.json the tests compare with
// the code.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the code's metric
// and workload lists in step.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := loadBenchmarkFile(t)
	check := func(set string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", set, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)",
					set, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer())
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "serve-cold,serve-zipf,paper-pack" || len(workloadNames()) != 3 {
		t.Errorf("workloads %v, code has %v", names, workloadNames())
	}
}

// TestSmoke runs every workload briefly, untraced and traced, from the
// repository root, and requires a correct result naming every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up and runs all three workloads twice")
	}
	bf := loadBenchmarkFile(t)
	t.Chdir("..")
	out := t.TempDir()
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var stdout bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.6", "--trace", trace, "--out", out}
				if err := run(args, &stdout); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := bf.EndToEnd
				if trace == "1" {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v", m.Name, got)
					}
					if trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}
