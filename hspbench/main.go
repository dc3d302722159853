// Command hspbench is the repository benchmark. It runs one workload for
// a fixed time, checks every answer against its paper certificate (or
// the committed goldens), and prints one JSON result as the last line of
// standard output:
//
//	go run . --workload serve-cold --seed 1 --seconds 10 --trace 0
//
// It must run from the repository root. With --trace 0 it reports the
// end-to-end metrics; with --trace 1 it makes the traced run instead and
// reports the per-layer metrics, writing its spans under --out.
// BENCHMARK.json at the repository root lists the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ops counts operations by outcome. An operation is one request item (a
// batch item counts one) on the serve workloads and one experiment on
// paper-pack.
type ops struct {
	Attempted   int64 `json:"attempted"`
	Succeeded   int64 `json:"succeeded"`
	Shed        int64 `json:"shed"`
	Non200      int64 `json:"non_200"`
	Certificate int64 `json:"certificate"`
	Golden      int64 `json:"golden_mismatch"`
}

func (o *ops) failed() int64 { return o.Shed + o.Non200 + o.Certificate + o.Golden }

func (o *ops) add(p ops) {
	o.Attempted += p.Attempted
	o.Succeeded += p.Succeeded
	o.Shed += p.Shed
	o.Non200 += p.Non200
	o.Certificate += p.Certificate
	o.Golden += p.Golden
}

// report is what a workload run hands back to main: its metrics, its
// operation counts and the facts printed beside them.
type report struct {
	metrics map[string]float64
	ops     ops
	facts   map[string]any
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory the traced run writes its spans to
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hspbench:", err)
		os.Exit(1)
	}
}

// run parses the flags, runs the workload and writes the facts line and
// the result line to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hspbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 makes the traced run and reports the per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	steal0 := stealSeconds()
	rep, err := runWorkload(o)
	if err != nil {
		return err
	}
	steal := stealSeconds() - steal0
	res, err := finish(o, rep)
	if err != nil {
		return err
	}
	info := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"machine": machineFacts(), "ops": rep.ops,
	}
	if steal0 >= 0 {
		// CPU time the host gave to other guests during the run: the
		// first thing to look at when a run reads slower than its
		// neighbours.
		info["cpu_steal_s"] = steal
	}
	for k, v := range rep.facts {
		info[k] = v
	}
	b, err := json.Marshal(info)
	if err != nil {
		return err
	}
	b2, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", b, b2)
	return err
}

// runWorkload dispatches to the named workload.
func runWorkload(o options) (*report, error) {
	if o.workload == paperPack {
		return runPack(o)
	}
	spec, ok := serveWorkloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	return runServe(o, spec)
}

func workloadNames() []string {
	names := []string{paperPack}
	for n := range serveWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// finish turns a report into the result line: every metric of the
// run's set (end-to-end or per-layer) with its unit, and nothing else.
func finish(o options, rep *report) (*result, error) {
	defs := endToEnd
	if o.trace {
		defs = perLayer()
	}
	res := &result{
		Correct:   rep.ops.failed() == 0 && rep.ops.Attempted > 0,
		Attempted: rep.ops.Attempted,
		Failed:    rep.ops.failed(),
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			if !o.trace {
				return nil, fmt.Errorf("workload %s reported no %s", o.workload, d.name)
			}
			v = 0 // a layer this workload does not exercise
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range rep.metrics {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("workload %s reported undeclared metric %s", o.workload, name)
		}
	}
	return res, nil
}

// machineFacts identifies the machine and the code measured. Results
// from different machine facts are not comparable.
func machineFacts() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     commit,
		"source":     sourceDigest(),
	}
}

// sourceDigest hashes every Go source and go.mod under the working
// directory, so a checkout without version control still names the code
// it measured.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// stealSeconds reads the machine's cumulative steal time from
// /proc/stat, or -1 where it is unavailable.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100 // USER_HZ
}

// timeSetup runs setup reps times, keeping the last result and closing
// the others, and returns the median setup time in seconds.
func timeSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var keep T
	secs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return keep, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < reps-1 {
			teardown(v)
		} else {
			keep = v
		}
	}
	return keep, median(secs), nil
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// liveHeapMiB forces a collection and reads the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
