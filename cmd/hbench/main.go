// Command hbench runs registered experiment packs — the paper
// reproduction suite E1–E15 and the rt/memcap workload packs (see
// EXPERIMENTS.md) — through the streaming, cancelable runner and reports
// each experiment's table and claim checks. It exits nonzero when any
// claim check fails, an experiment panics, a deadline is exceeded or the
// run is interrupted — the reproduction-drift gate CI relies on.
// Interrupting with Ctrl-C cancels the suite context: in-flight
// experiments abort cooperatively and are reported as canceled.
//
// Usage:
//
//	hbench                          # the paper pack (~20 s)
//	hbench -quick                   # reduced trial counts (seconds)
//	hbench -seed 11                 # another base seed (default 7)
//	hbench -pack rt                 # a registered pack (paper, rt, memcap, all)
//	hbench -list-packs              # what is registered
//	hbench -run E7,RT1              # an explicit subset, across packs
//	hbench -parallel                # experiments on a bounded worker pool
//	hbench -timeout 2m              # per-experiment deadline (aborts the work)
//	hbench -quick -json             # stable JSONL records (CI-diffable)
//	hbench -quick -stream           # JSONL emitted as each experiment finishes
//	hbench -quick -json-full        # JSONL with wall times and table payloads
//	hbench -csv out/                # additionally write CSV files
//	hbench -bench-out BENCH_hbench.json   # append a drift-checked per-run record
//	hbench -cpuprofile cpu.pprof -memprofile heap.pprof  # profile the run (PERFORMANCE.md)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hsp/internal/expt"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hbench: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hbench", flag.ContinueOnError)
	var (
		quick     = fs.Bool("quick", false, "reduced trial counts and sizes")
		seed      = fs.Int64("seed", 7, "base random seed (per-experiment seeds derive from it)")
		runID     = fs.String("run", "", "comma-separated experiment ids (overrides -pack)")
		pack      = fs.String("pack", expt.PaperPack, `experiment pack to run ("all" = every registered experiment; see -list-packs)`)
		listPacks = fs.Bool("list-packs", false, "list registered packs with their experiments and exit")
		csv       = fs.String("csv", "", "directory to write per-experiment CSV files")
		jsonOut   = fs.Bool("json", false, "emit one stable JSON record per experiment (JSONL) instead of tables")
		jsonFull  = fs.Bool("json-full", false, "like -json, plus measured duration_ms and table payloads (not byte-stable)")
		stream    = fs.Bool("stream", false, "emit each record the moment its experiment finishes (JSONL in completion order; byte-stable modulo order unless -json-full)")
		parallel  = fs.Bool("parallel", false, "run experiments on a bounded worker pool (GOMAXPROCS workers)")
		timeout   = fs.Duration("timeout", 0, "per-experiment deadline; cancels the experiment's context, aborting its solver loops (0 = none)")
		benchOut  = fs.String("bench-out", "", "append a per-run record (status counts, wall times) to this JSONL file, drift-checked against the previous record with the same pack/quick/seed/experiment-set key")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file (see PERFORMANCE.md)")
		memProf   = fs.String("memprofile", "", "write a pprof heap profile, taken after the run, to this file (see PERFORMANCE.md)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		// Deferred so the profile reflects the run even when it exits on a
		// failed claim check; runtime.GC() first so the heap profile shows
		// live retention, not garbage awaiting collection.
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "hbench: memprofile: %v\n", err)
			}
		}()
	}

	if *listPacks {
		printPacks(stdout)
		return nil
	}

	ids, packName, err := selectExperiments(*runID, *pack)
	if err != nil {
		return err
	}

	opts := expt.JSONOptions{Full: *jsonFull}
	r := expt.Runner{
		Suite:   expt.Suite{Quick: *quick, Seed: *seed},
		Workers: 1,
		Timeout: *timeout,
	}
	if *parallel {
		r.Workers = 0 // GOMAXPROCS
	}
	var sinkErr error
	if *stream {
		r.Sink = func(res expt.Result) {
			b, err := expt.MarshalResult(res, opts)
			if err == nil {
				_, err = fmt.Fprintf(stdout, "%s\n", b)
			}
			if err != nil && sinkErr == nil {
				sinkErr = err
			}
		}
	}

	start := time.Now()
	results, err := r.Run(ctx, ids)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	if sinkErr != nil {
		return sinkErr
	}

	switch {
	case *stream:
		// Every record already went out through the sink.
	case *jsonOut || *jsonFull:
		if err := expt.WriteJSON(stdout, results, opts); err != nil {
			return err
		}
	default:
		for _, res := range results {
			printResult(stdout, res)
		}
	}
	if *csv != "" {
		if err := writeCSVs(*csv, results); err != nil {
			return err
		}
	}
	if *benchOut != "" {
		drift, err := appendBenchRecord(*benchOut, packName, *quick, *seed, r.Workers, results, wall)
		if err != nil {
			return fmt.Errorf("bench record: %w", err)
		}
		for _, line := range drift {
			fmt.Fprintln(os.Stderr, "drift: "+line)
		}
	}

	summary, failed := expt.Summarize(results)
	if failed {
		// The error main prints to stderr carries the summary; printing it
		// here too would duplicate it.
		return fmt.Errorf("suite failed: %s", summary)
	}
	if *stream || *jsonOut || *jsonFull {
		fmt.Fprintln(os.Stderr, summary)
	} else {
		fmt.Fprintln(stdout, summary)
	}
	return nil
}

// selectExperiments resolves -run/-pack to experiment ids and the pack
// name recorded in bench records ("subset" for explicit -run lists,
// "all" for the whole registry).
func selectExperiments(runID, pack string) ([]string, string, error) {
	if runID != "" {
		var ids []string
		for _, id := range strings.Split(runID, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
		return ids, "subset", nil
	}
	if pack == "all" {
		return nil, "all", nil
	}
	ids, err := expt.PackIDs(pack)
	if err != nil {
		return nil, "", err
	}
	if len(ids) == 0 {
		return nil, "", fmt.Errorf("pack %q has no experiments registered", pack)
	}
	return ids, pack, nil
}

// printPacks renders the pack registry: each pack, its description and
// its experiments in suite order.
func printPacks(w io.Writer) {
	for _, p := range expt.Packs() {
		ids, _ := expt.PackIDs(p.Name)
		fmt.Fprintf(w, "%s: %s\n", p.Name, p.Description)
		fmt.Fprintf(w, "  experiments: %s\n", strings.Join(ids, ", "))
	}
	fmt.Fprintln(w, "all: every registered experiment across packs")
}

// printResult renders one experiment as text: the table (when the
// experiment produced one) plus status and wall time.
func printResult(w io.Writer, res expt.Result) {
	if res.Table != nil {
		t := &expt.Table{
			ID: res.ID, Title: res.Title,
			Columns: res.Table.Columns, Rows: res.Table.Rows,
			Notes: res.Table.Notes, Checks: res.Checks,
		}
		t.Fprint(w)
	} else {
		fmt.Fprintf(w, "== %s: %s ==\n", res.ID, res.Title)
	}
	if res.Status != expt.StatusPass {
		fmt.Fprintf(w, "  status: %s", res.Status)
		if res.Error != "" {
			fmt.Fprintf(w, " (%s)", res.Error)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  time: %s\n\n", res.Duration().Round(time.Millisecond))
}

func writeCSVs(dir string, results []expt.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, res := range results {
		if res.Table == nil {
			continue
		}
		t := &expt.Table{Columns: res.Table.Columns, Rows: res.Table.Rows}
		path := filepath.Join(dir, res.ID+".csv")
		if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
