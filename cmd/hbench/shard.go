package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"hsp/internal/expt"
	"hsp/internal/trajectory"
)

// shardInfo is the metadata line a -shard run appends after its result
// records. It carries everything -merge needs to validate that a set of
// shard files forms one complete, disjoint suite run and to rebuild the
// canonical output and the merged bench record: the plan (ids, all), the
// run key inputs (pack, quick, seed), and the measured wall times that
// the byte-stable result lines deliberately omit.
type shardInfo struct {
	Schema  int    `json:"schema"`
	Index   int    `json:"index"` // 1-based shard index
	Of      int    `json:"of"`    // total shard count
	Pack    string `json:"pack"`
	Quick   bool   `json:"quick"`
	Seed    int64  `json:"seed"`
	Workers int    `json:"workers"`
	// IDs is this shard's subset; All is the full planned experiment set
	// in canonical suite order — the order the merged output reproduces.
	IDs         []string           `json:"ids"`
	All         []string           `json:"all"`
	WallMS      float64            `json:"wall_ms"`
	DurationsMS map[string]float64 `json:"durations_ms"`
}

// shardLine distinguishes the metadata line from result records: only
// metadata lines carry a top-level "shard" object.
type shardLine struct {
	Shard *shardInfo `json:"shard"`
}

// parseShardSpec parses "-shard i/N" into its 1-based index and total.
func parseShardSpec(spec string) (index, of int, err error) {
	i, n, ok := strings.Cut(spec, "/")
	if ok {
		index, err = strconv.Atoi(i)
		if err == nil {
			of, err = strconv.Atoi(n)
		}
	}
	if !ok || err != nil || of < 1 || index < 1 || index > of {
		return 0, 0, fmt.Errorf("invalid -shard %q (want i/N with 1 <= i <= N)", spec)
	}
	return index, of, nil
}

// loadCosts returns the per-experiment durations of the last trajectory
// record matching key, for cost-aware shard planning. An empty path, a
// missing file or no matching record means no costs (nil) and Plan falls
// back to round-robin. Every shard process reads the same committed
// trajectory, so every process derives the same plan.
func loadCosts(path, key string) (map[string]float64, error) {
	if path == "" {
		return nil, nil
	}
	rec, err := trajectory.Last[benchRecord](path, key)
	if err != nil || rec == nil {
		return nil, err
	}
	return rec.DurationsMS, nil
}

// writeShardMeta appends the shard metadata line after the shard's result
// records.
func writeShardMeta(w io.Writer, info shardInfo, results []expt.Result, wall time.Duration) error {
	info.Schema = 1
	info.WallMS = float64(wall.Nanoseconds()) / 1e6
	info.DurationsMS = make(map[string]float64, len(results))
	for _, r := range results {
		info.DurationsMS[r.ID] = float64(r.Duration().Nanoseconds()) / 1e6
	}
	b, err := json.Marshal(shardLine{Shard: &info})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runMerge implements -merge: it validates that the shard files form one
// complete, disjoint run of a single plan, writes the result records to
// outPath in canonical suite order — byte-identical to a sequential -json
// run of the same suite and seed (for an explicit -run list, one given in
// suite order: plain runs preserve the typed order, shards canonicalize)
// — re-derives the suite summary, and appends exactly one merged bench
// record when -bench-out is set.
func runMerge(outPath string, shardFiles []string, benchOut string, stdout io.Writer) error {
	if len(shardFiles) == 0 {
		return errors.New("-merge needs the shard JSONL files as arguments")
	}
	var (
		first     *shardInfo
		indexFile = map[int]string{}    // shard index -> file, for duplicate detection
		lines     = map[string][]byte{} // experiment id -> raw result line
		owner     = map[string]string{} // experiment id -> file, for disjointness errors
		durations = map[string]float64{}
		wallMS    float64
		workers   int
	)
	for _, path := range shardFiles {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var info *shardInfo
		var ids []string
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			var sl shardLine
			if json.Unmarshal(line, &sl) == nil && sl.Shard != nil {
				if info != nil {
					return fmt.Errorf("%s: more than one shard metadata line", path)
				}
				info = sl.Shard
				continue
			}
			var rec struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(line, &rec); err != nil || rec.ID == "" {
				return fmt.Errorf("%s: unrecognized line %q", path, line)
			}
			if prev, dup := owner[rec.ID]; dup {
				return fmt.Errorf("shards overlap: %s appears in both %s and %s", rec.ID, prev, path)
			}
			owner[rec.ID] = path
			lines[rec.ID] = append([]byte(nil), line...)
			ids = append(ids, rec.ID)
		}
		if info == nil {
			return fmt.Errorf("%s: no shard metadata line (not produced by -shard?)", path)
		}
		if info.Index < 1 || info.Index > info.Of {
			return fmt.Errorf("%s: shard index %d/%d out of range", path, info.Index, info.Of)
		}
		if prev, dup := indexFile[info.Index]; dup {
			return fmt.Errorf("shard %d/%d appears in both %s and %s", info.Index, info.Of, prev, path)
		}
		indexFile[info.Index] = path
		if first == nil {
			first = info
			workers = info.Workers
		} else {
			switch {
			case info.Of != first.Of:
				return fmt.Errorf("%s: shard count %d does not match %d", path, info.Of, first.Of)
			case info.Pack != first.Pack || info.Quick != first.Quick || info.Seed != first.Seed:
				return fmt.Errorf("%s: run key (pack=%s quick=%t seed=%d) does not match (pack=%s quick=%t seed=%d)",
					path, info.Pack, info.Quick, info.Seed, first.Pack, first.Quick, first.Seed)
			case !slices.Equal(info.All, first.All):
				return fmt.Errorf("%s: planned experiment set does not match the other shards", path)
			}
			if info.Workers != workers {
				workers = 0 // mixed pools; the merged record can't claim one
			}
		}
		if len(ids) != len(info.IDs) {
			return fmt.Errorf("%s: %d result lines but shard planned %d experiments", path, len(ids), len(info.IDs))
		}
		planned := map[string]bool{}
		for _, id := range info.IDs {
			planned[id] = true
		}
		for _, id := range ids {
			if !planned[id] {
				return fmt.Errorf("%s: result for %s not in the shard's plan", path, id)
			}
		}
		if info.WallMS > wallMS {
			wallMS = info.WallMS // makespan of the distributed run
		}
		for id, ms := range info.DurationsMS {
			durations[id] = ms
		}
	}
	if len(indexFile) != first.Of {
		var missing []string
		for i := 1; i <= first.Of; i++ {
			if _, ok := indexFile[i]; !ok {
				missing = append(missing, fmt.Sprintf("%d/%d", i, first.Of))
			}
		}
		return fmt.Errorf("incomplete merge: missing shard %s", strings.Join(missing, ", "))
	}
	if len(lines) != len(first.All) {
		return fmt.Errorf("merge covers %d experiments but the plan has %d", len(lines), len(first.All))
	}

	var buf bytes.Buffer
	results := make([]expt.Result, 0, len(first.All))
	for _, id := range first.All {
		line, ok := lines[id]
		if !ok {
			return fmt.Errorf("incomplete merge: no result for %s in any shard", id)
		}
		buf.Write(line)
		buf.WriteByte('\n')
		var res expt.Result
		if err := json.Unmarshal(line, &res); err != nil {
			return fmt.Errorf("result line for %s: %w", id, err)
		}
		res.SetDuration(time.Duration(durations[id] * float64(time.Millisecond)))
		results = append(results, res)
	}
	if err := os.WriteFile(outPath, buf.Bytes(), 0o644); err != nil {
		return err
	}

	if benchOut != "" {
		wall := time.Duration(wallMS * float64(time.Millisecond))
		drift, err := appendBenchRecord(benchOut, first.Pack, first.Quick, first.Seed, workers, first.Of, results, wall)
		if err != nil {
			return fmt.Errorf("bench record: %w", err)
		}
		for _, line := range drift {
			fmt.Fprintln(os.Stderr, "drift: "+line)
		}
	}

	summary, failed := expt.Summarize(results)
	if failed {
		return fmt.Errorf("suite failed: %s", summary)
	}
	fmt.Fprintf(stdout, "merged %d shards into %s: %s\n", first.Of, outPath, summary)
	return nil
}
