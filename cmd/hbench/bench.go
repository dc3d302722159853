package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"hsp/internal/expt"
	"hsp/internal/trajectory"
)

// benchRecord is one line of the BENCH_hbench.json trajectory: the
// machine-readable summary of one hbench run, appended per invocation so
// successive records chart the reproduction and its performance over
// time. Statuses and per-experiment wall times are kept so the next run
// can diff against this one (drift detection) without re-running.
type benchRecord struct {
	Schema int    `json:"schema"`
	Time   string `json:"time"` // RFC 3339 with nanoseconds, UTC
	// Key identifies comparable runs: pack, quick setting, seed and the
	// exact experiment set. Drift is only computed against the previous
	// record with the same key, so changing the seed or the -run subset
	// starts a fresh trajectory instead of reporting spurious drift.
	Key         string `json:"key"`
	Pack        string `json:"pack"`
	Quick       bool   `json:"quick"`
	Seed        int64  `json:"seed"`
	Workers     int    `json:"workers"`
	GoVersion   string `json:"go"`
	Experiments int    `json:"experiments"`
	Pass        int    `json:"pass"`
	Fail        int    `json:"fail"`
	Errors      int    `json:"errors"`
	Timeouts    int    `json:"timeouts"`
	Canceled    int    `json:"canceled"`
	// Other counts results whose status is none of the known five, so
	// Pass+Fail+Errors+Timeouts+Canceled+Other == Experiments always
	// holds; a future status can never silently vanish from the counters.
	Other       int                `json:"other,omitempty"`
	WallMS      float64            `json:"wall_ms"`
	Statuses    map[string]string  `json:"statuses"`
	DurationsMS map[string]float64 `json:"durations_ms"`
	Drift       *driftReport       `json:"drift,omitempty"`
}

// driftReport compares this run against the previous record for the same
// key. Status changes are authoritative — a pass that
// stopped passing is reproduction drift (and the suite exits nonzero
// through its own claim checks); the wall ratio is informational, since
// timing noise is not drift.
type driftReport struct {
	Against       string   `json:"against"` // Time of the compared record
	StatusChanges []string `json:"status_changes,omitempty"`
	Regressed     bool     `json:"regressed"` // any pass -> non-pass change
	WallRatio     float64  `json:"wall_ratio"`
}

// benchKey builds the trajectory key identifying comparable runs. The ids
// are order-normalized (lexicographically, matching the historical record
// format), so the key names the experiment set, not the order it ran in.
func benchKey(pack string, quick bool, seed int64, ids []string) string {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	return fmt.Sprintf("%s|quick=%t|seed=%d|%s", pack, quick, seed, strings.Join(sorted, ","))
}

// appendBenchRecord appends one record to path (JSONL) and returns
// human-readable drift lines versus the previous record for the same
// key, if one exists.
func appendBenchRecord(path, pack string, quick bool, seed int64, workers int, results []expt.Result, wall time.Duration) ([]string, error) {
	ids := make([]string, len(results))
	for i, r := range results {
		ids[i] = r.ID
	}
	sort.Strings(ids)
	rec := benchRecord{
		Schema:      1,
		Time:        time.Now().UTC().Format(time.RFC3339Nano),
		Key:         benchKey(pack, quick, seed, ids),
		Pack:        pack,
		Quick:       quick,
		Seed:        seed,
		Workers:     workers,
		GoVersion:   runtime.Version(),
		Experiments: len(results),
		WallMS:      float64(wall.Nanoseconds()) / 1e6,
		Statuses:    make(map[string]string, len(results)),
		DurationsMS: make(map[string]float64, len(results)),
	}
	for _, r := range results {
		switch r.Status {
		case expt.StatusPass:
			rec.Pass++
		case expt.StatusFail:
			rec.Fail++
		case expt.StatusError:
			rec.Errors++
		case expt.StatusTimeout:
			rec.Timeouts++
		case expt.StatusCanceled:
			rec.Canceled++
		default:
			rec.Other++
		}
		rec.Statuses[r.ID] = string(r.Status)
		rec.DurationsMS[r.ID] = float64(r.Duration().Nanoseconds()) / 1e6
	}

	prev, err := trajectory.Last[benchRecord](path, rec.Key)
	if err != nil {
		return nil, err
	}
	var lines []string
	if prev != nil {
		d := &driftReport{Against: prev.Time}
		// Same key means the same experiment set, so statuses line up
		// one-to-one; iterate the sorted ids for deterministic output.
		for _, id := range ids {
			was, status := prev.Statuses[id], rec.Statuses[id]
			if was != status {
				d.StatusChanges = append(d.StatusChanges, fmt.Sprintf("%s: %s -> %s", id, was, status))
				if was == string(expt.StatusPass) {
					d.Regressed = true
				}
			}
		}
		if prev.WallMS > 0 {
			d.WallRatio = rec.WallMS / prev.WallMS
		}
		rec.Drift = d
		for _, c := range d.StatusChanges {
			lines = append(lines, c)
		}
		if d.Regressed {
			lines = append(lines, fmt.Sprintf("regression vs record of %s", prev.Time))
		}
	}

	if err := trajectory.Append(path, rec); err != nil {
		return nil, err
	}
	return lines, nil
}
