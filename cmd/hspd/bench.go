package main

import (
	"fmt"

	"hsp/internal/trajectory"
)

// loadDrift compares a loadtest run against the previous -bench-out
// record with the same key, mirroring hbench's trajectory gate.
// Correctness is gated elsewhere (claim failures exit nonzero on their
// own); drift watches the latency/throughput trajectory. Ratios are
// informational by default because CI machines differ run to run; with
// a -drift-fail factor set, a p99 blow-up or QPS collapse beyond the
// factor marks the run regressed and the loadtest exits nonzero.
type loadDrift struct {
	Against string `json:"against"` // Time of the compared record
	// P99Ratio is this run's p99 over the previous run's (>1 = slower).
	P99Ratio float64 `json:"p99_ratio,omitempty"`
	// QPSRatio is this run's sustained QPS over the previous run's
	// (<1 = less throughput).
	QPSRatio  float64 `json:"qps_ratio,omitempty"`
	Regressed bool    `json:"regressed"`
}

// summaryKey identifies comparable loadtest runs: same traffic mix
// (seed and probe set), same offered concurrency and duration class,
// and the same cache configuration — a cached run's latency profile is
// a different trajectory, not drift on the uncached one. Worker count
// and machine speed are recorded in the summary but kept out of the
// key — they are what the trajectory is watching.
func summaryKey(seed int64, concurrency, cacheEntries int) string {
	key := fmt.Sprintf("hspd-loadtest|seed=%d|concurrency=%d", seed, concurrency)
	if cacheEntries > 0 {
		key += fmt.Sprintf("|cache=%d", cacheEntries)
	}
	return key
}

// checkDrift fills sum.Drift against the last record with the same key
// in the trajectory file and returns human-readable drift lines.
// failRatio ≤ 0 reports without gating.
func checkDrift(path string, sum *loadSummary, failRatio float64) ([]string, error) {
	prev, err := trajectory.Last[loadSummary](path, sum.Key)
	if err != nil {
		return nil, err
	}
	if prev == nil {
		return nil, nil
	}
	d := &loadDrift{Against: prev.Time}
	if prev.P99MS > 0 {
		d.P99Ratio = sum.P99MS / prev.P99MS
	}
	if prev.QPS > 0 {
		d.QPSRatio = sum.QPS / prev.QPS
	}
	var lines []string
	if d.P99Ratio > 0 {
		lines = append(lines, fmt.Sprintf("p99 %.2fms vs %.2fms (%.2fx) against record of %s",
			sum.P99MS, prev.P99MS, d.P99Ratio, prev.Time))
	}
	if d.QPSRatio > 0 {
		lines = append(lines, fmt.Sprintf("QPS %.1f vs %.1f (%.2fx)", sum.QPS, prev.QPS, d.QPSRatio))
	}
	if failRatio > 0 {
		if d.P99Ratio > failRatio {
			d.Regressed = true
			lines = append(lines, fmt.Sprintf("p99 regressed beyond the %.0fx gate", failRatio))
		}
		if d.QPSRatio > 0 && d.QPSRatio < 1/failRatio {
			d.Regressed = true
			lines = append(lines, fmt.Sprintf("QPS regressed beyond the %.0fx gate", failRatio))
		}
	}
	sum.Drift = d
	return lines, nil
}
