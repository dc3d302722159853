package expt

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Status classifies the outcome of one experiment run.
type Status string

const (
	// StatusPass: the experiment ran and every claim check passed.
	StatusPass Status = "pass"
	// StatusFail: the experiment ran but at least one claim check failed —
	// the reproduction has drifted from the paper.
	StatusFail Status = "fail"
	// StatusError: the experiment panicked; the panic was isolated and the
	// rest of the suite continued.
	StatusError Status = "error"
	// StatusTimeout: the experiment exceeded the per-experiment deadline
	// and was cooperatively aborted via its context.
	StatusTimeout Status = "timeout"
	// StatusCanceled: the suite's context was canceled — either before the
	// experiment started or while it was in flight.
	StatusCanceled Status = "canceled"
)

// Result is the machine-readable record of one experiment run: what CI
// gates on and what the BENCH_*.json perf trajectory appends. Rows is the
// row count; the full table (columns, rows, notes) rides along so the
// record is self-contained.
type Result struct {
	ID         string     `json:"id"`
	Title      string     `json:"title"`
	Claim      string     `json:"claim,omitempty"`
	Status     Status     `json:"status"`
	Error      string     `json:"error,omitempty"`
	Seed       int64      `json:"seed"`
	DurationMS float64    `json:"duration_ms"`
	Rows       int        `json:"rows"`
	Checks     []Check    `json:"checks,omitempty"`
	Table      *TableJSON `json:"table,omitempty"`
	duration   time.Duration
}

// TableJSON is the serialized table payload of a Result.
type TableJSON struct {
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	Notes   []string   `json:"notes,omitempty"`
}

// Duration is the measured wall time of the experiment.
func (r Result) Duration() time.Duration { return r.duration }

// Failed reports whether the result should gate (anything but pass).
func (r Result) Failed() bool { return r.Status != StatusPass }

// JSONOptions controls serialization of results.
type JSONOptions struct {
	// Full includes the volatile fields: measured duration_ms and the
	// embedded table payload (whose E12 rows carry wall-clock cells). It
	// defaults to off so that two runs with the same seed — sequential or
	// parallel — serialize byte-identically and CI can diff them; pass
	// -json-full to cmd/hbench when the wall clock matters more than
	// stability.
	Full bool
}

// MarshalResult serializes one result as a single JSON record (no
// trailing newline). Default options zero every volatile field — measured
// duration and the table payload — so the record for a given seed is
// byte-identical whether the suite ran sequentially, in parallel, or
// streamed: two -stream runs differ at most in line order.
func MarshalResult(r Result, opts JSONOptions) ([]byte, error) {
	if opts.Full {
		r.DurationMS = float64(r.duration.Nanoseconds()) / 1e6
	} else {
		r.DurationMS = 0
		r.Table = nil
	}
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("expt: marshal %s: %w", r.ID, err)
	}
	return b, nil
}

// WriteJSON emits one JSON record per result, one per line (JSONL), in
// the given order. Field order is fixed by the struct, so default output
// for a given seed is byte-deterministic (see JSONOptions).
func WriteJSON(w io.Writer, results []Result, opts JSONOptions) error {
	for _, r := range results {
		b, err := MarshalResult(r, opts)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// Summarize counts results by status and returns a one-line suite
// verdict plus whether the suite as a whole failed.
func Summarize(results []Result) (string, bool) {
	var pass, fail, errs, timeouts, canceled int
	for _, r := range results {
		switch r.Status {
		case StatusPass:
			pass++
		case StatusFail:
			fail++
		case StatusError:
			errs++
		case StatusTimeout:
			timeouts++
		case StatusCanceled:
			canceled++
		}
	}
	line := fmt.Sprintf("%d/%d experiments passed", pass, len(results))
	if fail > 0 {
		line += fmt.Sprintf(", %d failed claim checks", fail)
	}
	if errs > 0 {
		line += fmt.Sprintf(", %d errored", errs)
	}
	if timeouts > 0 {
		line += fmt.Sprintf(", %d timed out", timeouts)
	}
	if canceled > 0 {
		line += fmt.Sprintf(", %d canceled", canceled)
	}
	return line, pass != len(results)
}
