// Package trajectory appends to and reads back JSONL trajectory files
// such as hbench's BENCH_hbench.json: one JSON record per line, each
// carrying a "key" field that identifies comparable runs. What a record
// holds and how two records are compared (drift) stays with the
// command.
package trajectory

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
)

// Append marshals rec as one JSON line and appends it to path, creating
// the file if needed. A crash mid-append leaves the file's last line
// unterminated; appending straight after it would glue this record onto
// the fragment and lose both, so the fragment is terminated first.
func Append(path string, rec any) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	out := append(b, '\n')
	if rf, err := os.Open(path); err == nil {
		if st, err := rf.Stat(); err == nil && st.Size() > 0 {
			tail := make([]byte, 1)
			if _, err := rf.ReadAt(tail, st.Size()-1); err == nil && tail[0] != '\n' {
				out = append([]byte{'\n'}, out...)
			}
		}
		rf.Close()
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(out)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// Last returns the most recent record in path whose "key" field equals
// key, decoded as a T, or nil when there is none. A missing file means
// no history (nil, nil). Lines that do not decode are skipped rather
// than fatal, so one corrupted line cannot brick the trajectory. Lines
// are read unbounded (no bufio.Scanner token cap): a record carrying
// per-experiment fields for a large pack can exceed any fixed limit, and
// losing the whole trajectory to one long line would silently disable
// the drift checks that read it.
func Last[T any](path, key string) (*T, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var last *T
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			var probe struct {
				Key string `json:"key"`
			}
			if json.Unmarshal(line, &probe) == nil && probe.Key == key {
				var rec T
				if json.Unmarshal(line, &rec) == nil {
					last = &rec
				}
			}
		}
		if err == io.EOF {
			return last, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
