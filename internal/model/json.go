package model

import (
	"encoding/json"
	"fmt"
	"io"

	"hsp/internal/laminar"
)

// MaxMachines bounds the machine count Decode accepts. laminar.New
// allocates an m-bit bitset per set and two length-m tables, so an
// unchecked count would let a few bytes of JSON size gigabytes of
// allocation.
const MaxMachines = 4096

// instanceJSON is the on-disk format consumed by cmd/hsched and produced by
// cmd/hgen. Processing times of -1 denote inadmissibility.
type instanceJSON struct {
	Machines int       `json:"machines"`
	Sets     [][]int   `json:"sets"`
	Proc     [][]int64 `json:"proc"` // Proc[job][set]; -1 = inadmissible
}

// Encode writes the instance as JSON.
func Encode(w io.Writer, in *Instance) error {
	ij := instanceJSON{Machines: in.M()}
	for s := 0; s < in.Family.Len(); s++ {
		ij.Sets = append(ij.Sets, in.Family.Machines(s))
	}
	for _, proc := range in.Proc {
		row := make([]int64, len(proc))
		for s, v := range proc {
			if v >= Infinity {
				row[s] = -1
			} else {
				row[s] = v
			}
		}
		ij.Proc = append(ij.Proc, row)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ij)
}

// Decode parses an instance from JSON and validates it. The machine
// count must lie in [1, MaxMachines] and the family may hold at most
// 2m−1 sets (the most a laminar family of distinct sets can have); both
// are checked before anything is sized by them.
func Decode(r io.Reader) (*Instance, error) {
	var ij instanceJSON
	if err := json.NewDecoder(r).Decode(&ij); err != nil {
		return nil, fmt.Errorf("model: decoding instance: %w", err)
	}
	if ij.Machines < 1 || ij.Machines > MaxMachines {
		return nil, fmt.Errorf("model: machines must be in [1,%d], got %d", MaxMachines, ij.Machines)
	}
	if len(ij.Sets) > 2*ij.Machines-1 {
		return nil, fmt.Errorf("model: %d sets over %d machines; a laminar family has at most %d",
			len(ij.Sets), ij.Machines, 2*ij.Machines-1)
	}
	f, err := laminar.New(ij.Machines, ij.Sets)
	if err != nil {
		return nil, fmt.Errorf("model: invalid family: %w", err)
	}
	in := New(f)
	for j, row := range ij.Proc {
		if len(row) != f.Len() {
			return nil, fmt.Errorf("model: job %d has %d times for %d sets", j, len(row), f.Len())
		}
		proc := make([]int64, len(row))
		for s, v := range row {
			if v < 0 {
				proc[s] = Infinity
			} else {
				proc[s] = v
			}
		}
		in.AddJob(proc)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}
