package model

import (
	"fmt"

	"hsp/internal/laminar"
)

// Restrict builds a new instance whose family keeps only the given set ids
// (any subset of a laminar family is laminar); processing times carry over.
// It is how the experiments derive the partitioned, semi-partitioned and
// clustered regimes from one fully hierarchical instance. Jobs keep their
// indices; a job inadmissible on every kept set makes Restrict fail.
func Restrict(in *Instance, keep []int) (*Instance, error) {
	if len(keep) == 0 {
		return nil, fmt.Errorf("model: restriction keeps no sets")
	}
	sets := make([][]int, len(keep))
	for k, s := range keep {
		if s < 0 || s >= in.Family.Len() {
			return nil, fmt.Errorf("model: restriction references unknown set %d", s)
		}
		sets[k] = in.Family.Machines(s)
	}
	nf, err := laminar.New(in.M(), sets)
	if err != nil {
		return nil, fmt.Errorf("model: restricted family invalid: %w", err)
	}
	out := New(nf)
	for j := 0; j < in.N(); j++ {
		proc := make([]int64, len(keep))
		admissible := false
		for k, s := range keep {
			proc[k] = in.Proc[j][s]
			if proc[k] < Infinity {
				admissible = true
			}
		}
		if !admissible {
			return nil, fmt.Errorf("model: job %d loses every admissible set under the restriction", j)
		}
		out.AddJob(proc)
	}
	return out, nil
}
