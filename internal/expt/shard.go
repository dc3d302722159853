package expt

import "sort"

// Plan deterministically partitions experiment ids into n shards for
// multi-process suite runs. Because every experiment's seed derives from
// the base seed and its ID alone (DeriveSeed), any partition of the suite
// across processes reproduces the single-process results exactly; Plan
// only decides who runs what, and does so identically in every process
// that plans the same (ids, n, costs) inputs — the shard processes never
// talk to each other, the shared plan is all they share.
//
// Placement is longest-processing-time-first: ids are taken heaviest
// first and each goes to the shard with the smallest load so far, ties
// broken toward the lowest shard index. n < 1 is treated as 1; n larger
// than len(ids) yields empty shards.
//
// The cost of an id missing from costs (a new experiment not yet in the
// bench trajectory) or carrying a non-positive entry is imputed as the
// median of the known positive costs, so one unknown experiment
// perturbs the balance by a typical duration instead of discarding the
// whole cost map. Only when no id has a positive cost does placement
// fall back to round-robin over the ids in suite order. Either way each
// shard's ids come back in suite order, the union of the shards is
// exactly the input set, and no id appears twice.
func Plan(ids []string, n int, costs map[string]float64) [][]string {
	if n < 1 {
		n = 1
	}
	sorted := append([]string(nil), ids...)
	SortIDs(sorted)
	shards := make([][]string, n)
	if n == 1 {
		shards[0] = sorted
		return shards
	}

	eff := effectiveCosts(sorted, costs)
	if eff == nil {
		// No cost signal at all: round-robin over suite order.
		for i, id := range sorted {
			k := i % n
			shards[k] = append(shards[k], id)
		}
		return shards
	}

	// LPT: heaviest first onto the least-loaded shard. The stable sort
	// keeps equal-cost ids in suite order, so the plan is a pure
	// function of its inputs.
	order := append([]string(nil), sorted...)
	sort.SliceStable(order, func(i, j int) bool {
		return eff[order[i]] > eff[order[j]]
	})
	loads := make([]float64, n)
	for _, id := range order {
		k := 0
		for j := 1; j < n; j++ {
			if loads[j] < loads[k] {
				k = j
			}
		}
		loads[k] += eff[id]
		shards[k] = append(shards[k], id)
	}
	for _, s := range shards {
		SortIDs(s)
	}
	return shards
}

// effectiveCosts completes a possibly-partial cost map: ids with a
// positive recorded cost keep it, ids without one are imputed the median
// of the known positive costs. Returns nil when no id has a positive
// cost — the caller's signal to fall back to round-robin.
func effectiveCosts(ids []string, costs map[string]float64) map[string]float64 {
	var known []float64
	for _, id := range ids {
		if c := costs[id]; c > 0 {
			known = append(known, c)
		}
	}
	if len(known) == 0 {
		return nil
	}
	sort.Float64s(known)
	med := known[len(known)/2]
	if len(known)%2 == 0 {
		med = (known[len(known)/2-1] + known[len(known)/2]) / 2
	}
	eff := make(map[string]float64, len(ids))
	for _, id := range ids {
		if c := costs[id]; c > 0 {
			eff[id] = c
		} else {
			eff[id] = med
		}
	}
	return eff
}
