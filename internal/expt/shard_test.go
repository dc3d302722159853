package expt

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func TestSortIDsSuiteOrder(t *testing.T) {
	ids := []string{"RT2", "E10", "MC1", "E2", "RT1", "E1", "Exx"}
	SortIDs(ids)
	want := []string{"E1", "E2", "E10", "Exx", "MC1", "RT1", "RT2"}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("SortIDs = %v, want %v", ids, want)
	}
}

// TestPlanPartitionProperty: for pseudo-random id sets, cost maps and
// shard counts, every plan is a true partition — the union of the shards
// is exactly the input set, no id appears twice, each shard is in suite
// order — and planning is deterministic (same inputs, same plan).
func TestPlanPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		nIDs := rng.Intn(24)
		ids := make([]string, nIDs)
		costs := map[string]float64{}
		for i := range ids {
			ids[i] = fmt.Sprintf("E%d", i+1)
			if rng.Intn(2) == 0 {
				ids[i] = fmt.Sprintf("X%02d", i)
			}
			// Some trials get full positive costs (LPT path), some get
			// holes or zeros (round-robin fallback).
			switch rng.Intn(3) {
			case 0:
				costs[ids[i]] = 1 + rng.Float64()*100
			case 1:
				costs[ids[i]] = 0
			}
		}
		// Shuffle so Plan's canonicalization is what orders things.
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		n := 1 + rng.Intn(nIDs+3)

		shards := Plan(ids, n, costs)
		if len(shards) != n {
			t.Fatalf("trial %d: got %d shards, want %d", trial, len(shards), n)
		}
		seen := map[string]int{}
		for k, shard := range shards {
			sorted := append([]string(nil), shard...)
			SortIDs(sorted)
			if !reflect.DeepEqual(shard, sorted) {
				t.Fatalf("trial %d: shard %d not in suite order: %v", trial, k, shard)
			}
			for _, id := range shard {
				seen[id]++
			}
		}
		if len(seen) != len(ids) {
			t.Fatalf("trial %d: union has %d ids, input has %d", trial, len(seen), len(ids))
		}
		for _, id := range ids {
			if seen[id] != 1 {
				t.Fatalf("trial %d: id %s appears %d times across shards", trial, id, seen[id])
			}
		}
		if again := Plan(ids, n, costs); !reflect.DeepEqual(shards, again) {
			t.Fatalf("trial %d: Plan not deterministic:\n%v\n%v", trial, shards, again)
		}
	}
}

func TestPlanRoundRobinFallback(t *testing.T) {
	ids := []string{"E3", "E1", "E4", "E2", "E5"}
	// Only a cost map with no positive entry at all falls back to
	// round-robin over the suite-sorted ids; a partial map is completed
	// by median imputation instead (see the regression test below).
	for _, costs := range []map[string]float64{nil, {}, {"E1": 0, "E2": -4}} {
		shards := Plan(ids, 2, costs)
		want := [][]string{{"E1", "E3", "E5"}, {"E2", "E4"}}
		if !reflect.DeepEqual(shards, want) {
			t.Fatalf("costs=%v: Plan = %v, want %v", costs, shards, want)
		}
	}
}

// Regression for the silent fallback Plan used to have: one experiment
// missing from the cost map (new experiment, not yet in the trajectory)
// must not discard every recorded cost and degrade to round-robin — the
// missing cost is imputed as the median of the known ones and the plan
// stays LPT-balanced.
func TestPlanImputesMedianForMissingCost(t *testing.T) {
	ids := []string{"E1", "E2", "E3", "E4", "E5"}
	// E5 is the new experiment with no recorded cost; the median of the
	// known costs {2,4,8,10} is 6. LPT order E1(10), E2(8), E5(6),
	// E4(4), E3(2): E1->s0(10), E2->s1(8), E5->s1(14), E4->s0(14),
	// E3 ties at 14 -> lowest index s0(16).
	costs := map[string]float64{"E1": 10, "E2": 8, "E3": 2, "E4": 4}
	want := [][]string{{"E1", "E3", "E4"}, {"E2", "E5"}}
	if got := Plan(ids, 2, costs); !reflect.DeepEqual(got, want) {
		t.Fatalf("Plan = %v, want %v", got, want)
	}
	// A zero-cost entry is imputed the same way as a missing one.
	costs["E5"] = 0
	if got := Plan(ids, 2, costs); !reflect.DeepEqual(got, want) {
		t.Fatalf("Plan with zero-cost entry = %v, want %v", got, want)
	}
}

func TestPlanLPTBalancing(t *testing.T) {
	ids := []string{"E1", "E2", "E3", "E4"}
	costs := map[string]float64{"E1": 8, "E2": 5, "E3": 3, "E4": 2}
	// LPT: E1(8)->shard0, E2(5)->shard1, E3(3)->shard1 (load 5 < 8),
	// E4(2)->shard0 (tie at 8, lowest index wins). Loads 10 vs 8 — better
	// than round-robin's 11 vs 7.
	want := [][]string{{"E1", "E4"}, {"E2", "E3"}}
	if got := Plan(ids, 2, costs); !reflect.DeepEqual(got, want) {
		t.Fatalf("Plan = %v, want %v", got, want)
	}
}

func TestPlanMoreShardsThanIDs(t *testing.T) {
	shards := Plan([]string{"E1"}, 3, nil)
	want := [][]string{{"E1"}, nil, nil}
	if !reflect.DeepEqual(shards, want) {
		t.Fatalf("Plan = %v, want %v", shards, want)
	}
	if got := Plan(nil, 2, nil); len(got) != 2 || len(got[0]) != 0 || len(got[1]) != 0 {
		t.Fatalf("Plan(nil, 2) = %v, want two empty shards", got)
	}
}

func TestPlanClampsShardCount(t *testing.T) {
	for _, n := range []int{0, -3} {
		shards := Plan([]string{"E2", "E1"}, n, nil)
		if len(shards) != 1 || !reflect.DeepEqual(shards[0], []string{"E1", "E2"}) {
			t.Fatalf("Plan(n=%d) = %v, want one full shard", n, shards)
		}
	}
}
