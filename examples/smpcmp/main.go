// SMP-CMP cluster scheduling: the scenario from the paper's introduction.
// A cluster of dual-core Xeon style nodes has three communication levels —
// intra-chip, inter-chip, inter-node — so migration costs depend on how far
// a job moves. This example sweeps the per-level migration overhead and
// shows when each scheduling regime (global / partitioned /
// semi-partitioned / clustered / fully hierarchical) wins.
//
//	go run ./examples/smpcmp
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"hsp"
)

func main() {
	fmt.Println("2 nodes × 2 chips × 2 cores; 11 similar jobs; makespan per regime")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "overhead\tglobal\tpartitioned\tsemi-partitioned\thierarchical")

	for _, overhead := range []float64{0, 0.2, 0.5, 1.0} {
		in, err := hsp.GenerateWorkload(hsp.WorkloadConfig{
			Topology:  hsp.TopoSMPCMP,
			Branching: []int{2, 2, 2},
			Jobs:      11,
			Seed:      1234,
			MinWork:   25, MaxWork: 40,
			SpeedSpread:      0.15,
			OverheadPerLevel: overhead,
		})
		if err != nil {
			log.Fatal(err)
		}

		// Each regime reports the best makespan found (exact optimum when
		// the branch and bound finishes, 2-approximation otherwise). A
		// regime whose family contains another regime's inherits its
		// solutions, so the best-known value propagates left to right.
		row := fmt.Sprintf("%.1f", overhead)
		best := int64(0)
		for _, regime := range []string{"global", "partitioned", "semi", "hier"} {
			sub := restrict(in, regime)
			mk := int64(0)
			if res, err := hsp.Solve(context.Background(), sub); err == nil {
				mk = res.Makespan
			}
			if _, opt, err := hsp.SolveExact(context.Background(), sub, 400_000); err == nil && (mk == 0 || opt < mk) {
				mk = opt
			}
			switch regime {
			case "semi":
				// Global and partitioned solutions are feasible here.
				if best > 0 && (mk == 0 || best < mk) {
					mk = best
				}
				best = mk
			case "hier":
				if best > 0 && (mk == 0 || best < mk) {
					mk = best
				}
			case "global", "partitioned":
				if best == 0 || (mk > 0 && mk < best) {
					best = mk
				}
			}
			row += fmt.Sprintf("\t%d", mk)
		}
		fmt.Fprintln(tw, row)
	}
	tw.Flush()
	fmt.Println("\nglobal pays the full inter-node overhead on every job;")
	fmt.Println("partitioned pays none but cannot balance load; the hierarchy gets both.")
}

// restrict keeps only the admissible sets of the named regime.
func restrict(in *hsp.Instance, regime string) *hsp.Instance {
	f := in.Family
	root := f.Roots()[0]
	var keep []int
	for s := 0; s < f.Len(); s++ {
		switch regime {
		case "global":
			if s == root {
				keep = append(keep, s)
			}
		case "partitioned":
			if f.IsSingleton(s) {
				keep = append(keep, s)
			}
		case "semi":
			if s == root || f.IsSingleton(s) {
				keep = append(keep, s)
			}
		case "hier":
			keep = append(keep, s)
		}
	}
	sub, err := hsp.RestrictInstance(in, keep)
	if err != nil {
		log.Fatal(err)
	}
	return sub
}
