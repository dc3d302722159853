// Arbitrary processor-affinity masks (Section II): when the admissible
// family is not laminar — e.g. overlapping machine windows as used by
// OS-level affinity masks — the paper's 8-approximation applies: project to
// unrelated machines by pricing each machine at its cheapest covering
// mask, then round nonpreemptively with Lenstra–Shmoys–Tardos.
//
//	go run ./examples/affinity
package main

import (
	"context"
	"fmt"
	"log"

	"hsp"
)

func main() {
	// Five machines; overlapping windows {0,1,2}, {2,3,4}, {1,2,3} —
	// not laminar ({1,2,3} crosses both windows) — plus singletons.
	sets := [][]int{
		{0, 1, 2}, {2, 3, 4}, {1, 2, 3},
		{0}, {1}, {2}, {3}, {4},
	}
	g := &hsp.GeneralInstance{M: 5, Sets: sets}
	// Jobs prefer narrow masks (cheaper) but need the windows for slack.
	for j := 0; j < 12; j++ {
		base := int64(6 + j%5*4)
		proc := make([]int64, len(sets))
		for s, set := range sets {
			proc[s] = base + int64(2*(len(set)-1))
		}
		g.Proc = append(g.Proc, proc)
	}

	res, err := hsp.SolveGeneral(context.Background(), g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nonpreemptive LP bound = %d\n", res.LPBound)
	fmt.Printf("achieved makespan = %d (LST guarantees ≤ 2·LP; end-to-end ≤ 8·OPT)\n", res.Makespan)
	for j, i := range res.MachineAssign {
		fmt.Printf("  job %-2d -> machine %d\n", j, i)
	}
	fmt.Println("\nschedule:")
	fmt.Print(res.Schedule.Gantt(1))
}
