// Frame-based real-time schedulability: semi-partitioned scheduling's home
// turf. A set of periodic tasks releases one job per frame; each task's
// worst-case execution time depends on its affinity mask (migration
// overhead). The test brackets the minimal feasible frame with the LP
// lower bound and a constructive schedule, and the returned one-frame
// schedule repeats verbatim.
//
//	go run ./examples/realtime
package main

import (
	"context"
	"fmt"
	"log"

	"hsp"
)

func main() {
	// A quad-core with two chips; ten periodic tasks.
	family, err := hsp.Hierarchy(2, 2)
	if err != nil {
		log.Fatal(err)
	}
	in := hsp.NewInstance(family)
	for i := 0; i < 10; i++ {
		wcet := make([]int64, family.Len())
		base := int64(6 + 3*(i%4))
		for s := 0; s < family.Len(); s++ {
			// +1 time unit of WCET per hierarchy level the mask spans.
			wcet[s] = base + int64(family.Levels()-family.Level(s))
		}
		in.AddJob(wcet)
	}

	lo, hi, err := hsp.MinFrame(context.Background(), in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("minimal frame F* ∈ [%d, %d]  (LP bound, constructive bound)\n", lo, hi)

	for _, frame := range []int64{lo - 1, lo, hi} {
		if frame <= 0 {
			continue
		}
		res, err := hsp.TestSchedulability(context.Background(), in, frame, hsp.RTOptions{ExactNodes: 500_000})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("frame %3d: %v", frame, res.Verdict)
		if res.Verdict == hsp.RTSchedulable {
			fmt.Printf(" (makespan %d, utilization %.2f)", res.Makespan, hsp.Utilization(in, frame))
		}
		fmt.Println()
		if res.Verdict == hsp.RTSchedulable && frame == hi {
			fmt.Println("\none frame (repeats periodically):")
			fmt.Print(res.Schedule.Gantt(1))
			unrolled := hsp.UnrollSchedule(res.Schedule, frame, 2)
			fmt.Println("two frames unrolled:")
			fmt.Print(unrolled.Gantt(2))
		}
	}
}
