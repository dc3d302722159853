// Quickstart: build a small hierarchical instance, solve it with the
// paper's 2-approximation, and print the resulting schedule.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"hsp"
)

func main() {
	// A 2-node × 2-core machine: the admissible family contains the whole
	// machine, the two nodes, and the four cores.
	family, err := hsp.Hierarchy(2, 2)
	if err != nil {
		log.Fatal(err)
	}
	in := hsp.NewInstance(family)

	// Eight jobs; running on a wider mask costs 20% more per hierarchy
	// level (migration overhead), so the solver has to weigh the extra
	// processing cost of migration against load balance.
	for j := 0; j < 8; j++ {
		proc := make([]int64, family.Len())
		base := int64(10 + 3*j)
		for s := 0; s < family.Len(); s++ {
			levelsUp := family.Levels() - family.Level(s)
			v := base
			for l := 0; l < levelsUp; l++ {
				v = v * 6 / 5 // +20% per level
			}
			proc[s] = v
		}
		in.AddJob(proc)
	}
	if err := in.Validate(); err != nil {
		log.Fatal(err)
	}

	res, err := hsp.Solve(context.Background(), in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LP lower bound T* = %d (OPT is at least this)\n", res.LPBound)
	fmt.Printf("achieved makespan = %d (guaranteed ≤ 2·T* = %d)\n", res.Makespan, 2*res.LPBound)

	if err := hsp.ValidateSchedule(res.Instance, res.Assignment, res.Schedule); err != nil {
		log.Fatalf("schedule invalid: %v", err)
	}
	fmt.Println("\nschedule (machines × time):")
	fmt.Print(res.Schedule.Gantt(2))

	// The exact optimum for comparison (fine at this size).
	_, opt, err := hsp.SolveExact(context.Background(), in, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexact optimum = %d; measured ratio = %.3f (theorem guarantees ≤ 2)\n",
		opt, float64(res.Makespan)/float64(opt))
}
