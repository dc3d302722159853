// Semi-partitioned scheduling (Section III of the paper): most jobs are
// pinned to one machine, a few migratory jobs close the load-balance gap.
// This example reproduces Example II.1/III.1 verbatim and then runs a
// bigger workload, reporting Algorithm 1's migration counts against
// Proposition III.2's bounds.
//
//	go run ./examples/semipartitioned
package main

import (
	"context"
	"fmt"
	"log"

	"hsp"
)

func main() {
	paperExample()
	biggerWorkload()
}

func paperExample() {
	fmt.Println("--- Example II.1 / III.1 ---")
	in := hsp.ExampleII1()
	a, opt, err := hsp.SolveExact(context.Background(), in, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("semi-partitioned optimum = %d (the unrelated projection needs 3)\n", opt)
	s, err := hsp.BuildScheduleSemiPartitioned(in, a, opt)
	if err != nil {
		log.Fatal(err)
	}
	if err := hsp.ValidateSchedule(in, a, s); err != nil {
		log.Fatal(err)
	}
	fmt.Print(s.Gantt(1))
	st := s.CyclicStats()
	fmt.Printf("migrations = %d (job c is the single migratory job)\n\n", st.Migrations)
}

func biggerWorkload() {
	fmt.Println("--- 6 machines, 20 jobs ---")
	in, err := hsp.GenerateWorkload(hsp.WorkloadConfig{
		Topology: hsp.TopoSemiPartitioned,
		Machines: 6,
		Jobs:     20,
		Seed:     2024,
		MinWork:  10, MaxWork: 60,
		SpeedSpread: 0.2,
	})
	if err != nil {
		log.Fatal(err)
	}
	a, opt, err := hsp.SolveExact(context.Background(), in, 2_000_000)
	if err != nil {
		// Fall back to the 2-approximation on a hard draw.
		res, err2 := hsp.Solve(context.Background(), in)
		if err2 != nil {
			log.Fatal(err2)
		}
		a, opt = res.Assignment, res.Makespan
		in = res.Instance
	}
	s, err := hsp.BuildScheduleSemiPartitioned(in, a, opt)
	if err != nil {
		log.Fatal(err)
	}
	if err := hsp.ValidateSchedule(in, a, s); err != nil {
		log.Fatal(err)
	}

	m := in.M()
	st := s.CyclicStats()
	global := 0
	root := in.Family.Roots()[0]
	for _, set := range a {
		if set == root {
			global++
		}
	}
	fmt.Printf("makespan = %d with %d migratory jobs\n", opt, global)
	fmt.Printf("migrations = %d (Proposition III.2 bound: m-1 = %d)\n", st.Migrations, m-1)
	fmt.Printf("migrations+preemptions = %d (bound: 2m-2 = %d)\n",
		st.Migrations+st.Preemptions, 2*m-2)
	fmt.Print(s.Gantt(opt / 64))
}
