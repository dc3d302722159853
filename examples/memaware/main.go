// Memory-aware hierarchical scheduling (Section VI of the paper). Model 1:
// every machine has a memory budget consumed by each job whose affinity
// mask includes it; Model 2: every level of the hierarchy has capacity
// µ^height shared by the jobs assigned exactly to that level. Both are
// solved with LP-based iterative rounding with the paper's bicriteria
// guarantees.
//
//	go run ./examples/memaware
package main

import (
	"context"
	"fmt"
	"log"

	"hsp"
)

func main() {
	model1()
	model2()
}

func model1() {
	fmt.Println("--- Model 1: per-machine budgets (Theorem VI.1: ≤ 3T, ≤ 3B) ---")
	in, err := hsp.GenerateWorkload(hsp.WorkloadConfig{
		Topology: hsp.TopoSemiPartitioned,
		Machines: 4,
		Jobs:     12,
		Seed:     55,
		MinWork:  5, MaxWork: 35,
	})
	if err != nil {
		log.Fatal(err)
	}
	m1, err := hsp.AttachMemory1(in, hsp.MemoryConfig{MinSize: 1, MaxSize: 8, BudgetSlack: 1.3}, 55)
	if err != nil {
		log.Fatal(err)
	}
	res, err := hsp.SolveMemory1(context.Background(), m1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LP bound T* = %d; achieved makespan = %d (factor %.2f, bound 3)\n",
		res.TLP, res.Makespan, res.LoadFactor)
	fmt.Printf("worst memory overuse factor = %.2f (bound 3); rounding fallbacks = %d\n\n",
		res.MemFactor, res.Fallbacks)
}

func model2() {
	fmt.Println("--- Model 2: per-level capacities µ^h (Theorem VI.3: σ = 2 + H_k) ---")
	f, err := hsp.Hierarchy(2, 2, 2)
	if err != nil {
		log.Fatal(err)
	}
	in := hsp.NewInstance(f)
	for j := 0; j < 14; j++ {
		proc := make([]int64, f.Len())
		base := int64(6 + 2*j)
		for s := 0; s < f.Len(); s++ {
			proc[s] = base + 2*int64(f.Levels()-f.Level(s))
		}
		in.AddJob(proc)
	}
	m2, err := hsp.AttachMemory2(in, hsp.MemoryConfig{Mu: 2.5}, 55)
	if err != nil {
		log.Fatal(err)
	}
	res, err := hsp.SolveMemory2(context.Background(), m2)
	if err != nil {
		log.Fatal(err)
	}
	k := f.Levels()
	fmt.Printf("hierarchy levels k = %d, σ = 2 + H_k = %.3f\n", k, sigma(k))
	fmt.Printf("LP bound T* = %d; achieved makespan = %d (factor %.2f)\n",
		res.TLP, res.Makespan, res.LoadFactor)
	fmt.Printf("worst per-level memory factor = %.2f; fallbacks = %d\n",
		res.MemFactor, res.Fallbacks)
	if err := hsp.ValidateSchedule(res.Instance, res.Assignment, res.Schedule); err != nil {
		log.Fatal(err)
	}
	fmt.Println("schedule validated.")
}

func sigma(k int) float64 {
	h := 0.0
	for i := 1; i <= k; i++ {
		h += 1.0 / float64(i)
	}
	return 2 + h
}
