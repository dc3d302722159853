// Package dag is the DAG-task scenario: precedence-constrained parallel
// tasks in the spirit of Lendve & Bletsas (DAG tasks on identical
// multiprocessors), lowered onto the paper's rigid laminar core. A task
// is a DAG of nodes carrying work and live-memory footprints; a
// recursive hierarchical partitioner (the maxLive-bisection idiom) cuts
// a deterministic topological order into segments whose partition-tree
// maxLive stays within the memory budget and whose work stays within
// the Graham-style lower bound max(critical path, ceil(total work/m)).
// The segments compile into rigid jobs — every laminar set admissible
// at the segment's sequential work — plus memcap model-1 annotations,
// so the existing 2-approximation certifies a makespan within 2× of the
// DAG lower bound (see Compile).
package dag

import (
	"container/heap"
	"fmt"

	"hsp/internal/model"
)

// Validation caps: generous for real workloads, tight enough that the
// critical-path and total-work accumulators (and the maxLive sums) stay
// far from int64 overflow for any input that fits in memory.
const (
	// MaxMachines bounds the compiled platform width (the instance
	// decoder's cap).
	MaxMachines = model.MaxMachines
	// MaxNodes bounds the DAG size.
	MaxNodes = 1 << 20
	// MaxWork bounds a single node's work.
	MaxWork = 1 << 40
	// MaxMem bounds a single node's live-memory footprint.
	MaxMem = 1 << 40
)

// Node is one unit of a DAG task: Work is its sequential processing
// demand, Mem the live memory its output occupies until consumed.
type Node struct {
	Work int64
	Mem  int64
}

// Task is a precedence-constrained parallel task targeted at a platform
// of Machines identical machines. Branching optionally shapes the
// compiled laminar family as a full hierarchy (product must equal
// Machines); when empty the compile uses the semi-partitioned family.
// MemBudget > 0 bounds the partition-tree maxLive of every compiled
// segment; 0 disables memory-driven cuts.
type Task struct {
	Machines  int
	Branching []int
	MemBudget int64
	Nodes     []Node
	Edges     [][2]int // precedence u → v by node index
}

// Validate checks platform shape, node ranges, edge well-formedness and
// acyclicity. A MemBudget, when set, must admit every single node.
func (t *Task) Validate() error {
	if t.Machines < 1 || t.Machines > MaxMachines {
		return fmt.Errorf("dag: machines must be in [1,%d], got %d", MaxMachines, t.Machines)
	}
	if len(t.Branching) > 0 {
		prod := 1
		for _, b := range t.Branching {
			// A factor above Machines can never divide the product back
			// down; rejecting it here also keeps prod overflow-free.
			if b < 1 || b > t.Machines {
				return fmt.Errorf("dag: branching factor outside [1,%d] in %v", t.Machines, t.Branching)
			}
			if prod *= b; prod > t.Machines {
				break
			}
		}
		if prod != t.Machines {
			return fmt.Errorf("dag: branching %v yields %d machines, task has %d", t.Branching, prod, t.Machines)
		}
	}
	if len(t.Nodes) == 0 {
		return fmt.Errorf("dag: need at least one node")
	}
	if len(t.Nodes) > MaxNodes {
		return fmt.Errorf("dag: %d nodes exceeds cap %d", len(t.Nodes), MaxNodes)
	}
	if t.MemBudget < 0 {
		return fmt.Errorf("dag: mem budget must be ≥ 0, got %d", t.MemBudget)
	}
	for i, nd := range t.Nodes {
		if nd.Work < 1 || nd.Work > MaxWork {
			return fmt.Errorf("dag: node %d work %d outside [1,%d]", i, nd.Work, int64(MaxWork))
		}
		if nd.Mem < 0 || nd.Mem > MaxMem {
			return fmt.Errorf("dag: node %d mem %d outside [0,%d]", i, nd.Mem, int64(MaxMem))
		}
		if t.MemBudget > 0 && nd.Mem > t.MemBudget {
			return fmt.Errorf("dag: node %d mem %d exceeds budget %d", i, nd.Mem, t.MemBudget)
		}
	}
	seen := make(map[[2]int]bool, len(t.Edges))
	for k, e := range t.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= len(t.Nodes) || v < 0 || v >= len(t.Nodes) {
			return fmt.Errorf("dag: edge %d (%d→%d) out of range [0,%d)", k, u, v, len(t.Nodes))
		}
		if u == v {
			return fmt.Errorf("dag: edge %d is a self-loop on node %d", k, u)
		}
		if seen[e] {
			return fmt.Errorf("dag: duplicate edge %d→%d", u, v)
		}
		seen[e] = true
	}
	if _, err := t.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// succs returns the adjacency list (successors per node).
func (t *Task) succs() [][]int {
	out := make([][]int, len(t.Nodes))
	for _, e := range t.Edges {
		out[e[0]] = append(out[e[0]], e[1])
	}
	return out
}

// TopoOrder returns the deterministic topological order the partitioner
// works over: Kahn's algorithm with smallest-index-first tie-breaking,
// so the same DAG always yields the same order (and hence the same
// compiled instance). It errors when the edge relation has a cycle.
func (t *Task) TopoOrder() ([]int, error) {
	n := len(t.Nodes)
	indeg := make([]int, n)
	succ := t.succs()
	for _, e := range t.Edges {
		indeg[e[1]]++
	}
	var ready intHeap
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	heap.Init(&ready)
	order := make([]int, 0, n)
	for ready.Len() > 0 {
		v := heap.Pop(&ready).(int)
		order = append(order, v)
		for _, w := range succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				heap.Push(&ready, w)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("dag: precedence relation has a cycle (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

// TotalWork returns the summed work of all nodes.
func (t *Task) TotalWork() int64 {
	var w int64
	for _, nd := range t.Nodes {
		w += nd.Work
	}
	return w
}

// CriticalPath returns the work of the longest precedence chain,
// including both endpoints — the span of the task.
func (t *Task) CriticalPath() (int64, error) {
	order, err := t.TopoOrder()
	if err != nil {
		return 0, err
	}
	finish := make([]int64, len(t.Nodes))
	succ := t.succs()
	var cp int64
	for _, v := range order {
		f := finish[v] + t.Nodes[v].Work
		if f > cp {
			cp = f
		}
		for _, w := range succ[v] {
			if f > finish[w] {
				finish[w] = f
			}
		}
	}
	return cp, nil
}

// LowerBound returns the Graham-style DAG lower bound on any schedule
// of the task on its platform: max(critical path, ceil(total work/m)).
// No schedule — preemptive, migratory or otherwise — beats either term.
func (t *Task) LowerBound() (int64, error) {
	cp, err := t.CriticalPath()
	if err != nil {
		return 0, err
	}
	m := int64(t.Machines)
	if avg := (t.TotalWork() + m - 1) / m; avg > cp {
		return avg, nil
	}
	return cp, nil
}

// intHeap is a min-heap of node indices for deterministic Kahn.
type intHeap []int

func (h intHeap) Len() int            { return len(h) }
func (h intHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
