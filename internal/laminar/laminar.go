// Package laminar implements laminar (hierarchical) families of machine
// subsets, the structural substrate of the hierarchical scheduling model:
// a family A of subsets of M = {0, ..., m-1} is laminar when every two
// members are either nested or disjoint. The family therefore forms a
// forest under inclusion; parents, children, levels and heights follow the
// definitions of Section II of the paper (the level of a set β is the
// number of sets α ∈ A with β ⊆ α, so roots have level 1; the height of a
// set is its distance to the farthest... shortest distance to a leaf below
// it, matching Section VI, Model 2).
package laminar

import (
	"fmt"
	"sort"
	"strings"
)

// Family is an immutable laminar family over machines 0..m-1.
// Construct with New or one of the canonical topology constructors.
type Family struct {
	m        int
	sets     [][]int // sets[id] = sorted machine list
	bits     []bitset
	parent   []int   // parent[id] = minimal proper superset, -1 for roots
	children [][]int // children[id], sorted by smallest machine
	level    []int   // number of sets containing the set, including itself
	height   []int   // shortest distance to a leaf of the inclusion forest
	bottomUp []int   // set ids ordered so subsets precede supersets
	minCover []int   // minCover[machine] = minimal set containing machine, -1 if none
	roots    []int
	single   []int   // single[machine] = id of singleton {machine}, -1 if absent
	chain    [][]int // chain[id] = id, parent(id), ..., root (precomputed)
	subtree  [][]int // subtree[id] = descendants of id incl. itself (precomputed)
}

// New validates that the given subsets of {0,...,m-1} form a laminar family
// (nonempty, distinct, pairwise nested-or-disjoint) and builds the Family.
// The order of the input sets is preserved: set i keeps id i.
func New(m int, sets [][]int) (*Family, error) {
	if m <= 0 {
		return nil, fmt.Errorf("laminar: number of machines must be positive, got %d", m)
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("laminar: family must contain at least one set")
	}
	f := &Family{m: m}
	f.sets = make([][]int, len(sets))
	f.bits = make([]bitset, len(sets))
	for id, s := range sets {
		if len(s) == 0 {
			return nil, fmt.Errorf("laminar: set %d is empty", id)
		}
		cp := append([]int(nil), s...)
		sort.Ints(cp)
		b := newBitset(m)
		for _, i := range cp {
			if i < 0 || i >= m {
				return nil, fmt.Errorf("laminar: set %d contains machine %d outside [0,%d)", id, i, m)
			}
			if b.has(i) {
				return nil, fmt.Errorf("laminar: set %d contains machine %d twice", id, i)
			}
			b.set(i)
		}
		f.sets[id] = cp
		f.bits[id] = b
	}
	// Order ids by ascending cardinality; among equal sizes the order is
	// arbitrary (sets of equal size are disjoint, so it does not matter).
	order := make([]int, len(sets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if len(f.sets[order[a]]) != len(f.sets[order[b]]) {
			return len(f.sets[order[a]]) < len(f.sets[order[b]])
		}
		return f.sets[order[a]][0] < f.sets[order[b]][0]
	})
	parent, err := f.parents(order)
	if err != nil {
		return nil, err
	}
	f.build(order, parent)
	return f, nil
}

// parents checks laminarity in O(Σ|set|) and returns each set's parent,
// the smallest strict superset (-1 for roots). It visits the sets from
// largest to smallest, keeping owner[machine] = the smallest set visited
// so far that contains the machine. Every set visited before s is at
// least as large as s, so s is nested-or-disjoint with all of them
// exactly when its machines agree on one owner: then s lies inside that
// owner (or meets no earlier set when the owner is -1), and the owner is
// its parent unless it has the same size, which makes it identical to s.
func (f *Family) parents(order []int) ([]int, error) {
	parent := make([]int, len(f.sets))
	owner := make([]int, f.m)
	for i := range owner {
		owner[i] = -1
	}
	for k := len(order) - 1; k >= 0; k-- {
		id := order[k]
		ms := f.sets[id]
		o := owner[ms[0]]
		for _, i := range ms[1:] {
			if x := owner[i]; x != o {
				// One of the two owners meets id without containing it,
				// and is too large to lie inside it: the smaller one, or
				// the one that exists.
				bad := o
				if o < 0 || (x >= 0 && len(f.sets[x]) < len(f.sets[o])) {
					bad = x
				}
				a, b := min(id, bad), max(id, bad)
				return nil, fmt.Errorf("laminar: sets %d (%v) and %d (%v) overlap without nesting",
					a, f.sets[a], b, f.sets[b])
			}
		}
		if o >= 0 && len(f.sets[o]) == len(ms) {
			return nil, fmt.Errorf("laminar: sets %d and %d are identical (%v)", min(id, o), max(id, o), ms)
		}
		parent[id] = o
		for _, i := range ms {
			owner[i] = id
		}
	}
	return parent, nil
}

// MustNew is New, panicking on error; for canonical topologies and tests.
func MustNew(m int, sets [][]int) *Family {
	f, err := New(m, sets)
	if err != nil {
		panic(err)
	}
	return f
}

// build derives children/level/height/cover tables from the validated
// ascending-size order and the parent of every set.
func (f *Family) build(order, parent []int) {
	n := len(f.sets)
	f.parent = parent
	f.bottomUp = order
	f.children = make([][]int, n)
	f.level = make([]int, n)
	f.height = make([]int, n)
	f.minCover = make([]int, f.m)
	f.single = make([]int, f.m)
	for i := range f.minCover {
		f.minCover[i] = -1
		f.single[i] = -1
	}
	for _, id := range order {
		if p := f.parent[id]; p >= 0 {
			f.children[p] = append(f.children[p], id)
		} else {
			f.roots = append(f.roots, id)
		}
	}
	for id := range f.children {
		sort.Slice(f.children[id], func(a, b int) bool {
			return f.sets[f.children[id][a]][0] < f.sets[f.children[id][b]][0]
		})
	}
	sort.Slice(f.roots, func(a, b int) bool { return f.sets[f.roots[a]][0] < f.sets[f.roots[b]][0] })

	// Levels top-down (parents first = reverse bottom-up).
	for i := n - 1; i >= 0; i-- {
		id := order[i]
		if p := f.parent[id]; p >= 0 {
			f.level[id] = f.level[p] + 1
		} else {
			f.level[id] = 1
		}
	}
	// Heights bottom-up: leaves have height 0; internal nodes are one more
	// than the minimum child height (Section VI, Model 2).
	for _, id := range order {
		if len(f.children[id]) == 0 {
			f.height[id] = 0
			continue
		}
		h := -1
		for _, c := range f.children[id] {
			if h < 0 || f.height[c] < h {
				h = f.height[c]
			}
		}
		f.height[id] = h + 1
	}
	// Minimal covering set of each machine: the smallest set containing it.
	for _, id := range order {
		for _, i := range f.sets[id] {
			if f.minCover[i] < 0 {
				f.minCover[i] = id
			}
		}
		if len(f.sets[id]) == 1 {
			f.single[f.sets[id][0]] = id
		}
	}
	// Chains and subtrees are precomputed once: Chain and SubsetIDs sit on
	// the branch-and-bound and relaxation hot paths, where a per-call
	// allocation would dominate the solvers (see PERFORMANCE.md).
	f.chain = make([][]int, n)
	for id := 0; id < n; id++ {
		var c []int
		for cur := id; cur >= 0; cur = f.parent[cur] {
			c = append(c, cur)
		}
		f.chain[id] = c
	}
	f.subtree = make([][]int, n)
	for id := 0; id < n; id++ {
		out := []int{id}
		for k := 0; k < len(out); k++ {
			out = append(out, f.children[out[k]]...)
		}
		f.subtree[id] = out
	}
}

// M returns the number of machines.
func (f *Family) M() int { return f.m }

// Len returns the number of sets in the family.
func (f *Family) Len() int { return len(f.sets) }

// Machines returns the sorted machine list of the given set. The returned
// slice is owned by the Family and must not be modified.
func (f *Family) Machines(id int) []int { return f.sets[id] }

// Size returns the cardinality of the given set.
func (f *Family) Size(id int) int { return len(f.sets[id]) }

// Contains reports whether machine i belongs to the given set.
func (f *Family) Contains(id, machine int) bool { return f.bits[id].has(machine) }

// Parent returns the id of the minimal proper superset of the given set, or
// -1 if the set is a root of the inclusion forest.
func (f *Family) Parent(id int) int { return f.parent[id] }

// Children returns the ids of the maximal proper subsets of the given set.
// The returned slice is owned by the Family and must not be modified.
func (f *Family) Children(id int) []int { return f.children[id] }

// Roots returns the ids of the inclusion-maximal sets.
func (f *Family) Roots() []int { return f.roots }

// Level returns the level of the set: the number of family members that
// contain it, itself included. Roots have level 1.
func (f *Family) Level(id int) int { return f.level[id] }

// Levels returns the level of the family: the maximum level among its sets.
func (f *Family) Levels() int {
	max := 0
	for _, l := range f.level {
		if l > max {
			max = l
		}
	}
	return max
}

// Height returns the shortest distance from the set to a leaf below it in
// the inclusion forest; leaves have height 0.
func (f *Family) Height(id int) int { return f.height[id] }

// IsSingleton reports whether the set has exactly one machine.
func (f *Family) IsSingleton(id int) bool { return len(f.sets[id]) == 1 }

// Singleton returns the id of the singleton set {machine}, or -1 if the
// family does not contain it.
func (f *Family) Singleton(machine int) int { return f.single[machine] }

// HasAllSingletons reports whether every machine appears as a singleton set.
func (f *Family) HasAllSingletons() bool {
	for i := 0; i < f.m; i++ {
		if f.single[i] < 0 {
			return false
		}
	}
	return true
}

// MinimalContaining returns the id of the inclusion-minimal set containing
// the machine, or -1 if no set contains it.
func (f *Family) MinimalContaining(machine int) int {
	if machine < 0 || machine >= f.m {
		return -1
	}
	return f.minCover[machine]
}

// BottomUp returns the set ids ordered so that every set appears after all
// of its subsets (ascending cardinality). The slice is owned by the Family.
func (f *Family) BottomUp() []int { return f.bottomUp }

// TopDown returns the set ids ordered so that every set appears after all
// of its supersets.
func (f *Family) TopDown() []int {
	td := make([]int, len(f.bottomUp))
	for i, id := range f.bottomUp {
		td[len(td)-1-i] = id
	}
	return td
}

// ChildContaining returns the id of the maximal proper subset of set id that
// contains the machine, or -1 if there is none (Algorithm 2, line 8).
func (f *Family) ChildContaining(id, machine int) int {
	for _, c := range f.children[id] {
		if f.bits[c].has(machine) {
			return c
		}
	}
	return -1
}

// SubsetIDs returns all descendants of id in the inclusion forest,
// including id itself. The slice is precomputed and shared: callers must
// not modify it (it is on the solver hot paths, where a per-call copy
// would dominate the runtime).
func (f *Family) SubsetIDs(id int) []int {
	return f.subtree[id]
}

// Chain returns the ancestor chain of id from itself up to its root:
// id, parent(id), parent(parent(id)), ... The slice is precomputed and
// shared: callers must not modify it.
func (f *Family) Chain(id int) []int {
	return f.chain[id]
}

// IsTree reports whether the inclusion forest has a single root covering
// all machines.
func (f *Family) IsTree() bool {
	return len(f.roots) == 1 && len(f.sets[f.roots[0]]) == f.m
}

// UniformLeafLevel reports whether every leaf of the forest has the same
// level, the structural assumption of Section VI, Model 2.
func (f *Family) UniformLeafLevel() bool {
	want := -1
	for id := range f.sets {
		if len(f.children[id]) != 0 {
			continue
		}
		if want < 0 {
			want = f.level[id]
		} else if f.level[id] != want {
			return false
		}
	}
	return true
}

// ChildrenCover reports whether, for every non-leaf set, the union of its
// children equals the set itself. Lemma V.1's push-down requires this; it
// holds automatically once all singletons are present.
func (f *Family) ChildrenCover() bool {
	for id := range f.sets {
		if len(f.children[id]) == 0 {
			continue
		}
		cover := newBitset(f.m)
		for _, c := range f.children[id] {
			cover.orIn(f.bits[c])
		}
		if !f.bits[id].subsetOf(cover) {
			return false
		}
	}
	return true
}

// WithSingletons returns a family extended with the singleton {i} for every
// machine i covered by some set and currently missing, plus, for each added
// singleton id, the id of the previously-minimal covering set (so callers
// can inherit processing times, as prescribed in Section V). If the family
// already has all singletons it is returned unchanged with a nil map.
func (f *Family) WithSingletons() (*Family, map[int]int) {
	var add [][]int
	inherit := map[int]int{}
	next := len(f.sets)
	for i := 0; i < f.m; i++ {
		if f.single[i] >= 0 || f.minCover[i] < 0 {
			continue
		}
		inherit[next] = f.minCover[i]
		add = append(add, []int{i})
		next++
	}
	if len(add) == 0 {
		return f, nil
	}
	sets := append(append([][]int{}, f.sets...), add...)
	nf := MustNew(f.m, sets)
	return nf, inherit
}

// String renders the family as a forest, one set per line.
func (f *Family) String() string {
	var b strings.Builder
	var rec func(id, depth int)
	rec = func(id, depth int) {
		fmt.Fprintf(&b, "%s#%d %v (level %d, height %d)\n",
			strings.Repeat("  ", depth), id, f.sets[id], f.level[id], f.height[id])
		for _, c := range f.children[id] {
			rec(c, depth+1)
		}
	}
	for _, r := range f.roots {
		rec(r, 0)
	}
	return b.String()
}
