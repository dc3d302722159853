package laminar

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestNewRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		m    int
		sets [][]int
	}{
		{"zero machines", 0, [][]int{{0}}},
		{"empty family", 3, nil},
		{"empty set", 3, [][]int{{}}},
		{"out of range", 3, [][]int{{0, 3}}},
		{"negative machine", 3, [][]int{{-1}}},
		{"duplicate machine", 3, [][]int{{1, 1}}},
		{"duplicate set", 3, [][]int{{0, 1}, {1, 0}}},
		{"crossing sets", 4, [][]int{{0, 1, 2}, {2, 3}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.m, tc.sets); err == nil {
				t.Fatalf("New(%d, %v) succeeded, want error", tc.m, tc.sets)
			}
		})
	}
}

func TestSemiPartitionedStructure(t *testing.T) {
	f := SemiPartitioned(4)
	if f.Len() != 5 {
		t.Fatalf("got %d sets, want 5", f.Len())
	}
	if !f.IsTree() {
		t.Fatalf("semi-partitioned family should be a tree")
	}
	root := f.Roots()[0]
	if f.Size(root) != 4 || f.Level(root) != 1 || f.Height(root) != 1 {
		t.Fatalf("root: size=%d level=%d height=%d, want 4,1,1", f.Size(root), f.Level(root), f.Height(root))
	}
	if f.Levels() != 2 {
		t.Fatalf("Levels() = %d, want 2", f.Levels())
	}
	for i := 0; i < 4; i++ {
		s := f.Singleton(i)
		if s < 0 {
			t.Fatalf("missing singleton for machine %d", i)
		}
		if f.Parent(s) != root {
			t.Fatalf("singleton %d parent = %d, want root %d", s, f.Parent(s), root)
		}
		if f.Level(s) != 2 || f.Height(s) != 0 {
			t.Fatalf("singleton level/height = %d/%d, want 2/0", f.Level(s), f.Height(s))
		}
		if f.MinimalContaining(i) != s {
			t.Fatalf("MinimalContaining(%d) = %d, want %d", i, f.MinimalContaining(i), s)
		}
	}
	if !f.HasAllSingletons() || !f.ChildrenCover() || !f.UniformLeafLevel() {
		t.Fatalf("expected all singletons, covering children, uniform leaves")
	}
}

func TestClustered(t *testing.T) {
	f, err := Clustered(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.M() != 6 || f.Len() != 1+3+6 {
		t.Fatalf("m=%d sets=%d, want 6 and 10", f.M(), f.Len())
	}
	if f.Levels() != 3 {
		t.Fatalf("Levels() = %d, want 3", f.Levels())
	}
	// Machine 3 sits in cluster {2,3} wait -- clusters are {0,1},{2,3},{4,5}.
	mc := f.MinimalContaining(3)
	if !f.IsSingleton(mc) {
		t.Fatalf("minimal containing set of machine 3 should be the singleton")
	}
	cl := f.Parent(mc)
	if got := f.Machines(cl); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("cluster of machine 3 = %v, want [2 3]", got)
	}
	if _, err := Clustered(0, 2); err == nil {
		t.Fatalf("Clustered(0,2) should fail")
	}
}

func TestHierarchy(t *testing.T) {
	f, err := Hierarchy(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.M() != 8 {
		t.Fatalf("m = %d, want 8", f.M())
	}
	if f.Len() != 1+2+4+8 {
		t.Fatalf("sets = %d, want 15", f.Len())
	}
	if f.Levels() != 4 {
		t.Fatalf("levels = %d, want 4", f.Levels())
	}
	if !f.UniformLeafLevel() {
		t.Fatalf("complete hierarchy should have uniform leaf level")
	}
	// Branching factor 1 must not create duplicate sets.
	if _, err := Hierarchy(1, 2); err != nil {
		t.Fatalf("Hierarchy(1,2): %v", err)
	}
	if _, err := Hierarchy(); err == nil {
		t.Fatalf("Hierarchy() should fail")
	}
	if _, err := Hierarchy(2, 0); err == nil {
		t.Fatalf("Hierarchy(2,0) should fail")
	}
}

func TestChildContainingAndChain(t *testing.T) {
	f, _ := Hierarchy(2, 2)
	root := f.Roots()[0]
	c := f.ChildContaining(root, 3)
	if c < 0 || !f.Contains(c, 3) || f.Size(c) != 2 {
		t.Fatalf("ChildContaining(root, 3) = %d (%v)", c, f.Machines(c))
	}
	leaf := f.Singleton(3)
	chain := f.Chain(leaf)
	if len(chain) != 3 || chain[0] != leaf || chain[len(chain)-1] != root {
		t.Fatalf("chain = %v", chain)
	}
	if f.ChildContaining(leaf, 3) != -1 {
		t.Fatalf("leaf should have no child containing 3")
	}
}

func TestBottomUpTopDownOrders(t *testing.T) {
	f, _ := Hierarchy(2, 3)
	pos := make(map[int]int)
	for i, id := range f.BottomUp() {
		pos[id] = i
	}
	for id := 0; id < f.Len(); id++ {
		if p := f.Parent(id); p >= 0 && pos[id] > pos[p] {
			t.Fatalf("bottom-up order violates subset-first: set %d after parent %d", id, p)
		}
	}
	td := f.TopDown()
	for i, id := range td {
		pos[id] = i
	}
	for id := 0; id < f.Len(); id++ {
		if p := f.Parent(id); p >= 0 && pos[id] < pos[p] {
			t.Fatalf("top-down order violates superset-first")
		}
	}
}

func TestWithSingletons(t *testing.T) {
	f := MustNew(4, [][]int{{0, 1, 2, 3}, {0, 1}})
	nf, inherit := f.WithSingletons()
	if !nf.HasAllSingletons() {
		t.Fatalf("WithSingletons did not add all singletons")
	}
	if nf.Len() != 2+4 {
		t.Fatalf("got %d sets, want 6", nf.Len())
	}
	// Machines 0,1 inherit from set {0,1} (id 1); 2,3 from the root (id 0).
	for id, src := range inherit {
		mach := nf.Machines(id)[0]
		if mach <= 1 && src != 1 {
			t.Fatalf("machine %d inherits from %d, want 1", mach, src)
		}
		if mach >= 2 && src != 0 {
			t.Fatalf("machine %d inherits from %d, want 0", mach, src)
		}
	}
	// Idempotent on complete families.
	same, inh := nf.WithSingletons()
	if same != nf || inh != nil {
		t.Fatalf("WithSingletons on complete family should be identity")
	}
}

func TestSubsetIDs(t *testing.T) {
	f, _ := Clustered(2, 2)
	root := f.Roots()[0]
	if got := len(f.SubsetIDs(root)); got != f.Len() {
		t.Fatalf("SubsetIDs(root) covers %d sets, want %d", got, f.Len())
	}
	cl := f.Parent(f.Singleton(0))
	ids := f.SubsetIDs(cl)
	if len(ids) != 3 { // cluster + its two singletons
		t.Fatalf("SubsetIDs(cluster) = %v", ids)
	}
}

// randomLaminar builds a random laminar family by recursive partitioning.
func randomLaminar(rng *rand.Rand, m int) [][]int {
	var sets [][]int
	var rec func(machines []int)
	rec = func(machines []int) {
		sets = append(sets, append([]int(nil), machines...))
		if len(machines) <= 1 {
			return
		}
		if rng.Intn(4) == 0 { // sometimes stop refining
			return
		}
		k := 1 + rng.Intn(len(machines)-1) // split point
		rec(machines[:k])
		rec(machines[k:])
	}
	all := make([]int, m)
	for i := range all {
		all[i] = i
	}
	rec(all)
	return sets
}

func TestRandomLaminarInvariants(t *testing.T) {
	prop := func(seed int64, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + int(mRaw%16)
		sets := randomLaminar(rng, m)
		f, err := New(m, sets)
		if err != nil {
			t.Logf("unexpected rejection: %v", err)
			return false
		}
		// Invariant: every set is contained in its parent, disjoint from
		// siblings; levels increase along chains; heights decrease.
		for id := 0; id < f.Len(); id++ {
			if p := f.Parent(id); p >= 0 {
				for _, i := range f.Machines(id) {
					if !f.Contains(p, i) {
						return false
					}
				}
				if f.Level(id) != f.Level(p)+1 {
					return false
				}
				if f.Height(p) <= 0 {
					return false
				}
			}
			seen := map[int]bool{}
			for _, c := range f.Children(id) {
				for _, i := range f.Machines(c) {
					if seen[i] {
						return false // overlapping siblings
					}
					seen[i] = true
				}
			}
		}
		// Invariant: MinimalContaining is consistent with Contains.
		for i := 0; i < m; i++ {
			mc := f.MinimalContaining(i)
			if mc < 0 {
				continue
			}
			if !f.Contains(mc, i) {
				return false
			}
			for id := 0; id < f.Len(); id++ {
				if f.Contains(id, i) && f.Size(id) < f.Size(mc) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendersForest(t *testing.T) {
	f := SemiPartitioned(2)
	s := f.String()
	if len(s) == 0 {
		t.Fatalf("empty String()")
	}
}

func TestMachinesSorted(t *testing.T) {
	f := MustNew(4, [][]int{{3, 0, 2, 1}, {2, 0}, {3, 1}})
	for id := 0; id < f.Len(); id++ {
		if !sort.IntsAreSorted(f.Machines(id)) {
			t.Fatalf("machines of set %d not sorted: %v", id, f.Machines(id))
		}
	}
}

// TestNewLargeHierarchyFast: a valid 4096-machine binary hierarchy (8191
// sets, about 300 KB as a request body) passes validation well inside a
// request deadline. A pairwise laminarity check took seconds on it.
func TestNewLargeHierarchyFast(t *testing.T) {
	const m = 4096
	var sets [][]int
	for size := m; size >= 1; size /= 2 {
		for lo := 0; lo < m; lo += size {
			s := make([]int, size)
			for k := range s {
				s[k] = lo + k
			}
			sets = append(sets, s)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
	start := time.Now()
	f, err := New(m, sets)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > time.Second {
		t.Fatalf("New on %d sets took %v, want under 1s", len(sets), elapsed)
	}
	if f.Len() != 2*m-1 || f.Levels() != 13 || !f.IsTree() || !f.HasAllSingletons() {
		t.Fatalf("len=%d levels=%d tree=%v singletons=%v", f.Len(), f.Levels(), f.IsTree(), f.HasAllSingletons())
	}
	for id := 0; id < f.Len(); id++ {
		if p := f.Parent(id); p >= 0 && f.Size(p) != 2*f.Size(id) {
			t.Fatalf("parent of set %d (size %d) has size %d", id, f.Size(id), f.Size(p))
		}
	}
}
