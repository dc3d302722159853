package laminar

import (
	"testing"
)

// FuzzNew decodes arbitrary bytes as a set family and checks New against
// a brute-force pairwise oracle: the input is accepted iff no set repeats
// a machine and the sets are distinct and pairwise nested-or-disjoint,
// and Parent is the smallest strict superset. Accepted families must
// also keep their structural invariants.
func FuzzNew(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 2, 3, 255, 0, 255, 1})
	f.Add(uint8(2), []byte{0, 255, 1, 255, 0, 1})
	f.Add(uint8(8), []byte{0, 1, 2, 3, 4, 5, 6, 7, 255, 0, 1, 255, 2, 3})
	f.Fuzz(func(t *testing.T, mRaw uint8, data []byte) {
		m := 1 + int(mRaw%12)
		// 255 separates sets; other bytes are machine indices mod m.
		var sets [][]int
		var cur []int
		for _, b := range data {
			if b == 255 {
				if len(cur) > 0 {
					sets = append(sets, cur)
					cur = nil
				}
				continue
			}
			cur = append(cur, int(b)%m)
		}
		if len(cur) > 0 {
			sets = append(sets, cur)
		}
		fam, err := New(m, sets)
		valid, parent := bruteForce(m, sets)
		if valid != (err == nil) {
			t.Fatalf("New(%d, %v): err=%v, oracle valid=%v", m, sets, err, valid)
		}
		if err != nil {
			return
		}
		for id := range sets {
			if fam.Parent(id) != parent[id] {
				t.Fatalf("Parent(%d) = %d, oracle %d (sets %v)", id, fam.Parent(id), parent[id], sets)
			}
		}
		// Accepted families must satisfy the structural invariants.
		for id := 0; id < fam.Len(); id++ {
			if p := fam.Parent(id); p >= 0 {
				for _, i := range fam.Machines(id) {
					if !fam.Contains(p, i) {
						t.Fatalf("set %d not contained in parent %d", id, p)
					}
				}
				if fam.Level(id) != fam.Level(p)+1 {
					t.Fatalf("level inconsistency at %d", id)
				}
			}
			for _, c := range fam.Children(id) {
				if fam.Parent(c) != id {
					t.Fatalf("children/parent mismatch at %d/%d", id, c)
				}
			}
		}
		for i := 0; i < m; i++ {
			mc := fam.MinimalContaining(i)
			if mc >= 0 && !fam.Contains(mc, i) {
				t.Fatalf("MinimalContaining(%d) = %d does not contain it", i, mc)
			}
		}
	})
}

// bruteForce decides laminarity by comparing every pair of sets and finds
// each set's smallest strict superset by scanning all others. An empty
// family is invalid.
func bruteForce(m int, sets [][]int) (bool, []int) {
	if len(sets) == 0 {
		return false, nil
	}
	member := make([][]bool, len(sets))
	for id, s := range sets {
		member[id] = make([]bool, m)
		for _, i := range s {
			if member[id][i] {
				return false, nil
			}
			member[id][i] = true
		}
	}
	subset := func(a, b int) bool { // sets[a] ⊆ sets[b]
		for _, i := range sets[a] {
			if !member[b][i] {
				return false
			}
		}
		return true
	}
	parent := make([]int, len(sets))
	for a := range sets {
		parent[a] = -1
		for b := range sets {
			if a == b {
				continue
			}
			ab, ba := subset(a, b), subset(b, a)
			meet := false
			for _, i := range sets[a] {
				meet = meet || member[b][i]
			}
			if (ab && ba) || (meet && !ab && !ba) {
				return false, nil
			}
			if ab && (parent[a] < 0 || len(sets[b]) < len(sets[parent[a]])) {
				parent[a] = b
			}
		}
	}
	return true, parent
}
