package lp

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// cancelAfter is a context whose Err turns to context.Canceled after n
// polls, so a solve can be canceled between two given pivots.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestSolveAfterVerdictIsCold: a Solve on a workspace whose tableau a
// Verdict pivoted, warm hits and cancellations included, runs cold and
// returns the vertex of a fresh workspace bit for bit; the residue drop
// never outlives the Verdict.
func TestSolveAfterVerdictIsCold(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	loads := []float64{4, 2, 1, 0.75, 0.9}
	var verdictHits, canceled int
	for spec := 0; spec < 60; spec++ {
		s := genSpec(rng)
		ws := NewWorkspace()
		for k, load := range loads {
			p, ok := s.build(load, nil)
			if !ok {
				continue
			}
			var ctx context.Context = context.Background()
			if k == len(loads)-1 {
				// The last verdict is canceled before its first pivot
				// when it warm-starts, or after one pivot when cold.
				ctx = &cancelAfter{Context: ctx, n: 1}
			}
			hits := ws.Stats().WarmHits
			if _, err := p.Verdict(ctx, ws); err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Fatal(err)
				}
				canceled++
			}
			verdictHits += ws.Stats().WarmHits - hits
			if ws.t.drop != 0 {
				t.Fatalf("spec %d: drop %g left set after a Verdict", spec, ws.t.drop)
			}
			before := ws.Stats()
			sol, err := p.Solve(nil, ws)
			fresh, errF := p.Solve(nil, nil)
			if err != nil || errF != nil {
				t.Fatalf("spec %d: %v / %v", spec, err, errF)
			}
			if st := ws.Stats(); st.WarmHits != before.WarmHits || st.ColdSolves != before.ColdSolves+1 {
				t.Fatalf("spec %d load %g: Solve re-entered a tableau a Verdict pivoted: %+v → %+v", spec, load, before, st)
			}
			if sol.Status != fresh.Status || len(sol.X) != len(fresh.X) {
				t.Fatalf("spec %d load %g: status %v, fresh %v", spec, load, sol.Status, fresh.Status)
			}
			for i := range sol.X {
				if sol.X[i] != fresh.X[i] {
					t.Fatalf("spec %d load %g: x[%d] = %g, fresh %g", spec, load, i, sol.X[i], fresh.X[i])
				}
			}
			// The next Verdict re-enters the basis this exact Solve
			// retained; the Solve after it must still run cold.
		}
	}
	if verdictHits == 0 || canceled == 0 {
		t.Fatalf("verdict warm hits %d, canceled verdicts %d: a scope path never ran", verdictHits, canceled)
	}
}

// TestRowUpdatesCounted: RowUpdates counts the rows pivots eliminated,
// at most nrows−1 per pivot, and ResetStats zeroes it.
func TestRowUpdatesCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	total := 0
	for spec := 0; spec < 60; spec++ {
		s := genSpec(rng)
		p, ok := s.build(1, nil)
		if !ok {
			continue
		}
		ws := NewWorkspace()
		if _, err := p.Solve(nil, ws); err != nil {
			t.Fatal(err)
		}
		st := ws.Stats()
		if st.RowUpdates > st.Pivots*(p.NumConstraints()-1) {
			t.Fatalf("spec %d: %d row updates in %d pivots over %d rows",
				spec, st.RowUpdates, st.Pivots, p.NumConstraints())
		}
		total += st.RowUpdates
		ws.ResetStats()
		if ws.Stats().RowUpdates != 0 {
			t.Fatal("ResetStats left RowUpdates")
		}
	}
	if total == 0 {
		t.Fatal("no row updates counted over 60 specs")
	}
}
