package dag

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"hsp/internal/approx"
	"hsp/internal/model"
	"hsp/internal/scenario"
)

// diamond returns the classic 4-node diamond: 0 → {1,2} → 3.
func diamond() *Task {
	return &Task{
		Machines:  2,
		MemBudget: 10,
		Nodes: []Node{
			{Work: 2, Mem: 4},
			{Work: 3, Mem: 2},
			{Work: 5, Mem: 3},
			{Work: 1, Mem: 1},
		},
		Edges: [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	d := diamond()
	order, err := d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	// Kahn with min-index tie-breaking: 0 first, then 1 before 2, then 3.
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	// Positions must respect every edge.
	pos := make([]int, len(d.Nodes))
	for p, v := range order {
		pos[v] = p
	}
	for _, e := range d.Edges {
		if pos[e[0]] >= pos[e[1]] {
			t.Fatalf("edge %v violated by order %v", e, order)
		}
	}
}

func TestCycleRejected(t *testing.T) {
	d := diamond()
	d.Edges = append(d.Edges, [2]int{3, 0})
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Task){
		"zero machines":    func(d *Task) { d.Machines = 0 },
		"huge machines":    func(d *Task) { d.Machines = MaxMachines + 1 },
		"bad branching":    func(d *Task) { d.Branching = []int{3} },
		"zero work":        func(d *Task) { d.Nodes[1].Work = 0 },
		"negative mem":     func(d *Task) { d.Nodes[1].Mem = -1 },
		"mem over budget":  func(d *Task) { d.Nodes[1].Mem = d.MemBudget + 1 },
		"negative budget":  func(d *Task) { d.MemBudget = -5 },
		"no nodes":         func(d *Task) { d.Nodes = nil },
		"self loop":        func(d *Task) { d.Edges[0] = [2]int{1, 1} },
		"duplicate edge":   func(d *Task) { d.Edges = append(d.Edges, [2]int{0, 1}) },
		"edge out of rng":  func(d *Task) { d.Edges[0] = [2]int{0, 9} },
		"edge negative":    func(d *Task) { d.Edges[0] = [2]int{-1, 1} },
		"branching factor": func(d *Task) { d.Branching = []int{0, 2} },
	}
	for name, mutate := range cases {
		d := diamond()
		mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad task", name)
		}
	}
	good := diamond()
	if err := good.Validate(); err != nil {
		t.Fatalf("diamond should validate: %v", err)
	}
	good.Branching = []int{2}
	if err := good.Validate(); err != nil {
		t.Fatalf("branching {2} on 2 machines should validate: %v", err)
	}
}

func TestBounds(t *testing.T) {
	d := diamond()
	cp, err := d.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	// Longest chain: 0 → 2 → 3 with work 2+5+1 = 8.
	if cp != 8 {
		t.Fatalf("critical path = %d, want 8", cp)
	}
	if w := d.TotalWork(); w != 11 {
		t.Fatalf("total work = %d, want 11", w)
	}
	lb, err := d.LowerBound()
	if err != nil {
		t.Fatal(err)
	}
	// max(CP=8, ceil(11/2)=6) = 8: span-dominated.
	if lb != 8 {
		t.Fatalf("lower bound = %d, want 8", lb)
	}
	// Width-dominated regime: a wide independent set on few machines.
	wide := &Task{Machines: 2, Nodes: make([]Node, 10)}
	for i := range wide.Nodes {
		wide.Nodes[i] = Node{Work: 3}
	}
	lb, err = wide.LowerBound()
	if err != nil {
		t.Fatal(err)
	}
	// max(CP=3, ceil(30/2)=15) = 15.
	if lb != 15 {
		t.Fatalf("wide lower bound = %d, want 15", lb)
	}
}

// checkPartition asserts the structural invariants every partition must
// satisfy: segments tile the order, work is conserved, and every
// segment respects the work cap and (when set) the memory budget.
func checkPartition(t *testing.T, d *Task, p *Partition) {
	t.Helper()
	var tiled []int
	var work int64
	for _, seg := range p.Segments {
		if len(seg.Nodes) == 0 {
			t.Fatalf("empty segment")
		}
		tiled = append(tiled, seg.Nodes...)
		work += seg.Work
		if seg.Work > p.WorkCap {
			t.Fatalf("segment work %d exceeds cap %d", seg.Work, p.WorkCap)
		}
		if d.MemBudget > 0 && seg.MaxLive > d.MemBudget {
			t.Fatalf("segment maxLive %d exceeds budget %d", seg.MaxLive, d.MemBudget)
		}
	}
	if !reflect.DeepEqual(tiled, p.Order) {
		t.Fatalf("segments do not tile the order:\n%v\nvs\n%v", tiled, p.Order)
	}
	if work != d.TotalWork() {
		t.Fatalf("work not conserved: %d vs %d", work, d.TotalWork())
	}
}

func TestPartitionInvariants(t *testing.T) {
	d := diamond()
	p, err := d.Partition()
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, d, p)
}

func TestPartitionBudgetMonotone(t *testing.T) {
	// A chain with chunky intermediate values: tightening the budget
	// can only add cuts, never remove them.
	d := &Task{Machines: 2, Nodes: make([]Node, 16)}
	for i := range d.Nodes {
		d.Nodes[i] = Node{Work: 1, Mem: int64(1 + i%5)}
		if i > 0 {
			d.Edges = append(d.Edges, [2]int{i - 1, i})
		}
	}
	prev := -1
	for _, budget := range []int64{50, 20, 10, 5} {
		d.MemBudget = budget
		if err := d.Validate(); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		p, err := d.Partition()
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, d, p)
		if prev >= 0 && len(p.Segments) < prev {
			t.Fatalf("budget %d gave %d segments, looser budget gave %d", budget, len(p.Segments), prev)
		}
		prev = len(p.Segments)
	}
}

func TestCompileCertificate(t *testing.T) {
	for name, d := range map[string]*Task{
		"diamond":    diamond(),
		"hierarchy":  {Machines: 4, Branching: []int{2, 2}, MemBudget: 6, Nodes: []Node{{Work: 4, Mem: 2}, {Work: 2, Mem: 3}, {Work: 7, Mem: 1}, {Work: 1, Mem: 6}}, Edges: [][2]int{{0, 2}, {1, 2}}},
		"one node":   {Machines: 1, Nodes: []Node{{Work: 9, Mem: 3}}},
		"no memory":  {Machines: 3, Nodes: []Node{{Work: 5}, {Work: 5}, {Work: 5}, {Work: 5}}},
		"wide chain": {Machines: 2, MemBudget: 4, Nodes: []Node{{Work: 3, Mem: 4}, {Work: 3, Mem: 4}, {Work: 3, Mem: 4}, {Work: 3, Mem: 4}, {Work: 3, Mem: 4}, {Work: 3, Mem: 4}}},
	} {
		c, err := d.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		lb, err := d.LowerBound()
		if err != nil {
			t.Fatal(err)
		}
		if c.LowerBound != lb || c.Factor != 2 {
			t.Fatalf("%s: claim = (%d, %g), want (%d, 2)", name, c.LowerBound, c.Factor, lb)
		}
		if c.Instance.N() != c.Segments {
			t.Fatalf("%s: %d jobs for %d segments", name, c.Instance.N(), c.Segments)
		}
		if c.Instance.M() != d.Machines {
			t.Fatalf("%s: compiled onto %d machines, want %d", name, c.Instance.M(), d.Machines)
		}
		if d.MemBudget > 0 {
			if c.Memory1 == nil {
				t.Fatalf("%s: no memory annotations despite budget", name)
			}
			if c.MaxLive > d.MemBudget {
				t.Fatalf("%s: compiled maxLive %d over budget %d", name, c.MaxLive, d.MemBudget)
			}
			if err := c.Memory1.Validate(); err != nil {
				t.Fatalf("%s: memory model invalid: %v", name, err)
			}
		} else if c.Memory1 != nil {
			t.Fatalf("%s: unexpected memory annotations", name)
		}
		// The feasibility certificate behind the claim: all segments on
		// the root set reach makespan ≤ LB, so OPT ≤ LB.
		root := -1
		f := c.Instance.Family
		for s := 0; s < f.Len(); s++ {
			if f.Size(s) == f.M() {
				root = s
			}
		}
		if root < 0 {
			t.Fatalf("%s: compiled family has no root set", name)
		}
		asg := make(model.Assignment, c.Instance.N())
		for j := range asg {
			asg[j] = root
		}
		if mk := asg.MinMakespan(c.Instance); mk > lb {
			t.Fatalf("%s: root assignment makespan %d exceeds LB %d", name, mk, lb)
		}
		// End to end: the 2-approximation lands within 2·LB.
		res, err := approx.TwoApprox(context.Background(), c.Instance, nil)
		if err != nil {
			t.Fatalf("%s: solve: %v", name, err)
		}
		if err := c.CheckMakespan(res.Makespan); err != nil {
			t.Fatalf("%s: %v (makespan %d, LB %d)", name, err, res.Makespan, lb)
		}
	}
}

func TestJSONRoundTripStable(t *testing.T) {
	d := diamond()
	d.Branching = []int{2}
	var b1 bytes.Buffer
	if err := Encode(&b1, d); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBytes(b1.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var b2 bytes.Buffer
	if err := Encode(&b2, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("round trip not byte-stable:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatalf("round trip changed the task:\n%+v\nvs\n%+v", d, back)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		``,
		`{`,
		`{"machines":2,"nodes":[],"edges":[]}`,
		`{"machines":2,"nodes":[{"work":1}],"edges":[[0,0]]}`,
		`{"machines":0,"nodes":[{"work":1}]}`,
		`{"machines":2,"nodes":[{"work":1},{"work":1}],"edges":[[0,1],[1,0]]}`,
	} {
		if _, err := DecodeBytes([]byte(bad)); err == nil {
			t.Errorf("decode accepted %q", bad)
		}
	}
}

func TestScenarioRegistered(t *testing.T) {
	desc, ok := scenario.Lookup(Name)
	if !ok {
		t.Fatalf("dag scenario not registered")
	}
	var buf bytes.Buffer
	if err := Encode(&buf, diamond()); err != nil {
		t.Fatal(err)
	}
	wl, err := desc.Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("registry decode: %v", err)
	}
	if wl.Scenario() != Name {
		t.Fatalf("Scenario() = %q", wl.Scenario())
	}
	c, err := wl.Compile()
	if err != nil {
		t.Fatalf("registry compile: %v", err)
	}
	if c.Instance == nil || c.LowerBound <= 0 {
		t.Fatalf("bad compile result: %+v", c)
	}
}
