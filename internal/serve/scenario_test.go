package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"hsp/internal/dag"
)

// dagJSON returns a small DAG-task document in the wire format the
// "dag" algo consumes.
func dagJSON(t *testing.T) json.RawMessage {
	t.Helper()
	task := &dag.Task{
		Machines:  2,
		MemBudget: 8,
		Nodes: []dag.Node{
			{Work: 4, Mem: 3},
			{Work: 6, Mem: 2},
			{Work: 3, Mem: 5},
			{Work: 5, Mem: 1},
			{Work: 2, Mem: 4},
		},
		Edges: [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {2, 4}},
	}
	var buf bytes.Buffer
	if err := dag.Encode(&buf, task); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDoDAG(t *testing.T) {
	resp, err := Do(context.Background(), &Request{
		Algo:         AlgoDAG,
		Instance:     dagJSON(t),
		WantSchedule: true,
	}, nil)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Scenario != dag.Name {
		t.Fatalf("scenario = %q, want %q", resp.Scenario, dag.Name)
	}
	if resp.ScenarioLB <= 0 || resp.Segments <= 0 {
		t.Fatalf("missing scenario metadata: %+v", resp)
	}
	if resp.Makespan <= 0 || resp.Makespan > 2*resp.ScenarioLB {
		t.Fatalf("DAG claim violated: makespan=%d LB=%d", resp.Makespan, resp.ScenarioLB)
	}
	if resp.MaxLive <= 0 || resp.MaxLive > 8 {
		t.Fatalf("maxLive %d outside (0, budget]", resp.MaxLive)
	}
	if resp.Makespan > 2*resp.LPBound {
		t.Fatalf("LP certificate violated: makespan=%d T*=%d", resp.Makespan, resp.LPBound)
	}
	if len(resp.Assignment) != resp.Segments {
		t.Fatalf("%d assignments for %d segments", len(resp.Assignment), resp.Segments)
	}
	if len(resp.Schedule) == 0 {
		t.Fatal("want_schedule set but no schedule in response")
	}
}

func TestDoDAGRejectsBadDocuments(t *testing.T) {
	for name, doc := range map[string]string{
		"garbage": `{nope`,
		"cycle":   `{"machines":2,"nodes":[{"work":1},{"work":1}],"edges":[[0,1],[1,0]]}`,
		"empty":   `{"machines":2,"nodes":[]}`,
	} {
		_, err := Do(context.Background(), &Request{Algo: AlgoDAG, Instance: json.RawMessage(doc)}, nil)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !IsBadRequest(err) {
			t.Errorf("%s: error %v is not a bad request", name, err)
		}
	}
}

// TestDoRigidScenario pins that the rigid scenario is routable too: the
// paper's native model served through the same scenario path, answering
// exactly like "best" on the embedded instance.
func TestDoRigidScenario(t *testing.T) {
	inst := instanceJSON(t)
	viaScenario, err := Do(context.Background(), &Request{Algo: "rigid", Instance: inst}, nil)
	if err != nil {
		t.Fatalf("rigid: %v", err)
	}
	viaBest, err := Do(context.Background(), &Request{Algo: AlgoBest, Instance: inst}, nil)
	if err != nil {
		t.Fatalf("best: %v", err)
	}
	if viaScenario.Makespan != viaBest.Makespan || viaScenario.LPBound != viaBest.LPBound {
		t.Fatalf("rigid scenario diverged from best: %+v vs %+v", viaScenario, viaBest)
	}
	if viaScenario.Scenario != "rigid" {
		t.Fatalf("scenario = %q", viaScenario.Scenario)
	}
	if viaScenario.Algo != "rigid" {
		t.Fatalf("algo = %q", viaScenario.Algo)
	}
}

// TestHandlerSolveDAG drives the full daemon path: HTTP in, worker
// pool, workspace reuse, claim-checked answer out.
func TestHandlerSolveDAG(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body, _ := json.Marshal(&Request{Algo: AlgoDAG, Instance: dagJSON(t), WantSchedule: true})
	status, b, _ := post(t, ts.URL+"/v1/solve", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, b)
	}
	var resp Response
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" {
		t.Fatalf("unexpected error: %s", resp.Error)
	}
	if resp.Scenario != dag.Name || resp.ScenarioLB <= 0 {
		t.Fatalf("scenario metadata missing: %s", b)
	}
	if resp.Makespan <= 0 || resp.Makespan > 2*resp.ScenarioLB {
		t.Fatalf("DAG claim violated over HTTP: makespan=%d LB=%d", resp.Makespan, resp.ScenarioLB)
	}
	if len(resp.Schedule) == 0 {
		t.Fatal("no schedule over HTTP")
	}
}

func TestHandlerRejectsBadDAGDocument(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body, _ := json.Marshal(&Request{Algo: AlgoDAG, Instance: json.RawMessage(`{"machines":0,"nodes":[{"work":1}]}`)})
	status, b, _ := post(t, ts.URL+"/v1/solve", body)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", status, b)
	}
}

// TestScenarioAnswersCertified: a dag answer leaves only if its
// makespan is within the compile's certified Factor·LowerBound.
func TestScenarioAnswersCertified(t *testing.T) {
	req := &Request{Algo: AlgoDAG, Instance: dagJSON(t)}
	d, err := decode(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunScenario(context.Background(), d.wl, req, nil)
	if err != nil {
		t.Fatalf("real answer refused: %v", err)
	}
	// With a lower bound of 1, the factor-2 claim allows makespan 2.
	if out.Makespan <= 2 {
		t.Fatalf("makespan %d too small to exceed 2·1", out.Makespan)
	}
	err = bent(out, func(o *Outcome) { o.ScenarioLB = 1 })
	if err == nil || !strings.Contains(err.Error(), `scenario "dag": scenario: makespan`) ||
		!strings.Contains(err.Error(), "violates certified bound 2.0·1") {
		t.Fatalf("makespan %d above 2·1 certified: err=%v", out.Makespan, err)
	}
}
