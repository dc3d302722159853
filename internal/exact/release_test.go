package exact

import (
	"context"
	"testing"

	"hsp/internal/model"
)

// assertReleased checks the pooling contract the serving layer depends
// on: after a probe returns — on any path — the workspace retains neither
// the request's context (deadline timers, cancel chains) nor its
// instance. A worker's pooled workspace must never pin a finished
// request's memory.
func assertReleased(t *testing.T, ws *Workspace, path string) {
	t.Helper()
	if ws.ctx != nil {
		t.Errorf("%s: workspace retained the request context", path)
	}
	if ws.in != nil {
		t.Errorf("%s: workspace retained the request instance", path)
	}
}

// TestWorkspaceReleasesProbeState walks every exit path of
// FeasibleAssignment — success, trivial infeasibility, node-cap abort,
// canceled context — and checks each leaves the workspace released and
// reusable.
func TestWorkspaceReleasesProbeState(t *testing.T) {
	in := model.ExampleII1()
	ws := NewWorkspace()

	// Success path.
	a, ok, err := FeasibleAssignment(context.Background(), in, in.TrivialUpperBound(), Options{}, ws)
	if err != nil || !ok || len(a) != in.N() {
		t.Fatalf("probe at the trivial bound: a=%v ok=%v err=%v", a, ok, err)
	}
	assertReleased(t, ws, "success")

	// Trivially infeasible path (no job has a candidate at T=0).
	if _, ok, err := FeasibleAssignment(context.Background(), in, 0, Options{}, ws); ok || err != nil {
		t.Fatalf("probe at T=0: ok=%v err=%v", ok, err)
	}
	assertReleased(t, ws, "infeasible")

	// Node-cap abort path — the error exit a canceled DFS also takes.
	if _, _, err := FeasibleAssignment(context.Background(), in, in.TrivialUpperBound(), Options{MaxNodes: 1}, ws); err == nil {
		t.Fatal("node cap 1 did not abort the probe")
	}
	assertReleased(t, ws, "node-cap abort")

	// Canceled-context probe: whatever the outcome, the release contract
	// holds (the poll sits on a node stride, so a tiny probe may finish
	// before noticing — retaining nothing is what matters here).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _ = FeasibleAssignment(ctx, in, in.TrivialUpperBound(), Options{}, ws)
	assertReleased(t, ws, "canceled")

	// The aborted probes left the workspace reusable: a fresh solve on it
	// still finds Example II.1's optimum.
	if _, opt, err := Solve(context.Background(), in, Options{}, ws); err != nil || opt != 2 {
		t.Fatalf("solve on reused workspace: opt=%d err=%v, want 2/nil", opt, err)
	}
	assertReleased(t, ws, "reuse solve")
}
