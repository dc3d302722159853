package serve

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"hsp/internal/model"
	"hsp/internal/sched"
	"hsp/internal/workload"
)

// shifted returns a copy of s with every interval, and the horizon,
// moved later by d: the same schedule, ending d later.
func shifted(s *sched.Schedule, d int64) *sched.Schedule {
	c := *s
	c.Horizon += d
	c.Intervals = append([]sched.Interval(nil), s.Intervals...)
	for i := range c.Intervals {
		c.Intervals[i].Start += d
		c.Intervals[i].End += d
	}
	return &c
}

// TestSchedulePastMakespanRefused: an answer whose schedule ends after
// the makespan it reports leaves for no algo, even when the schedule
// validates and the reported makespan meets every bound. Each answer's
// schedule is shifted by its reported makespan, so it ends at twice it.
func TestSchedulePastMakespanRefused(t *testing.T) {
	doc, frames := rtDoc(t, workload.Config{
		Topology: workload.SemiPartitioned, Machines: 4, Jobs: 10, Seed: 3,
		MinWork: 2, MaxWork: 30,
	})
	in, err := model.Decode(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	m1, err := workload.AttachModel1(in, workload.MemoryConfig{MinSize: 1, MaxSize: 10, BudgetSlack: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := workload.AttachModel2(in, workload.MemoryConfig{Mu: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []*Request{
		{Algo: AlgoExact},
		{Algo: Algo2Approx},
		{Algo: AlgoBest},
		{Algo: AlgoRT, Instance: doc, Frame: frames[len(frames)-1]},
		{Algo: AlgoMemory1, Memory: &MemorySpec{Budget: m1.Budget, Size: m1.Size}},
		{Algo: AlgoMemory2, Memory: &MemorySpec{JobSize: m2.JobSize, Mu: m2.Mu}},
		{Algo: AlgoDAG, Instance: dagJSON(t)},
	}
	run := func(req *Request) (*Outcome, error) {
		if req.Algo != AlgoDAG {
			return Run(context.Background(), in, req, nil)
		}
		d, err := decode(req)
		if err != nil {
			return nil, err
		}
		return RunScenario(context.Background(), d.wl, req, nil)
	}
	for _, req := range reqs {
		out, err := run(req)
		if err != nil {
			t.Fatalf("%s: real answer refused: %v", req.Algo, err)
		}
		if out.Schedule == nil || out.Makespan <= 0 {
			t.Fatalf("%s: answer without a schedule: %+v", req.Algo, out.Response)
		}
		err = bent(out, func(o *Outcome) { o.Schedule = shifted(o.Schedule, o.Makespan) })
		if err == nil || !strings.Contains(err.Error(), "after the reported makespan") {
			t.Fatalf("%s: schedule shifted past makespan %d certified: err=%v", req.Algo, out.Makespan, err)
		}
	}
}
