// Package hsp is a library for hierarchical and semi-partitioned parallel
// scheduling, reproducing "Algorithms for Hierarchical and Semi-Partitioned
// Parallel Scheduling" (Bonifaci, D'Angelo, Marchetti-Spaccamela, IPPS/IPDPS
// 2017).
//
// The model: n jobs must be assigned affinity masks from a laminar family A
// of machine subsets; a job assigned to mask α needs P_j(α) units of
// processing (monotone in α, modelling migration overheads), may be
// preempted and migrated freely inside α, and never runs parallel to
// itself. The goal is minimum makespan.
//
// Entry points:
//
//   - Topology constructors (Flat, SemiPartitioned, Clustered, Hierarchy)
//     and NewInstance build instances; GenerateWorkload draws synthetic
//     SMP-CMP style workloads.
//   - Solve runs the paper's polynomial-time 2-approximation (Theorem V.2)
//     and returns an assignment, a valid schedule, and the LP lower bound
//     certifying the factor.
//   - SolveExact runs branch and bound for the true optimum on small
//     instances.
//   - BuildSchedule turns any feasible (assignment, T) into a valid
//     schedule using the paper's combinatorial two-phase scheduler
//     (Algorithms 2 and 3; Algorithm 1 in the semi-partitioned case).
//   - SolveMemory1 and SolveMemory2 handle the memory-constrained
//     extensions of Section VI with the paper's bicriteria guarantees.
//
// Every solver entry point takes a context first. The context cancels
// in-flight work cooperatively (between simplex pivots and every few
// thousand branch-and-bound nodes; the returned error wraps ctx.Err()).
// One-shot callers pass context.Background().
//
// All times are integers; schedules validate exactly.
package hsp

import (
	"context"
	"fmt"
	"io"

	"hsp/internal/approx"
	"hsp/internal/dag"
	"hsp/internal/exact"
	"hsp/internal/hier"
	"hsp/internal/laminar"
	"hsp/internal/memcap"
	"hsp/internal/model"
	"hsp/internal/relax"
	"hsp/internal/rt"
	"hsp/internal/scenario"
	"hsp/internal/sched"
	"hsp/internal/semipart"
	"hsp/internal/sim"
	"hsp/internal/workload"
)

// Core model types.
type (
	// Instance is a hierarchical scheduling instance: a laminar family plus
	// monotone per-job processing-time functions.
	Instance = model.Instance
	// GeneralInstance allows arbitrary (non-laminar) admissible families;
	// only the 8-approximation handles it.
	GeneralInstance = model.GeneralInstance
	// Assignment maps each job to the id of its affinity mask.
	Assignment = model.Assignment
	// Family is a laminar family of machine subsets.
	Family = laminar.Family
	// Schedule is a set of job/machine/time intervals with a validator.
	Schedule = sched.Schedule
	// Interval is one run of a job on a machine.
	Interval = sched.Interval
	// Stats counts migrations and preemptions.
	Stats = sched.Stats
	// Result is the outcome of the 2-approximation.
	Result = approx.Result
	// GeneralResult is the outcome of the 8-approximation.
	GeneralResult = approx.GeneralResult
	// Memory1 is Section VI Model 1 (per-machine budgets).
	Memory1 = memcap.Model1
	// Memory2 is Section VI Model 2 (per-level capacities).
	Memory2 = memcap.Model2
	// MemoryResult is a bicriteria solution for either memory model.
	MemoryResult = memcap.Result
	// CostModel prices migrations (by hierarchy distance) and preemptions
	// for the execution simulator.
	CostModel = sim.CostModel
	// SimReport is an execution trace with cost accounting.
	SimReport = sim.Report
	// SimEvent is one trace entry.
	SimEvent = sim.Event
	// WorkloadConfig parameterizes synthetic instance generation.
	WorkloadConfig = workload.Config
	// MemoryConfig parameterizes memory annotations.
	MemoryConfig = workload.MemoryConfig
	// Topology selects a workload family shape.
	Topology = workload.Topology
)

// Infinity marks inadmissible (job, mask) pairs in Instance.Proc.
const Infinity = model.Infinity

// Workload topologies.
const (
	TopoFlat            = workload.Flat
	TopoSingletons      = workload.Singletons
	TopoSemiPartitioned = workload.SemiPartitioned
	TopoClustered       = workload.Clustered
	TopoSMPCMP          = workload.SMPCMP
	TopoRandomLaminar   = workload.RandomLaminar
)

// NewFamily validates the given subsets of {0..m-1} as a laminar family.
func NewFamily(m int, sets [][]int) (*Family, error) { return laminar.New(m, sets) }

// Flat returns A = {M}: free migration (P|pmtn|Cmax).
func Flat(m int) *Family { return laminar.Flat(m) }

// Singletons returns A = {{0},...,{m-1}}: unrelated machines (R||Cmax).
func Singletons(m int) *Family { return laminar.Singletons(m) }

// SemiPartitioned returns A = {M} ∪ singletons (Section III).
func SemiPartitioned(m int) *Family { return laminar.SemiPartitioned(m) }

// Clustered returns {M} ∪ k clusters of q machines ∪ singletons.
func Clustered(k, q int) (*Family, error) { return laminar.Clustered(k, q) }

// Hierarchy builds a complete multi-level hierarchy from branching factors,
// e.g. Hierarchy(2, 2, 2) for a 2-node × 2-chip × 2-core SMP-CMP cluster.
func Hierarchy(branching ...int) (*Family, error) { return laminar.Hierarchy(branching...) }

// NewInstance returns an empty instance over the family; add jobs with
// AddJob/AddJobMap and check with Validate.
func NewInstance(f *Family) *Instance { return model.New(f) }

// ExampleII1 is the paper's Example II.1/III.1 instance.
func ExampleII1() *Instance { return model.ExampleII1() }

// ExampleV1 is the paper's Example V.1 gap family for n jobs.
func ExampleV1(n int) *Instance { return model.ExampleV1(n) }

// DecodeInstance parses an instance from its JSON representation.
func DecodeInstance(r io.Reader) (*Instance, error) { return model.Decode(r) }

// EncodeInstance writes an instance as JSON.
func EncodeInstance(w io.Writer, in *Instance) error { return model.Encode(w, in) }

// EncodeSchedule writes a schedule as JSON.
func EncodeSchedule(w io.Writer, s *Schedule) error { return sched.EncodeJSON(w, s) }

// DecodeSchedule parses a schedule from JSON.
func DecodeSchedule(r io.Reader) (*Schedule, error) { return sched.DecodeJSON(r) }

// Solve runs the polynomial-time 2-approximation of Theorem V.2 and
// returns the assignment, a valid schedule, the achieved makespan, and the
// LP lower bound T* certifying Makespan ≤ 2·T* ≤ 2·OPT. The LP binary
// search and the vertex LP abort between simplex pivots once ctx is done
// (the error wraps ctx.Err()).
func Solve(ctx context.Context, in *Instance) (*Result, error) {
	return approx.TwoApprox(ctx, in, nil)
}

// SolveBest runs the 2-approximation and the greedy+local-search heuristic
// and returns whichever schedule is shorter, keeping the LP bound as the
// quality certificate (Makespan ≤ 2·T* still holds — the heuristic can
// only improve on the certified solution). This is the recommended
// production entry point; Solve is the paper's algorithm verbatim.
// ctx is polled as in Solve.
func SolveBest(ctx context.Context, in *Instance) (*Result, error) {
	return approx.Best(ctx, in, nil)
}

// SolveGeneral runs the Section II 8-approximation for non-laminar
// admissible families.
func SolveGeneral(ctx context.Context, g *GeneralInstance) (*GeneralResult, error) {
	return approx.EightApprox(ctx, g)
}

// SolveExact computes the optimal assignment and makespan by branch and
// bound; exponential worst case, intended for small instances. maxNodes
// caps the search (0 = default). The LP seeding, the binary search and
// the branch-and-bound all poll ctx, so a canceled caller abandons the
// search within a few thousand DFS nodes (the error wraps ctx.Err()).
func SolveExact(ctx context.Context, in *Instance, maxNodes int) (Assignment, int64, error) {
	return exact.Solve(ctx, in, exact.Options{MaxNodes: maxNodes}, nil)
}

// LowerBoundLP returns the minimal integer T with a feasible fractional
// relaxation of the assignment ILP — a lower bound on the optimum.
func LowerBoundLP(ctx context.Context, in *Instance) (int64, error) {
	t, _, err := relax.MinFeasibleT(ctx, in, nil)
	return t, err
}

// BuildSchedule realizes a feasible (assignment, T) as a valid schedule
// with the paper's two-phase combinatorial scheduler (Theorem IV.3).
func BuildSchedule(in *Instance, a Assignment, T int64) (*Schedule, error) {
	return hier.Schedule(in, a, T)
}

// BuildScheduleSemiPartitioned is Algorithm 1, specialized to the
// two-level semi-partitioned family (Theorem III.1, Proposition III.2).
func BuildScheduleSemiPartitioned(in *Instance, a Assignment, T int64) (*Schedule, error) {
	return semipart.Schedule(in, a, T)
}

// ValidateSchedule checks a schedule against the demands the assignment
// induces.
func ValidateSchedule(in *Instance, a Assignment, s *Schedule) error {
	demand, allowed := a.Requirement(in)
	return s.Validate(sched.Requirement{Demand: demand, Allowed: allowed})
}

// SolveMemory1 solves the per-machine-budget extension with the Theorem
// VI.1 bicriteria target (makespan ≤ 3T, memory ≤ 3B_i). The binary
// search and every iterative-rounding LP poll ctx between simplex pivots.
func SolveMemory1(ctx context.Context, m1 *Memory1) (*MemoryResult, error) {
	return memcap.SolveModel1(ctx, m1)
}

// SolveMemory2 solves the per-level-capacity extension with the Theorem
// VI.3 target (σ = 2 + H_k on both criteria). ctx is polled as in
// SolveMemory1.
func SolveMemory2(ctx context.Context, m2 *Memory2) (*MemoryResult, error) {
	return memcap.SolveModel2(ctx, m2)
}

// Real-time layer: frame-based periodic schedulability (see internal/rt).
type (
	// RTResult is the outcome of a schedulability test.
	RTResult = rt.Result
	// RTOptions tunes the schedulability test.
	RTOptions = rt.Options
	// RTVerdict is schedulable / unschedulable / unknown.
	RTVerdict = rt.Verdict
)

// Real-time verdicts.
const (
	RTUnschedulable = rt.Unschedulable
	RTSchedulable   = rt.Schedulable
	RTUnknown       = rt.Unknown
)

// TestSchedulability decides whether the task set (jobs = tasks, processing
// times = mask-dependent WCETs) fits a frame of the given length; the
// returned one-frame schedule repeats verbatim every frame.
func TestSchedulability(ctx context.Context, in *Instance, frame int64, opts RTOptions) (*RTResult, error) {
	return rt.Test(ctx, in, frame, opts)
}

// MinFrame brackets the minimal schedulable frame length: [LP bound,
// best constructive makespan].
func MinFrame(ctx context.Context, in *Instance) (lower, upper int64, err error) {
	return rt.MinFrame(ctx, in)
}

// UnrollSchedule repeats a one-frame schedule for the given frame count.
func UnrollSchedule(s *Schedule, frame int64, frames int) *Schedule {
	return rt.Unroll(s, frame, frames)
}

// Utilization returns the task set's load relative to platform capacity,
// Σ min WCET / (m·frame); above 1 is trivially unschedulable.
func Utilization(in *Instance, frame int64) float64 { return rt.Utilization(in, frame) }

// Simulate replays a schedule under the cost model, producing an event
// trace with per-job migration/preemption cost accounting.
func Simulate(f *Family, s *Schedule, cm CostModel) (*SimReport, error) {
	return sim.Run(f, s, cm)
}

// DefaultCostModel prices migrations at base·2^height (cheap within a
// chip, dear across nodes) and context switches at base/2.
func DefaultCostModel(f *Family, base int64) CostModel {
	return sim.DefaultCostModel(f, base)
}

// OverheadCovered reports how many jobs' mask allowances (P_j(mask) minus
// the best singleton inside it) covered the event costs the simulator
// charged, and the worst shortfall.
func OverheadCovered(in *Instance, a Assignment, rep *SimReport) (covered int, worstShortfall int64) {
	return sim.OverheadCheck(in, a, rep)
}

// RestrictInstance keeps only the given admissible set ids, deriving for
// example the partitioned or semi-partitioned regime from a fully
// hierarchical instance.
func RestrictInstance(in *Instance, keep []int) (*Instance, error) {
	return model.Restrict(in, keep)
}

// GenerateWorkload draws a synthetic instance; deterministic in cfg.Seed.
func GenerateWorkload(cfg WorkloadConfig) (*Instance, error) { return workload.Generate(cfg) }

// Scenario layer: pluggable workload families that compile down to the
// rigid laminar core (see internal/scenario). The DAG-task scenario
// partitions a precedence graph into maxLive-bounded segments and
// certifies a makespan within 2× of max(critical path, ceil(work/m)).
type (
	// ScenarioWorkload is a decoded scenario document: it validates,
	// compiles to an Instance, and re-encodes canonically.
	ScenarioWorkload = scenario.Workload
	// ScenarioCompiled is the lowered form: the rigid instance plus the
	// scenario's certified lower bound and approximation factor.
	ScenarioCompiled = scenario.Compiled
	// DAGTask is a precedence-constrained parallel task.
	DAGTask = dag.Task
	// DAGNode is one unit of a DAG task: work plus live memory.
	DAGNode = dag.Node
	// DAGPartition is the segment decomposition of a DAG task.
	DAGPartition = dag.Partition
	// DAGConfig parameterizes synthetic DAG-task generation.
	DAGConfig = workload.DAGConfig
)

// ScenarioNames lists the registered scenarios ("rigid", "dag", ...).
func ScenarioNames() []string { return scenario.Names() }

// DecodeScenario decodes a workload document for a registered scenario.
func DecodeScenario(name string, data []byte) (ScenarioWorkload, error) {
	desc, ok := scenario.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("hsp: unknown scenario %q (have %v)", name, scenario.Names())
	}
	return desc.Decode(data)
}

// GenerateDAG draws a synthetic DAG task; deterministic in cfg.Seed.
func GenerateDAG(cfg DAGConfig) (*DAGTask, error) { return workload.GenerateDAG(cfg) }

// EncodeDAG writes a DAG task in its canonical JSON schema.
func EncodeDAG(w io.Writer, t *DAGTask) error { return dag.Encode(w, t) }

// DecodeDAG parses and validates a DAG task from JSON.
func DecodeDAG(r io.Reader) (*DAGTask, error) { return dag.Decode(r) }

// CompileDAG lowers a DAG task onto the laminar core: segments become
// rigid jobs, and the result certifies makespan ≤ 2·max(critical path,
// ceil(total work/m)) for any 2-approximate solve of the instance.
func CompileDAG(t *DAGTask) (*ScenarioCompiled, error) { return t.Compile() }

// AttachMemory1 draws per-machine sizes and budgets for an instance.
func AttachMemory1(in *Instance, mc MemoryConfig, seed int64) (*Memory1, error) {
	return workload.AttachModel1(in, mc, seed)
}

// AttachMemory2 draws per-job sizes for the per-level capacity model.
func AttachMemory2(in *Instance, mc MemoryConfig, seed int64) (*Memory2, error) {
	return workload.AttachModel2(in, mc, seed)
}
