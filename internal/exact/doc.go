// Package exact computes optimal solutions of the hierarchical scheduling
// problem on small instances by branch and bound: an outer binary search on
// the makespan T (the LP relaxation bound of Section V seeds the lower
// end), and an inner depth-first search over job → affinity-mask
// assignments pruned by the subtree volume constraints (2b) and by
// lower bounds on the volume still forced into each subtree. Used by the
// experiments to measure the 2-approximation's true ratio; exponential in
// the worst case by design (Proposition II.1: the problem is NP-hard).
//
// # Workspace reuse
//
// All probe state — candidate lists, the assignment vector, the
// per-subtree volume accumulators and the ancestor-membership table —
// lives in a Workspace that the binary search reuses across its
// feasibility probes. The DFS commits and undoes assignments in place, so
// a steady-state probe allocates nothing per node (the only allocating
// paths are the terminal error cases: node-cap exhaustion and
// cancellation). Successful probes copy the assignment out, so results
// survive workspace reuse.
//
// Ownership contract: a Workspace is owned by exactly one probe at a
// time and is NOT goroutine-safe — concurrent searches need one
// Workspace each. Buffers grow to the largest (instance, family) seen
// and are retained; passing a nil Workspace to Solve or
// FeasibleAssignment allocates a private one.
//
// Cancellation: the DFS polls its context every 4096 nodes (a node is
// tens of nanoseconds, so a per-node poll would dominate the search) and
// the poll sits at the top of the node handler, outside the per-candidate
// pruning arithmetic. The outer binary search inherits the polls of its
// LP seeding (see internal/lp). See PERFORMANCE.md for measured effects.
package exact
