// Package exact computes optimal solutions of the hierarchical scheduling
// problem on small instances by branch and bound: an outer binary search on
// the makespan T (the LP relaxation bound of Section V seeds the lower
// end), and an inner depth-first search over job → affinity-mask
// assignments pruned by the subtree volume constraints (2b) and by
// lower bounds on the volume still forced into each subtree. Used by the
// experiments to measure the 2-approximation's true ratio; exponential in
// the worst case by design (Proposition II.1: the problem is NP-hard).
//
// # The (2b) kernel
//
// The DFS keeps one array, slack[s] = |s|·T − committed volume in s − the
// forced minimum volume still owed to subtree(s) by unassigned jobs
// whose candidates all lie in it. prepare turns each candidate s of job j
// into precomputed steps (anc, add), one per ancestor in Chain(s): add is
// p_js on the ancestors below j's ceiling (the minimal set containing
// all of j's candidates) and p_js − minP[j] on Chain(ceiling), where j's
// minimum is already counted as forced. The ceiling is an ancestor of
// every candidate, so Chain(ceiling) is the same suffix of every
// candidate's steps: the suffix rule. A candidate fits when no step's add
// exceeds its ancestor's slack; committing subtracts every add and undo
// adds it back. On the suffix a node reads the least slack once, and as
// candidates run cheapest first, the first candidate whose excess over
// minP[j] exceeds it ends the candidate loop.
//
// # Workspace reuse
//
// All probe state — candidate lists, the assignment vector, the slack
// array and the candidates' steps — lives in a Workspace that the binary
// search reuses across its feasibility probes. The DFS commits and undoes
// assignments in place, and prepare fills retained buffers, so a
// steady-state probe allocates nothing (the only allocating paths are the
// terminal error cases — node-cap exhaustion and cancellation — and the
// copy a successful probe returns, so results survive workspace reuse).
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
