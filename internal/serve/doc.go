// Package serve is the scheduler-as-a-service core: the typed
// request/response schema, the algorithm dispatcher shared by cmd/hsched
// (one-shot CLI) and cmd/hspd (long-running daemon), and the bounded
// worker pool with admission control that turns the solver library into
// an online schedulability/assignment service.
//
// # Request lifecycle
//
// An HTTP handler decodes a Request (or a batch of them) and calls
// Submit. With the cache on, Submit first resolves every request against
// it on the handler's goroutine: a hit is answered from the stored wire
// bytes at once, and a request whose identical solve is already in
// flight waits for that solve under its own deadline. That deadline is
// fixed when the wait starts and also binds the request's re-attempt,
// should the solve it waited on fail, so no request outlives one timeout
// of its own. A call resolved entirely there never touches the queue.
// The rest — the leaders of new solves, or every request with the cache
// off — are decoded there too (the instance, or the scenario document):
// a malformed one is answered 400 at once, without a queue slot, and a
// decoder panic becomes an incident error like a solver's. The decoded
// requests go to the Server's bounded queue as one task. When the queue
// is full the task is shed immediately and deterministically: 429 with a
// Retry-After hint, never an unbounded wait, and every flight it led
// settles empty so its followers re-attempt. A worker picks the task
// up, re-checks the context (a client that disconnected while queued
// costs no solver work), starts each request's deadline unless a wait
// already fixed it, and runs the solver on its private,
// request-reusable workspaces: the relaxation workspace (simplex
// tableau, constraint arenas) and the exact branch-and-bound workspace
// survive from request to request, so steady-state traffic pays none of
// the setup cost the one-shot CLIs pay (see PERFORMANCE.md). The worker
// never sees the cache: back on the submitting goroutine, each answer is
// encoded once, stored as those bytes on success, and written as is.
//
// # Cancellation
//
// Every solver stage is context-aware end to end: the simplex polls
// between pivots, the branch-and-bound every few thousand DFS nodes. A
// per-request deadline or a dropped client connection therefore aborts
// in-flight work mid-pivot/mid-DFS; the worker then releases the
// workspace's references to the dead request's instance and context
// (exact.Workspace does this itself after every probe) and moves on.
//
// # Batching
//
// Small probes — schedulability pre-checks, LP bounds — cost less to
// solve than to queue. A batch submits many requests as at most ONE
// task (its cache hits need none): one queue slot, one worker, one set
// of warmed workspaces, answers in input order. The per-item deadline
// still applies per request inside the batch. rt requests of one task on byte-identical instances share one
// rt.Tester, so an admission sweep over several frames computes T* and
// the 2-approximation once; the memo ends with the task.
package serve
