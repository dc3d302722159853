package expt

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Experiment is a registered experiment: a stable ID, the table title,
// the claim it checks, the pack it belongs to, and the function that runs
// it. Run receives the Suite configuration (trial counts, seed) and a
// context it must honor — long-running loops and solver calls poll the
// context and return early (with whatever partial table exists) once it
// is done — and returns the finished table, including its claim checks.
// The parameter order (Suite, then context) is what Go method expressions
// produce for `func (s Suite) EN(ctx context.Context) *Table`, which is
// how every experiment in this package is written.
type Experiment struct {
	ID    string
	Title string
	Claim string
	// Pack names the experiment pack this experiment belongs to; empty
	// means PaperPack. See pack.go for the pack registry.
	Pack string
	Run  func(Suite, context.Context) *Table
}

var (
	regMu    sync.RWMutex
	registry = map[string]Experiment{}
)

// Register adds an experiment to the registry. It panics on a duplicate
// or empty ID — registration happens from init functions, so a collision
// is a programming error, not a runtime condition.
func Register(e Experiment) {
	if e.ID == "" {
		panic("expt: Register with empty ID")
	}
	if e.Run == nil {
		panic("expt: Register " + e.ID + " with nil Run")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[e.ID]; dup {
		panic("expt: duplicate experiment " + e.ID)
	}
	if e.Pack == "" {
		e.Pack = PaperPack
	}
	registry[e.ID] = e
}

// Unregister removes an experiment by ID. It exists for tests that inject
// synthetic experiments (e.g. a deliberately failing claim) and need to
// restore the registry afterwards.
func Unregister(id string) {
	regMu.Lock()
	defer regMu.Unlock()
	delete(registry, id)
}

// Lookup returns the experiment registered under id.
func Lookup(id string) (Experiment, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[id]
	return e, ok
}

// Experiments returns all registered experiments in suite order: "E<n>"
// ids sorted numerically first, then any other ids lexicographically.
func Experiments() []Experiment {
	regMu.RLock()
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	regMu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		return lessID(out[i].ID, out[j].ID)
	})
	return out
}

// lessID reports whether experiment id a precedes b in suite order:
// "E<n>" ids numerically first, then any other ids lexicographically.
func lessID(a, b string) bool {
	na, aok := experimentNum(a)
	nb, bok := experimentNum(b)
	switch {
	case aok && bok:
		return na < nb
	case aok != bok:
		return aok
	}
	return a < b
}

func experimentNum(id string) (int, bool) {
	if !strings.HasPrefix(id, "E") {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	return n, err == nil
}

// All runs every registered experiment in suite order, sequentially.
// Runner is the parallel, isolated, cancelable equivalent.
func (s Suite) All(ctx context.Context) []*Table {
	es := Experiments()
	tables := make([]*Table, len(es))
	for i, e := range es {
		tables[i] = e.Run(s, ctx)
	}
	return tables
}

// ByID runs a single experiment by its id (e.g. "E7").
func (s Suite) ByID(ctx context.Context, id string) (*Table, error) {
	e, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("expt: unknown experiment %q", id)
	}
	return e.Run(s, ctx), nil
}
