package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
)

// Options bundles the per-algorithm tuning knobs a registry caller may
// supply. Each algorithm reads only its own field; the zero value runs
// every algorithm with its defaults.
type Options struct {
	// Ctx, when non-nil, allows cancelling a partitioning run (the
	// service layer uses it to bound request latency). Partition checks
	// it before dispatch, and long-running algorithms (the exhaustive
	// search) observe it during the run. Nil means context.Background().
	Ctx context.Context
	// PareDown tunes the decomposition heuristic ("paredown").
	PareDown PareDownOptions
	// Hetero, when non-nil, overrides the problem statement of the
	// heterogeneous partitioner ("hetero"). When nil, "hetero" runs
	// against a single block type shaped like the Constraints with the
	// paper's pricing (a programmable block costs more than one
	// pre-defined block but less than two), making its acceptance rule
	// coincide with the homogeneous >= 2 members rule.
	Hetero *HeteroProblem
}

// Partitioner is a named partitioning algorithm. Implementations must
// be safe for concurrent use (the bench harness runs them from many
// goroutines) and deterministic for a given input.
type Partitioner interface {
	// Name returns the registry key ("paredown", "exhaustive", ...).
	Name() string
	// Partition partitions the inner blocks of g under c.
	Partition(g *graph.Graph, c Constraints, opts Options) (*Result, error)
}

// PartitionerFunc adapts a function to the Partitioner interface.
type PartitionerFunc struct {
	AlgoName string
	Run      func(g *graph.Graph, c Constraints, opts Options) (*Result, error)
}

// Name implements Partitioner.
func (f PartitionerFunc) Name() string { return f.AlgoName }

// Partition implements Partitioner.
func (f PartitionerFunc) Partition(g *graph.Graph, c Constraints, opts Options) (*Result, error) {
	return f.Run(g, c, opts)
}

var registry = struct {
	sync.RWMutex
	byName map[string]Partitioner
}{byName: map[string]Partitioner{}}

// Register adds a partitioner under its name. Registering an empty
// name or a duplicate is an error, so extensions cannot silently
// shadow the built-in algorithms.
func Register(p Partitioner) error {
	name := p.Name()
	if name == "" {
		return fmt.Errorf("core: register: empty algorithm name")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[name]; dup {
		return fmt.Errorf("core: register: algorithm %q already registered", name)
	}
	registry.byName[name] = p
	return nil
}

// LookupAlgorithm returns the registered partitioner, or nil.
func LookupAlgorithm(name string) Partitioner {
	registry.RLock()
	defer registry.RUnlock()
	return registry.byName[name]
}

// Algorithms lists the registered algorithm names in sorted order.
func Algorithms() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.byName))
	for name := range registry.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Partition runs the named algorithm on g. It is the single entry
// point the public API, the synthesis flow, and the bench harness
// share.
func Partition(g *graph.Graph, algo string, c Constraints, opts Options) (*Result, error) {
	p := LookupAlgorithm(algo)
	if p == nil {
		return nil, fmt.Errorf("core: unknown algorithm %q (have %v)", algo, Algorithms())
	}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	return p.Partition(g, c, opts)
}

func init() {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(Register(PartitionerFunc{"paredown", func(g *graph.Graph, c Constraints, opts Options) (*Result, error) {
		return PareDown(g, c, opts.PareDown)
	}}))
	must(Register(PartitionerFunc{"exhaustive", func(g *graph.Graph, c Constraints, opts Options) (*Result, error) {
		return Exhaustive(g, c, ExhaustiveOptions{Ctx: opts.Ctx})
	}}))
	must(Register(PartitionerFunc{"aggregation", func(g *graph.Graph, c Constraints, opts Options) (*Result, error) {
		return Aggregation(g, c)
	}}))
	must(Register(PartitionerFunc{"hetero", func(g *graph.Graph, c Constraints, opts Options) (*Result, error) {
		p := opts.Hetero
		if p == nil {
			p = &HeteroProblem{
				Choices:       []BlockChoice{{Name: "prog", MaxInputs: c.MaxInputs, MaxOutputs: c.MaxOutputs, Cost: 1.5}},
				PredefCost:    1,
				RequireConvex: c.RequireConvex,
			}
		}
		hr, err := PareDownHetero(g, *p, opts.PareDown)
		if err != nil {
			return nil, err
		}
		res := &Result{Algorithm: "hetero", FitChecks: hr.FitChecks}
		for _, a := range hr.Assignments {
			res.Partitions = append(res.Partitions, a.Partition)
		}
		res.Uncovered = hr.Uncovered
		return res, nil
	}}))
}
