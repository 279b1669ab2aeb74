package synth

import (
	"context"
	"fmt"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/netlist"
)

// Algorithm selects the partitioner by its core registry name; any
// name in core.Algorithms() is accepted.
type Algorithm string

const (
	// PareDown is the paper's decomposition heuristic (the default).
	PareDown Algorithm = "paredown"
	// ExhaustiveSearch is the optimal search; practical to ~13 inner
	// blocks.
	ExhaustiveSearch Algorithm = "exhaustive"
	// AggregationBaseline is the greedy clustering baseline.
	AggregationBaseline Algorithm = "aggregation"
)

// Options configure the synthesizer.
type Options struct {
	// Constraints of the programmable block. Zero value means the
	// paper's 2-input, 2-output block.
	Constraints core.Constraints
	// Algorithm defaults to PareDown.
	Algorithm Algorithm
	// PaperMode disables the convexity/acyclicity guard during
	// partitioning, matching the paper's fit check exactly. If the
	// resulting partitioning cannot be realized as an acyclic network,
	// Synthesize returns ErrUnrealizable. Default (false) forces the
	// guard so synthesis always succeeds.
	PaperMode bool
}

func (o Options) constraints() core.Constraints {
	c := o.Constraints
	if c.MaxInputs == 0 && c.MaxOutputs == 0 {
		c = core.DefaultConstraints
	}
	if !o.PaperMode {
		c.RequireConvex = true
	}
	return c
}

// ErrUnrealizable reports a paper-mode partitioning whose contracted
// block graph is cyclic and therefore cannot be wired.
var ErrUnrealizable = fmt.Errorf("synth: partitioning is not realizable as an acyclic network (re-run without PaperMode)")

// Output is the result of a synthesis run.
type Output struct {
	// Synthesized is the new design: sensors, output blocks, and
	// uncovered compute blocks are carried over; each partition became
	// one programmable block named p0, p1, ...
	Synthesized *netlist.Design
	// Result is the partitioning that was realized.
	Result *core.Result
	// Merged maps programmable block name to its merge artifact.
	Merged map[string]*codegen.Merged
	// CSource maps programmable block name to generated C firmware.
	CSource map[string]string
}

// InnerBlocksAfter returns the paper's "Inner Blocks (Total)" metric
// for the synthesized design.
func (o *Output) InnerBlocksAfter() int { return o.Result.Cost() }

// Synthesize partitions the design and builds the optimized network.
// It is equivalent to Run(context.Background(), d, opts) followed by
// Output().
func Synthesize(d *netlist.Design, opts Options) (*Output, error) {
	em, err := Run(context.Background(), d, opts)
	if err != nil {
		return nil, err
	}
	return em.Output(), nil
}

// Realize builds the synthesized network for an existing partitioning
// result (allowing callers to bring their own partitioner): the Adopt →
// Merge → Emit path of the pipeline, skipping Partition, with no stage
// cache.
func Realize(d *netlist.Design, res *core.Result, c core.Constraints) (*Output, error) {
	ca := &Captured{Design: d, Constraints: c, Algorithm: res.Algorithm}
	m, _, err := ca.Adopt(res).MergeCached(nil)
	if err != nil {
		return nil, err
	}
	em, err := m.Emit()
	if err != nil {
		return nil, err
	}
	return em.Output(), nil
}
