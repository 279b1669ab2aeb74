package core

import (
	"fmt"
	"slices"

	"repro/internal/block"
	"repro/internal/graph"
)

// Constraints describe the programmable block and optional structural
// requirements.
type Constraints struct {
	// MaxInputs and MaxOutputs are the programmable block's physical
	// port budget (the paper's experiments use 2 and 2).
	MaxInputs  int
	MaxOutputs int
	// RequireConvex additionally demands that each partition be convex
	// and that contracting all partitions leaves the block graph
	// acyclic, so the synthesized network is always buildable. The
	// paper's fit check does not require this (it checks I/O only);
	// leave false to reproduce the paper.
	RequireConvex bool
}

// DefaultConstraints is the paper's experimental setup: a programmable
// block with two inputs and two outputs.
var DefaultConstraints = Constraints{MaxInputs: 2, MaxOutputs: 2}

// Validate checks the constraints themselves: each side of the port
// budget lies in [1, block.MaxProgPorts].
func (c Constraints) Validate() error {
	if min(c.MaxInputs, c.MaxOutputs) < 1 || max(c.MaxInputs, c.MaxOutputs) > block.MaxProgPorts {
		return fmt.Errorf("core: constraints must allow 1 to %d inputs and outputs, got %dx%d",
			block.MaxProgPorts, c.MaxInputs, c.MaxOutputs)
	}
	return nil
}

// IO is a partition's external connectivity demand.
type IO struct {
	Inputs  int // distinct external driver output ports feeding members
	Outputs int // distinct member output ports feeding non-members
}

// Total returns Inputs + Outputs, the quantity PareDown's rank function
// differentiates.
func (io IO) Total() int { return io.Inputs + io.Outputs }

// PartitionIO computes the I/O demand of a candidate partition:
//
//   - Inputs: the number of distinct output ports of non-member blocks
//     that drive at least one member input. Fan-out from one external
//     port into several members costs one programmable-block input.
//   - Outputs: the number of distinct member output ports that drive at
//     least one non-member. Fan-out from one member port to several
//     external consumers costs one programmable-block output.
func PartitionIO(g *graph.Graph, set graph.NodeSet) IO {
	inPorts := map[graph.Port]bool{}
	outPorts := map[graph.Port]bool{}
	set.ForEach(func(id graph.NodeID) {
		for _, e := range g.InEdgesView(id) {
			if !set.Has(e.From.Node) {
				inPorts[e.From] = true
			}
		}
		for _, e := range g.OutEdgesView(id) {
			if !set.Has(e.To.Node) {
				outPorts[e.From] = true
			}
		}
	})
	return IO{Inputs: len(inPorts), Outputs: len(outPorts)}
}

// Fits reports whether the candidate satisfies the I/O budget (and
// convexity when required). It does not check the ≥2-member rule; that
// is an acceptance rule, not a fit rule (PareDown keeps paring a
// 1-member candidate and then discards it, per Figure 4).
func Fits(g *graph.Graph, set graph.NodeSet, c Constraints) bool {
	io := PartitionIO(g, set)
	if io.Inputs > c.MaxInputs || io.Outputs > c.MaxOutputs {
		return false
	}
	if c.RequireConvex && !g.IsConvex(set) {
		return false
	}
	return true
}

// Result is a partitioning outcome.
type Result struct {
	// Partitions lists the accepted partitions; each will be realized
	// as one programmable block.
	Partitions []graph.NodeSet
	// Uncovered lists the inner blocks left as pre-defined blocks.
	Uncovered []graph.NodeID
	// Algorithm names the producer ("paredown", "exhaustive",
	// "aggregation", ...).
	Algorithm string
	// FitChecks counts candidate feasibility evaluations, the paper's
	// complexity measure for PareDown (n*(n+1)/2 worst case).
	FitChecks int
	// NodesVisited counts search-tree nodes for exhaustive search.
	NodesVisited int64
}

// Cost returns the number of inner blocks after replacement:
// len(Uncovered) + len(Partitions). This is the objective the paper
// minimizes (the Inner Blocks (Total) column of Tables 1 and 2).
func (r *Result) Cost() int { return len(r.Uncovered) + len(r.Partitions) }

// Covered returns the number of inner blocks inside partitions.
func (r *Result) Covered() int {
	n := 0
	for _, p := range r.Partitions {
		n += p.Len()
	}
	return n
}

// String summarizes the result.
func (r *Result) String() string {
	return fmt.Sprintf("%s: %d partition(s), %d uncovered, cost %d",
		r.Algorithm, len(r.Partitions), len(r.Uncovered), r.Cost())
}

// Validate checks that a result is a legal partitioning of g under c:
// partitions are disjoint sets of at least two inner nodes each, every
// partition fits the I/O budget, Uncovered is exactly the complement,
// and (when c.RequireConvex) the contracted block graph is acyclic.
func (r *Result) Validate(g *graph.Graph, c Constraints) error {
	seen := graph.NewNodeSet()
	for i, p := range r.Partitions {
		if p.Len() < 2 {
			return fmt.Errorf("core: partition %d has %d member(s); need at least 2", i, p.Len())
		}
		for _, id := range p.Sorted() {
			if g.Role(id) != graph.RoleInner {
				return fmt.Errorf("core: partition %d contains non-inner node %q", i, g.Name(id))
			}
			if g.Pinned(id) {
				return fmt.Errorf("core: partition %d contains pinned node %q", i, g.Name(id))
			}
			if seen.Has(id) {
				return fmt.Errorf("core: node %q appears in multiple partitions", g.Name(id))
			}
			seen.Add(id)
		}
		if io := PartitionIO(g, p); io.Inputs > c.MaxInputs || io.Outputs > c.MaxOutputs {
			return fmt.Errorf("core: partition %d exceeds I/O budget: %+v vs %dx%d",
				i, io, c.MaxInputs, c.MaxOutputs)
		}
		if c.RequireConvex && !g.IsConvex(p) {
			return fmt.Errorf("core: partition %d is not convex", i)
		}
	}
	for _, id := range r.Uncovered {
		if g.Role(id) != graph.RoleInner {
			return fmt.Errorf("core: uncovered list contains non-inner node %q", g.Name(id))
		}
		if seen.Has(id) {
			return fmt.Errorf("core: node %q both covered and uncovered", g.Name(id))
		}
		seen.Add(id)
	}
	if want := len(g.InnerNodes()); seen.Len() != want {
		return fmt.Errorf("core: result accounts for %d of %d inner nodes", seen.Len(), want)
	}
	if c.RequireConvex {
		ct, err := g.Contract(r.Partitions)
		if err != nil {
			return err
		}
		if !ct.Acyclic() {
			return fmt.Errorf("core: contracted block graph is cyclic")
		}
	}
	return nil
}

// uncoveredFrom derives the Uncovered list: inner nodes of g not in any
// partition, in ascending ID order. It tests each inner node against
// every partition, a small share of any algorithm's run even on the
// Section 5.2 scaling design, and allocates only the list.
func uncoveredFrom(g *graph.Graph, parts []graph.NodeSet) []graph.NodeID {
	var out []graph.NodeID
	for id := graph.NodeID(0); int(id) < g.NumNodes(); id++ {
		if g.Role(id) == graph.RoleInner && !slices.ContainsFunc(parts, func(p graph.NodeSet) bool { return p.Has(id) }) {
			out = append(out, id)
		}
	}
	return out
}
