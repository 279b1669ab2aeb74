package core

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/graph"
)

// The paper's stated further work (Section 6) is "to extend the
// PareDown heuristic to consider multiple types of programmable blocks
// (having different number of inputs and outputs) and varying compute
// block costs". This file implements that extension.

// BlockChoice is one programmable block type available to the
// heterogeneous partitioner.
type BlockChoice struct {
	Name       string
	MaxInputs  int
	MaxOutputs int
	// Cost in arbitrary units; the paper prices a programmable block
	// above one pre-defined block but below two.
	Cost float64
}

// HeteroProblem is the cost-aware multi-type partitioning problem.
type HeteroProblem struct {
	// Choices are the available programmable block types (at least
	// one). Order does not matter.
	Choices []BlockChoice
	// PredefCost is the cost of keeping one pre-defined block
	// (normally 1.0).
	PredefCost float64
	// RequireConvex as in Constraints.
	RequireConvex bool
}

// Validate checks the problem statement.
func (p *HeteroProblem) Validate() error {
	if len(p.Choices) == 0 {
		return fmt.Errorf("core: hetero problem needs at least one block choice")
	}
	for _, ch := range p.Choices {
		if min(ch.MaxInputs, ch.MaxOutputs) < 1 || max(ch.MaxInputs, ch.MaxOutputs) > block.MaxProgPorts {
			return fmt.Errorf("core: block choice %q needs 1 to %d inputs and outputs, got %dx%d",
				ch.Name, block.MaxProgPorts, ch.MaxInputs, ch.MaxOutputs)
		}
		if ch.Cost <= 0 {
			return fmt.Errorf("core: block choice %q has non-positive cost", ch.Name)
		}
	}
	if p.PredefCost <= 0 {
		return fmt.Errorf("core: pre-defined block cost must be positive")
	}
	return nil
}

// HeteroAssignment maps one partition to the block type chosen for it.
type HeteroAssignment struct {
	Partition graph.NodeSet
	Choice    BlockChoice
}

// HeteroResult is a heterogeneous partitioning outcome.
type HeteroResult struct {
	Assignments []HeteroAssignment
	Uncovered   []graph.NodeID
	FitChecks   int
}

// TotalCost returns the cost of the synthesized inner network:
// the chosen programmable blocks plus the remaining pre-defined blocks.
func (r *HeteroResult) TotalCost(predefCost float64) float64 {
	total := float64(len(r.Uncovered)) * predefCost
	for _, a := range r.Assignments {
		total += a.Choice.Cost
	}
	return total
}

// PareDownHetero extends the decomposition heuristic to multiple block
// types and costs. The candidate is pared against the *loosest* budget
// (the union of the maximum input and output counts over all choices);
// whenever the candidate fits at least one choice, the partition is
// assigned the cheapest fitting choice, and it is accepted only if that
// choice is actually cheaper than keeping the members as pre-defined
// blocks (generalizing the paper's >= 2 members rule, which is the
// special case cost(prog) < 2 * cost(predef)).
func PareDownHetero(g *graph.Graph, p HeteroProblem, opts PareDownOptions) (*HeteroResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ws := getWorkspace()
	levels, err := g.LevelsWith(&ws.lv)
	if err != nil {
		return nil, err
	}
	loosest := Constraints{RequireConvex: p.RequireConvex}
	for _, ch := range p.Choices {
		if ch.MaxInputs > loosest.MaxInputs {
			loosest.MaxInputs = ch.MaxInputs
		}
		if ch.MaxOutputs > loosest.MaxOutputs {
			loosest.MaxOutputs = ch.MaxOutputs
		}
	}
	res := &HeteroResult{}
	inner, blocks := ws.partitionable(g)
	ev := &ws.ev
	ev.bind(g)
	rk := &ws.rk
	rk.bind(ev, levels, inner, opts.DisableTieBreaks)
	var accepted []graph.NodeSet // the assignments' partitions

	for blocks.Len() > 0 {
		rk.reset(blocks)
		candidate := ev.Members()
		for ev.Len() > 0 {
			res.FitChecks++
			choice, ok := cheapestFitIO(g, ev.IO(), candidate, p)
			if ok && pareAcyclicWith(g, loosest, accepted, candidate) {
				if choice.Cost < float64(ev.Len())*p.PredefCost {
					part := candidate.Clone()
					res.Assignments = append(res.Assignments, HeteroAssignment{Partition: part, Choice: choice})
					accepted = append(accepted, part)
				}
				candidate.ForEach(blocks.Remove)
				break
			}
			if ev.Len() == 1 {
				// Unfittable singleton (see PareDown): drop it from the
				// pool so the outer loop terminates.
				candidate.ForEach(blocks.Remove)
				break
			}
			r, err := rk.pickMember()
			if err != nil {
				return nil, err
			}
			rk.remove(r.Node)
		}
	}
	res.Uncovered = uncoveredFrom(g, accepted)
	ws.put()
	return res, nil
}

// cheapestFitIO returns the cheapest block choice whose budget the
// candidate satisfies, given its I/O demand io (maintained
// incrementally by an Evaluator); deterministic under cost ties (name
// order).
func cheapestFitIO(g *graph.Graph, io IO, set graph.NodeSet, p HeteroProblem) (BlockChoice, bool) {
	if p.RequireConvex && !g.IsConvex(set) {
		return BlockChoice{}, false
	}
	var best BlockChoice
	found := false
	for _, ch := range p.Choices {
		if io.Inputs > ch.MaxInputs || io.Outputs > ch.MaxOutputs {
			continue
		}
		if !found || ch.Cost < best.Cost || (ch.Cost == best.Cost && ch.Name < best.Name) {
			best, found = ch, true
		}
	}
	return best, found
}

// Validate checks the heterogeneous result against the problem.
func (r *HeteroResult) Validate(g *graph.Graph, p HeteroProblem) error {
	seen := graph.NewNodeSet()
	for i, a := range r.Assignments {
		if a.Partition.Len() == 0 {
			return fmt.Errorf("core: hetero assignment %d is empty", i)
		}
		io := PartitionIO(g, a.Partition)
		if io.Inputs > a.Choice.MaxInputs || io.Outputs > a.Choice.MaxOutputs {
			return fmt.Errorf("core: hetero assignment %d exceeds %q budget: %+v", i, a.Choice.Name, io)
		}
		if a.Choice.Cost >= float64(a.Partition.Len())*p.PredefCost {
			return fmt.Errorf("core: hetero assignment %d is not cost-effective", i)
		}
		for _, id := range a.Partition.Sorted() {
			if g.Role(id) != graph.RoleInner {
				return fmt.Errorf("core: hetero assignment %d contains non-inner node %q", i, g.Name(id))
			}
			if seen.Has(id) {
				return fmt.Errorf("core: node %q in multiple hetero assignments", g.Name(id))
			}
			seen.Add(id)
		}
	}
	for _, id := range r.Uncovered {
		if seen.Has(id) {
			return fmt.Errorf("core: node %q both covered and uncovered", g.Name(id))
		}
		seen.Add(id)
	}
	if want := len(g.InnerNodes()); seen.Len() != want {
		return fmt.Errorf("core: hetero result accounts for %d of %d inner nodes", seen.Len(), want)
	}
	return nil
}
