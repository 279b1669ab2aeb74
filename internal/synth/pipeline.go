// The staged synthesis pipeline. The paper's Figure 2 flow — capture,
// partition, code generation, emit, verify — is modeled as five
// explicit stages, each a pure function from the previous stage's
// artifact to the next:
//
//	Capture   : *netlist.Design + Options  -> *Captured     (Capture)
//	Partition : *Captured                  -> *Partitioned  (Captured.PartitionCached)
//	Merge     : *Partitioned               -> *Merged       (Partitioned.MergeCached)
//	Emit      : *Merged                    -> *Emitted      (Merged.Emit)
//	Verify    : *Emitted                   -> *Verified     (Emitted.VerifyCached: writes only)
//
// Each stage has one implementation. The stages that read or write
// stored artifacts take a StageCache; a nil cache reads and writes
// nothing, so the uncached pipeline runs the same code. Partition and
// Merge read and then write their artifact. Verify is the exception:
// Emitted.VerifyCached never reads the cache, because its one read,
// Captured.LookupVerified, needs only the capture and so comes before
// the partition, merge and emit stages it can skip. SynthesizeCaptured is
// the one partition → merge → emit tail: Run, Synthesize, incremental
// synthesis (CaptureDelta) and the service all go through it.
//
// Artifacts embed their predecessor, so every stage output carries the
// full provenance of the run. Because stages are pure over their
// inputs, callers can skip stages (Captured.Adopt brings an external
// partitioning result into the pipeline), cache stage outputs (the
// service stores response.v1 bytes and the partition, merge and verify
// stage artifacts), and fan runs out across goroutines (nothing is
// shared between runs except the read-only input design and its
// catalog).
package synth

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/behavior"
	"repro/internal/block"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/memo"
	"repro/internal/netlist"
)

// Captured is the first stage artifact: a validated design together
// with the resolved synthesis parameters (constraints defaulted, the
// convexity guard applied unless PaperMode, algorithm defaulted).
type Captured struct {
	// Design is the input network. Stages treat it as read-only.
	Design *netlist.Design
	// Constraints are the effective programmable-block constraints.
	Constraints core.Constraints
	// Algorithm is the effective partitioner registry name.
	Algorithm string

	// keyOnce/key memoize StageKey (the design fingerprint is
	// expensive); Captured artifacts are shared by pointer, so the
	// hash is computed at most once per capture. structOnce/structKey
	// do the same for the structure-only key (StructKey).
	keyOnce sync.Once
	key     StageKey

	structOnce sync.Once
	structKey  StageKey
}

// Capture validates the design and resolves the run parameters.
func Capture(d *netlist.Design, opts Options) (*Captured, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("synth: %w", err)
	}
	alg := string(opts.Algorithm)
	if alg == "" {
		alg = string(PareDown)
	}
	return &Captured{
		Design:      d,
		Constraints: opts.constraints(),
		Algorithm:   alg,
	}, nil
}

// Partitioned is the second stage artifact: the capture plus the
// partitioning result produced by the configured algorithm.
type Partitioned struct {
	*Captured
	Result *core.Result
}

// Adopt wraps an externally produced partitioning result as a
// Partitioned artifact — the bring-your-own-partitioner path, which
// skips the Partition stage entirely. MergeCached still validates the
// result.
func (ca *Captured) Adopt(res *core.Result) *Partitioned {
	return &Partitioned{Captured: ca, Result: res}
}

// Merged is the third stage artifact: one merged program per partition
// (paper Section 3.3), with the port maps needed to wire each
// programmable block, plus the programmable block type they target.
type Merged struct {
	*Partitioned
	// Merges holds the per-partition merge artifacts, indexed like
	// Result.Partitions.
	Merges []*codegen.Merged
	// ProgType is the programmable block type partitions map onto.
	ProgType *block.Type
	// adopted marks the Merges decoded from the stage cache.
	adopted []bool
}

// validateForMerge checks the partitioning result against the design
// and the realizability guard before MergeCached merges it: the
// result must validate under the I/O constraints, and the contracted
// block graph must be acyclic (ErrUnrealizable otherwise — reachable
// only for paper-mode results, the convexity guard forbids it).
func (p *Partitioned) validateForMerge() error {
	g := p.Design.Graph()
	c := p.Constraints
	ioOnly := core.Constraints{MaxInputs: c.MaxInputs, MaxOutputs: c.MaxOutputs}
	if err := p.Result.Validate(g, ioOnly); err != nil {
		return fmt.Errorf("synth: %w", err)
	}
	if c.RequireConvex {
		// Convex partitions of a DAG contract to a DAG (the guard's
		// whole point), so the cycle check below can never fire; skip
		// building the contracted graph on this hot path.
		return nil
	}
	ct, err := g.Contract(p.Result.Partitions)
	if err != nil {
		return err
	}
	if !ct.Acyclic() {
		return ErrUnrealizable
	}
	return nil
}

// Emitted is the fourth stage artifact: the synthesized network, in
// which every partition has been replaced by one programmable block
// running its merged program, plus generated C firmware per block.
type Emitted struct {
	*Merged
	// Synthesized is the optimized design.
	Synthesized *netlist.Design
	// CSource maps programmable block name (p0, p1, ...) to firmware.
	CSource map[string]string
}

// Emit builds the synthesized network: non-partitioned blocks are
// carried over with their parameters, each partition becomes one
// programmable block, and all wiring is re-established through the
// merge port maps.
func (m *Merged) Emit() (*Emitted, error) {
	d, g := m.Design, m.Design.Graph()

	// New catalog view: ensure the programmable type exists. Ensure is
	// atomic, so concurrent pipeline runs sharing a catalog are safe.
	reg := d.Registry()
	if err := reg.Ensure(m.ProgType); err != nil {
		return nil, err
	}

	nd := netlist.NewDesign(d.Name+"_synth", reg)

	// Ownership of each original node: partition index or -1.
	owner := make([]int, g.NumNodes())
	for i := range owner {
		owner[i] = -1
	}
	for pi, p := range m.Result.Partitions {
		pi := pi
		p.ForEach(func(id graph.NodeID) { owner[id] = pi })
	}

	// Carry over all non-partitioned blocks with their parameters (and
	// program overrides, e.g. when re-synthesizing an already
	// synthesized design). newID maps each carried block to its ID in
	// the synthesized design.
	nd.Grow(g.NumNodes() - m.Result.Covered() + len(m.Merges))
	newID := make([]graph.NodeID, g.NumNodes())
	for i, pi := range owner {
		if pi >= 0 {
			continue
		}
		id := graph.NodeID(i)
		name := g.Name(id)
		nid, err := nd.AddBlockWithParams(name, d.Type(id).Name, d.Params(id))
		if err != nil {
			return nil, fmt.Errorf("synth: carrying block %q: %w", name, err)
		}
		newID[i] = nid
		if d.HasProgramOverride(id) {
			if err := nd.SetProgram(nid, d.Program(id).Clone()); err != nil {
				return nil, err
			}
		}
	}

	// Create one programmable block per partition with its merged
	// program.
	out := &Emitted{Merged: m, CSource: make(map[string]string, len(m.Merges))}
	partID := make([]graph.NodeID, len(m.Merges))
	for pi, mg := range m.Merges {
		name := "p" + strconv.Itoa(pi)
		nid, err := nd.AddBlock(name, m.ProgType.Name)
		if err != nil {
			return nil, err
		}
		partID[pi] = nid
		if err := nd.SetProgram(nid, mg.Program); err != nil {
			return nil, err
		}
		if m.adopted[pi] {
			out.CSource[name] = memoizedEmitC(mg.Program, name)
		} else {
			out.CSource[name] = codegen.EmitC(mg.Program, name)
		}
	}

	// mapSource resolves an original output port to its new endpoint.
	mapSource := func(p graph.Port) (graph.Port, error) {
		if pi := owner[p.Node]; pi >= 0 {
			for j, q := range m.Merges[pi].OutputMap {
				if q == p {
					return graph.Port{Node: partID[pi], Pin: j}, nil
				}
			}
			return graph.Port{}, fmt.Errorf("synth: port %v of partition %d is not exported", p, pi)
		}
		return graph.Port{Node: newID[p.Node], Pin: p.Pin}, nil
	}

	// Wire carried-over blocks' inputs, in input pin order.
	for i, pi := range owner {
		if pi >= 0 {
			continue
		}
		id := graph.NodeID(i)
		for _, e := range g.InEdgesView(id) {
			src, err := mapSource(e.From)
			if err != nil {
				return nil, err
			}
			if err := nd.ConnectPins(src.Node, src.Pin, newID[i], e.To.Pin); err != nil {
				return nil, fmt.Errorf("synth: wiring %s: %w", g.Name(id), err)
			}
		}
	}
	// Wire programmable blocks' inputs per their input maps.
	for pi, mg := range m.Merges {
		for k, p := range mg.InputMap {
			src, err := mapSource(p)
			if err != nil {
				return nil, err
			}
			if err := nd.ConnectPins(src.Node, src.Pin, partID[pi], k); err != nil {
				return nil, fmt.Errorf("synth: wiring p%d: %w", pi, err)
			}
		}
	}

	if err := nd.Validate(); err != nil {
		return nil, fmt.Errorf("synth: synthesized design invalid: %w", err)
	}
	out.Synthesized = nd
	return out, nil
}

// csrcMemo caches generated C per (program identity, block name).
// Identity keying only pays off when the same *behavior.Program is
// emitted repeatedly — exactly what the merge-artifact decode memo
// (artifactMemo, see memoizedDecode) arranges for interactive edit
// sessions, where every unedited partition resolves to the one shared
// parsed program and lands here on its stable p<i> name. Emit looks up
// adopted merges only: a freshly merged program is never presented
// again. Budgeted by entry count.
var csrcMemo = memo.New[csrcKey, string](csrcMemoEntries, nil)

const csrcMemoEntries = 4096

type csrcKey struct {
	prog *behavior.Program
	name string
}

func memoizedEmitC(prog *behavior.Program, name string) string {
	k := csrcKey{prog, name}
	if c, ok := csrcMemo.Get(k); ok {
		return c
	}
	c := codegen.EmitC(prog, name)
	csrcMemo.Put(k, c)
	return c
}

// Verified is the final stage artifact: the emitted design plus the
// outcome of the simulation-based equivalence check.
type Verified struct {
	*Emitted
	// Mismatches lists every output disagreement observed; empty means
	// the designs are behaviorally equivalent on the replayed schedule.
	Mismatches []Mismatch
}

// Output converts the emit artifact to the legacy Output form.
func (e *Emitted) Output() *Output {
	out := &Output{
		Synthesized: e.Synthesized,
		Result:      e.Result,
		Merged:      make(map[string]*codegen.Merged, len(e.Merges)),
		CSource:     e.CSource,
	}
	for pi, mg := range e.Merges {
		out.Merged[fmt.Sprintf("p%d", pi)] = mg
	}
	return out
}

// Run executes capture → partition → merge → emit with no stage cache
// and returns the emitted artifact. Verification is a separate stage
// the caller opts into (Emitted.VerifyCached).
func Run(ctx context.Context, d *netlist.Design, opts Options) (*Emitted, error) {
	ca, err := Capture(d, opts)
	if err != nil {
		return nil, err
	}
	em, _, err := SynthesizeCaptured(ctx, ca, nil)
	return em, err
}
