// Incremental synthesis: apply a small edit list to a base design and
// re-synthesize, adopting every stage artifact the edit did not
// invalidate from the stage cache. The partitioned stage is keyed on
// the structural fingerprint (parameter and program edits reuse the
// base partitioning outright); the merge stage is keyed per partition
// on the subgraph fingerprint (structural edits recompute only the
// partitions whose region changed). The result is byte-identical to a
// cold full synthesis of the edited design — adoption only ever
// replaces a computation with an artifact proven (by content address)
// to equal what the computation would produce.
package synth

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/behavior"
	"repro/internal/graph"
	"repro/internal/netlist"
)

// Edit is one design mutation in an incremental synthesis request.
// Op selects the mutation; the other fields are operands:
//
//	set-param    {Block, Param, Value}        set a parameter override
//	set-program  {Block, Program}             install a behavior override (.ebk behavior text)
//	add-block    {Block, Type, Params?, Program?}  add an instance
//	remove-block {Block}                      remove an instance and all its wires
//	add-wire     {From, FromPort, To, ToPort} connect an output to an input
//	remove-wire  {To, ToPort, From?, FromPort?} disconnect an input (From cross-checked when given)
//
// Edits apply in list order where order matters (later set-param wins;
// a wire must be removed before its input pin is re-driven).
type Edit struct {
	Op       string           `json:"op"`
	Block    string           `json:"block,omitempty"`
	Param    string           `json:"param,omitempty"`
	Value    int64            `json:"value,omitempty"`
	Type     string           `json:"type,omitempty"`
	Params   map[string]int64 `json:"params,omitempty"`
	Program  string           `json:"program,omitempty"`
	From     string           `json:"from,omitempty"`
	FromPort string           `json:"fromPort,omitempty"`
	To       string           `json:"to,omitempty"`
	ToPort   string           `json:"toPort,omitempty"`
}

// ApplyEdits builds the edited design: a fresh Design over the base's
// catalog with every edit applied. The construction is deterministic —
// base blocks in their original order (removed ones skipped), added
// blocks in edit order, then base wires minus removals, then added
// wires — so two calls with equal inputs produce identical designs
// (and therefore identical fingerprints). An edit list that only sets
// parameters and programs skips the rebuild: the edited design derives
// from the base and patches the edited blocks (patchInstances). The
// base design is not modified. The edited design is validated before
// being returned.
func ApplyEdits(base *netlist.Design, edits []Edit) (*netlist.Design, error) {
	g := base.Graph()

	// Plan pass: index the edit list so unknown targets fail with the
	// offending edit's position before any construction happens.
	removed := map[string]bool{}
	paramPatch := map[string]map[string]int64{}
	progPatch := map[string]*behavior.Program{}
	removedWires := map[string]bool{} // "to\x00toPort"
	var addBlocks, addWires []Edit
	addedNames := map[string]bool{}

	knownBlock := func(name string) bool {
		if addedNames[name] {
			return true
		}
		return g.Valid(g.Lookup(name)) && !removed[name]
	}
	wireKey := func(to, toPort string) string { return to + "\x00" + toPort }

	for i, e := range edits {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("synth: edit %d (%s): %s", i, e.Op, fmt.Sprintf(format, args...))
		}
		switch e.Op {
		case "set-param":
			if !knownBlock(e.Block) {
				return nil, fail("unknown block %q", e.Block)
			}
			if paramPatch[e.Block] == nil {
				paramPatch[e.Block] = map[string]int64{}
			}
			paramPatch[e.Block][e.Param] = e.Value
		case "set-program":
			if !knownBlock(e.Block) {
				return nil, fail("unknown block %q", e.Block)
			}
			prog, err := behavior.Parse(e.Program)
			if err != nil {
				return nil, fail("%v", err)
			}
			progPatch[e.Block] = prog
		case "add-block":
			if e.Block == "" || e.Type == "" {
				return nil, fail("needs block and type")
			}
			if knownBlock(e.Block) {
				return nil, fail("block %q already exists", e.Block)
			}
			// Re-adding a removed base name is allowed (a block swap):
			// the base copy stays skipped, the new instance is appended.
			addBlocks = append(addBlocks, e)
			addedNames[e.Block] = true
		case "remove-block":
			id := g.Lookup(e.Block)
			if addedNames[e.Block] || !g.Valid(id) {
				return nil, fail("unknown base block %q", e.Block)
			}
			removed[e.Block] = true
		case "add-wire":
			addWires = append(addWires, e)
		case "remove-wire":
			id := g.Lookup(e.To)
			if !g.Valid(id) {
				return nil, fail("unknown block %q", e.To)
			}
			pin := base.Type(id).InputPin(e.ToPort)
			if pin < 0 {
				return nil, fail("block %q has no input port %q", e.To, e.ToPort)
			}
			drv := g.Driver(id, pin)
			if drv == nil {
				return nil, fail("input %s.%s is not driven", e.To, e.ToPort)
			}
			if e.From != "" && g.Name(drv.From.Node) != e.From {
				return nil, fail("input %s.%s is driven by %q, not %q", e.To, e.ToPort, g.Name(drv.From.Node), e.From)
			}
			removedWires[wireKey(e.To, e.ToPort)] = true
		default:
			return nil, fail("unknown op")
		}
	}

	if !editsChangeStructure(edits) {
		return patchInstances(base, paramPatch, progPatch)
	}

	// Build pass.
	nd := netlist.NewDesign(base.Name, base.Registry())
	nd.Grow(g.NumNodes() + len(addBlocks))
	addInstance := func(name, typeName string, baseParams map[string]int64, override *behavior.Program) error {
		params := map[string]int64{}
		for k, v := range baseParams {
			params[k] = v
		}
		for k, v := range paramPatch[name] {
			params[k] = v
		}
		if len(params) == 0 {
			params = nil
		}
		id, err := nd.AddBlockWithParams(name, typeName, params)
		if err != nil {
			return fmt.Errorf("synth: %w", err)
		}
		if p, ok := progPatch[name]; ok {
			override = p
		}
		if override != nil {
			if err := nd.SetProgram(id, override.Clone()); err != nil {
				return fmt.Errorf("synth: block %q: %w", name, err)
			}
		}
		return nil
	}

	addFromEdit := func(e Edit) error {
		var override *behavior.Program
		if e.Program != "" {
			var err error
			if override, err = behavior.Parse(e.Program); err != nil {
				return fmt.Errorf("synth: add-block %q: %w", e.Block, err)
			}
		}
		return addInstance(e.Block, e.Type, e.Params, override)
	}
	// A block swap (add-block of a removed base name) rebuilds the
	// instance at the base block's position: keeping the insertion
	// order stable keeps the edited design's node numbering — and with
	// it every order-sensitive tie-break downstream — aligned with what
	// a from-scratch build of the same design would produce.
	swapIn := map[string]Edit{}
	for _, e := range addBlocks {
		if removed[e.Block] {
			swapIn[e.Block] = e
		}
	}
	for _, id := range g.NodeIDs() {
		name := g.Name(id)
		if removed[name] {
			if e, ok := swapIn[name]; ok {
				if err := addFromEdit(e); err != nil {
					return nil, err
				}
			}
			continue
		}
		var override *behavior.Program
		if base.HasProgramOverride(id) {
			override = base.Program(id)
		}
		if err := addInstance(name, base.Type(id).Name, base.Params(id), override); err != nil {
			return nil, err
		}
	}
	for _, e := range addBlocks {
		if _, swapped := swapIn[e.Block]; swapped {
			continue
		}
		if err := addFromEdit(e); err != nil {
			return nil, err
		}
	}

	for _, e := range g.Edges() {
		fromName, toName := g.Name(e.From.Node), g.Name(e.To.Node)
		if removed[fromName] || removed[toName] {
			continue
		}
		toPort := base.Type(e.To.Node).Inputs[e.To.Pin]
		if removedWires[wireKey(toName, toPort)] {
			continue
		}
		if err := nd.Connect(fromName, base.Type(e.From.Node).Outputs[e.From.Pin], toName, toPort); err != nil {
			return nil, fmt.Errorf("synth: %w", err)
		}
	}
	for _, e := range addWires {
		if err := nd.Connect(e.From, e.FromPort, e.To, e.ToPort); err != nil {
			return nil, fmt.Errorf("synth: add-wire: %w", err)
		}
	}

	if err := nd.Validate(); err != nil {
		return nil, fmt.Errorf("synth: edited design: %w", err)
	}
	return nd, nil
}

// patchInstances is ApplyEdits for edit lists that only set
// parameters and programs: the structure is the base's, so the edited
// design derives from the base (sharing its graph) and only the edited
// instances change. The result equals the rebuilt design, and edits
// fail with the same errors, checked in block order.
func patchInstances(base *netlist.Design, paramPatch map[string]map[string]int64, progPatch map[string]*behavior.Program) (*netlist.Design, error) {
	nd := base.Derive()
	g := nd.Graph()
	var ids []graph.NodeID
	for name := range paramPatch {
		ids = append(ids, g.Lookup(name))
	}
	for name := range progPatch {
		if _, both := paramPatch[name]; !both {
			ids = append(ids, g.Lookup(name))
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		name := g.Name(id)
		if patch, ok := paramPatch[name]; ok {
			params := make(map[string]int64, len(base.Params(id))+len(patch))
			for k, v := range base.Params(id) {
				params[k] = v
			}
			for k, v := range patch {
				params[k] = v
			}
			if err := nd.SetParams(id, params); err != nil {
				return nil, fmt.Errorf("synth: %w", err)
			}
		}
		if p, ok := progPatch[name]; ok {
			if err := nd.SetProgram(id, p); err != nil {
				return nil, fmt.Errorf("synth: block %q: %w", name, err)
			}
		}
	}
	if err := nd.Validate(); err != nil {
		return nil, fmt.Errorf("synth: edited design: %w", err)
	}
	return nd, nil
}

// editsChangeStructure reports whether any edit in the list can alter
// the design's graph structure (blocks, wires) as opposed to only its
// parameters or programs. Non-structural edit lists leave the
// structural fingerprint — and therefore the cached partitioning —
// provably unchanged, so the incremental path reuses the base
// capture's partition key without rehashing the edited design.
func editsChangeStructure(edits []Edit) bool {
	for _, e := range edits {
		switch e.Op {
		case "set-param", "set-program":
		default:
			return true
		}
	}
	return false
}

// DeltaStats reports how much of an incremental run was served from
// the stage cache.
type DeltaStats struct {
	// PartitionFromCache reports whether the partitioning itself was
	// adopted (structure unchanged or previously seen) rather than
	// recomputed.
	PartitionFromCache bool `json:"partitionFromCache"`
	// Adopted / Recomputed count partitions whose merge artifact came
	// from the cache vs. were merged in-process.
	Adopted    int `json:"adopted"`
	Recomputed int `json:"recomputed"`
}

// CaptureDelta applies an edit list to a captured base design and
// returns the edited design's capture. The constraints and algorithm
// carry over from the base capture unchanged — the base's parameters
// are already resolved (defaults applied, convexity guard decided), so
// the edited capture reuses them verbatim instead of going back
// through option resolution. Incremental synthesis is CaptureDelta
// followed by SynthesizeCaptured over a warm stage cache: every
// artifact the edits did not invalidate is adopted, and the emitted
// artifact is byte-identical to a cold full synthesis of the edited
// design. Callers that need the edited design's content address
// before deciding whether to synthesize (cache probes) read it from
// the capture in between.
func CaptureDelta(base *Captured, edits []Edit) (*Captured, error) {
	edited, err := ApplyEdits(base.Design, edits)
	if err != nil {
		return nil, err
	}
	ca := &Captured{
		Design:      edited,
		Constraints: base.Constraints,
		Algorithm:   base.Algorithm,
	}
	// Partition-stability pass: parameter and program edits cannot
	// change graph structure, so the edited design's structural
	// fingerprint equals the base's and the partition key carries over
	// without rehashing. Structural edits fall through to computing it
	// from the edited design.
	if !editsChangeStructure(edits) {
		ca.structOnce.Do(func() { ca.structKey = base.StructKey() })
	}
	return ca, nil
}

// SynthesizeCaptured is the one pipeline tail — partition (stage
// cache keyed structurally), merge (per-partition artifacts), emit —
// over an existing capture. Each stage adopts what the cache holds and
// writes back what it computes; a nil cache computes every stage.
// DeltaStats reports how much work the cache absorbed.
func SynthesizeCaptured(ctx context.Context, ca *Captured, cache StageCache) (*Emitted, DeltaStats, error) {
	pt, partHit, err := ca.PartitionCached(ctx, cache)
	if err != nil {
		return nil, DeltaStats{}, err
	}
	mg, ms, err := pt.MergeCached(cache)
	if err != nil {
		return nil, DeltaStats{PartitionFromCache: partHit}, err
	}
	em, err := mg.Emit()
	if err != nil {
		return nil, DeltaStats{PartitionFromCache: partHit}, err
	}
	return em, DeltaStats{PartitionFromCache: partHit, Adopted: ms.Adopted, Recomputed: ms.Recomputed}, nil
}
