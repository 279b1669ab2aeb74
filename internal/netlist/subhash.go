package netlist

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/behavior"
	"repro/internal/graph"
	"repro/internal/memo"
)

// fmtMemo caches the quoted behavior.Format output by program
// identity. Programs are immutable by convention, and most blocks run
// their type's builtin program — one shared *behavior.Program per type
// for the whole process (block.Standard) — so fingerprinting the
// partitions of a design formats (and escapes) each distinct program
// once per process instead of once per block per call. The quoted form
// is cached rather than the plain text because the fingerprint
// preimage embeds the quoted form, and re-escaping a multi-hundred-byte
// program dominates the fingerprint's cost. Budgeted by entry count to
// bound retention of cloned override programs in long-lived processes.
var fmtMemo = memo.New[*behavior.Program, string](fmtMemoEntries, nil)

const fmtMemoEntries = 4096

func quotedFormatMemoized(p *behavior.Program) string {
	if s, ok := fmtMemo.Get(p); ok {
		return s
	}
	s := strconv.Quote(behavior.Format(p))
	fmtMemo.Put(p, s)
	return s
}

// StructuralFingerprint returns a canonical content hash of the
// design's graph structure alone: block names, roles, port counts,
// pinnedness, and wires — excluding parameter overrides, behavior
// programs, block types, and the design name. Every registered
// partitioning algorithm is a pure function of exactly this structure,
// so two designs with equal structural fingerprints partition
// identically under any algorithm: the partitioned stage of the
// synthesis cache is keyed on it, which is what lets a parameter or
// program edit reuse the cached partitioning of the design it was
// edited from. Like Fingerprint, the hash is independent of block
// insertion order.
func StructuralFingerprint(d *Design) string {
	// Insertion-order independence comes from sorting blocks by name
	// (unique per design) and wires by endpoint, not from sorting
	// rendered lines — the preimage is then assembled in one buffer and
	// hashed with a single Write. This function keys the partitioned
	// stage and runs on every cached-synthesis request, so it avoids
	// fmt and per-line allocations.
	g := d.Graph()
	ids := g.NodeIDs()
	sort.Slice(ids, func(i, j int) bool { return g.Name(ids[i]) < g.Name(ids[j]) })

	edges := g.Edges()
	edgeLess := func(a, b graph.Edge) bool {
		if an, bn := g.Name(a.From.Node), g.Name(b.From.Node); an != bn {
			return an < bn
		}
		if a.From.Pin != b.From.Pin {
			return a.From.Pin < b.From.Pin
		}
		if an, bn := g.Name(a.To.Node), g.Name(b.To.Node); an != bn {
			return an < bn
		}
		return a.To.Pin < b.To.Pin
	}
	sort.Slice(edges, func(i, j int) bool { return edgeLess(edges[i], edges[j]) })

	buf := make([]byte, 0, 32*(len(ids)+len(edges))+32)
	buf = append(buf, "eblocks-structure-v1\n"...)
	for _, id := range ids {
		buf = append(buf, "block "...)
		buf = append(buf, g.Name(id)...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(g.Role(id)), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(g.NumIn(id)), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(g.NumOut(id)), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendBool(buf, g.Pinned(id))
		buf = append(buf, '\n')
	}
	for _, e := range edges {
		buf = append(buf, "wire "...)
		buf = append(buf, g.Name(e.From.Node)...)
		buf = append(buf, '.')
		buf = strconv.AppendInt(buf, int64(e.From.Pin), 10)
		buf = append(buf, " -> "...)
		buf = append(buf, g.Name(e.To.Node)...)
		buf = append(buf, '.')
		buf = strconv.AppendInt(buf, int64(e.To.Pin), 10)
		buf = append(buf, '\n')
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// SubHasher fingerprints induced subgraphs of one design. It holds the
// design's level assignment (computed once), so fingerprinting every
// partition of a result costs one Levels pass plus O(subgraph) per
// call. A SubHasher is read-only after construction and safe for
// concurrent use.
type SubHasher struct {
	d      *Design
	levels []int
}

// NewSubHasher prepares a fingerprinter for subgraphs of d. It fails
// if the design's graph is cyclic (no level assignment exists).
func NewSubHasher(d *Design) (*SubHasher, error) {
	levels, err := d.Graph().Levels()
	if err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	return &SubHasher{d: d, levels: levels}, nil
}

// MergeOrder returns the subgraph's members in canonical merge order:
// non-decreasing level (the paper's evaluation order), block name
// within a level. Names are unique per design, so the order is total —
// and, unlike a NodeID tie-break, independent of block insertion
// order, which is what keeps a partition's merge artifact stable when
// an unrelated edit rebuilds the design and renumbers its nodes.
func (h *SubHasher) MergeOrder(part graph.NodeSet) []graph.NodeID {
	g := h.d.Graph()
	members := part.AppendSorted(make([]graph.NodeID, 0, part.Len()))
	slices.SortFunc(members, func(a, b graph.NodeID) int {
		if la, lb := h.levels[a], h.levels[b]; la != lb {
			return cmp.Compare(la, lb)
		}
		return strings.Compare(g.Name(a), g.Name(b))
	})
	return members
}

// ExternalInputs returns the distinct driver ports outside part that
// feed members, in first-use order over the canonical merge order
// (members by MergeOrder, input pins in pin order). The k-th port
// drives merged input pin k.
func (h *SubHasher) ExternalInputs(part graph.NodeSet) []graph.Port {
	return h.externalInputs(h.MergeOrder(part), part)
}

// externalInputs is ExternalInputs over the members in merge order.
func (h *SubHasher) externalInputs(members []graph.NodeID, part graph.NodeSet) []graph.Port {
	g := h.d.Graph()
	var order []graph.Port
	for _, id := range members {
		// InEdgesView is ordered by input pin, undriven pins absent.
		for _, e := range g.InEdgesView(id) {
			if !part.Has(e.From.Node) && !slices.Contains(order, e.From) {
				order = append(order, e.From)
			}
		}
	}
	return order
}

// ExportedOutputs returns the distinct member output ports consumed
// outside part, ordered by (merge order, pin). The j-th port is
// exported on merged output pin j.
func (h *SubHasher) ExportedOutputs(part graph.NodeSet) []graph.Port {
	return h.exportedOutputs(h.MergeOrder(part), part)
}

// exportedOutputs is ExportedOutputs over the members in merge order.
func (h *SubHasher) exportedOutputs(members []graph.NodeID, part graph.NodeSet) []graph.Port {
	g := h.d.Graph()
	var exported []graph.Port
	for _, id := range members {
		// OutEdgesView is ordered by output pin: export each pin once,
		// at its first edge leaving the subgraph.
		for _, e := range g.OutEdgesView(id) {
			if !part.Has(e.To.Node) && (len(exported) == 0 || exported[len(exported)-1] != e.From) {
				exported = append(exported, e.From)
			}
		}
	}
	return exported
}

// Fingerprint returns the canonical content hash of the induced
// subgraph: a SHA-256 over the members' effective programs and
// parameter values, the internal wiring among them, and the boundary
// cut (which input pins are fed externally, grouped by shared driver;
// which output ports are exported) — everything the merged program
// generated for the subgraph depends on, and nothing else. Members and
// external feeds are identified by merge-order index, not name, so two
// partitions that are isomorphic under renaming hash identically and
// share one merge artifact. Like Fingerprint, the hash is independent
// of block insertion order.
//
// It fails if a member is not an inner block or has no behavior
// program — the same subgraphs MergePartition rejects.
func (h *SubHasher) Fingerprint(part graph.NodeSet) (string, error) {
	if part.Len() == 0 {
		return "", fmt.Errorf("netlist: empty subgraph")
	}
	d, g := h.d, h.d.Graph()
	members := h.MergeOrder(part)
	memberIdx := make(map[graph.NodeID]int, len(members))
	for i, id := range members {
		memberIdx[id] = i
	}
	extIdx := map[graph.Port]int{}
	for k, p := range h.externalInputs(members, part) {
		extIdx[p] = k
	}

	// Like StructuralFingerprint, the preimage is assembled in one
	// buffer and hashed with a single Write — this runs per partition
	// per cached request.
	buf := make([]byte, 0, 1024)
	buf = append(buf, "eblocks-subgraph-v1\nn "...)
	buf = strconv.AppendInt(buf, int64(len(members)), 10)
	buf = append(buf, '\n')
	for i, id := range members {
		if g.Role(id) != graph.RoleInner {
			return "", fmt.Errorf("netlist: subgraph member %q is not an inner block", g.Name(id))
		}
		prog := d.Program(id)
		if prog == nil {
			return "", fmt.Errorf("netlist: subgraph member %q has no behavior program", g.Name(id))
		}
		buf = append(buf, "m "...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ' ')
		buf = append(buf, quotedFormatMemoized(prog)...)
		buf = append(buf, '\n')
		if len(prog.Params) > 0 {
			buf = append(buf, "p "...)
			buf = strconv.AppendInt(buf, int64(i), 10)
			for _, pd := range prog.Params {
				v := pd.Init
				if cfg, ok := d.Param(id, pd.Name); ok {
					v = cfg
				}
				buf = append(buf, ' ')
				buf = append(buf, pd.Name...)
				buf = append(buf, '=')
				buf = strconv.AppendInt(buf, v, 10)
			}
			buf = append(buf, '\n')
		}
	}
	appendPin := func(i, pin int) {
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, '.')
		buf = strconv.AppendInt(buf, int64(pin), 10)
	}
	for i, id := range members {
		in := g.InEdgesView(id) // ordered by input pin, undriven pins absent
		for pin := 0; pin < g.NumIn(id); pin++ {
			var e *graph.Edge
			if len(in) > 0 && in[0].To.Pin == pin {
				e, in = &in[0], in[1:]
			}
			buf = append(buf, "i "...)
			appendPin(i, pin)
			switch {
			case e == nil:
				buf = append(buf, " x"...)
			case part.Has(e.From.Node):
				buf = append(buf, " w "...)
				appendPin(memberIdx[e.From.Node], e.From.Pin)
			default:
				buf = append(buf, " e "...)
				buf = strconv.AppendInt(buf, int64(extIdx[e.From]), 10)
			}
			buf = append(buf, '\n')
		}
	}
	for j, p := range h.exportedOutputs(members, part) {
		buf = append(buf, "o "...)
		buf = strconv.AppendInt(buf, int64(j), 10)
		buf = append(buf, ' ')
		appendPin(memberIdx[p.Node], p.Pin)
		buf = append(buf, '\n')
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}
