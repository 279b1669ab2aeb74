package netlist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sort"
	"strconv"

	"repro/internal/graph"
)

// Fingerprint returns a canonical content hash of the design: a
// SHA-256 over the design name, every block (type, kind, sorted
// parameter overrides, and program override when present), and every
// wire. Blocks and wires are hashed in sorted order, so the
// fingerprint is independent of construction order: two designs that
// describe the same network hash identically even if their blocks were
// added in different sequences. The service layer uses the fingerprint
// as the content address of synthesis results.
func Fingerprint(d *Design) string {
	// Each block and wire renders to one line appended to buf, and the
	// lines are sorted as byte strings (spans into buf, not one string
	// per line) and hashed in order. The preimage is pinned by
	// TestFingerprintGolden: it is every stored artifact's address.
	g := d.Graph()
	buf := make([]byte, 0, 64*(g.NumNodes()+g.NumEdges()))
	blocks := make([]span, 0, g.NumNodes())
	var keys []string
	for i := 0; i < g.NumNodes(); i++ {
		id := graph.NodeID(i)
		start := len(buf)
		t := d.Type(id)
		buf = append(buf, "block "...)
		buf = append(buf, g.Name(id)...)
		buf = append(buf, ' ')
		buf = append(buf, t.Name...)
		buf = append(buf, ' ')
		buf = append(buf, t.Kind.String()...)
		if params := d.Params(id); len(params) > 0 {
			keys = keys[:0]
			for k := range params {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				buf = append(buf, ' ')
				buf = append(buf, k...)
				buf = append(buf, '=')
				buf = strconv.AppendInt(buf, params[k], 10)
			}
		}
		if d.HasProgramOverride(id) {
			buf = append(buf, "\nprogram "...)
			buf = append(buf, g.Name(id)...)
			buf = append(buf, ' ')
			buf = append(buf, quotedFormatMemoized(d.Program(id))...)
		}
		blocks = append(blocks, span{start, len(buf)})
	}
	wires := make([]span, 0, g.NumEdges())
	for i := 0; i < g.NumNodes(); i++ {
		for _, e := range g.OutEdgesView(graph.NodeID(i)) {
			start := len(buf)
			buf = append(buf, "wire "...)
			buf = append(buf, g.Name(e.From.Node)...)
			buf = append(buf, '.')
			buf = append(buf, d.Type(e.From.Node).Outputs[e.From.Pin]...)
			buf = append(buf, " -> "...)
			buf = append(buf, g.Name(e.To.Node)...)
			buf = append(buf, '.')
			buf = append(buf, d.Type(e.To.Node).Inputs[e.To.Pin]...)
			wires = append(wires, span{start, len(buf)})
		}
	}
	byText := func(a, b span) int { return bytes.Compare(buf[a.start:a.end], buf[b.start:b.end]) }
	slices.SortFunc(blocks, byText)
	slices.SortFunc(wires, byText)

	pre := make([]byte, 0, len(buf)+len(blocks)+len(wires)+len(d.Name)+32)
	pre = append(pre, "eblocks-design-v1\nname "...)
	pre = append(pre, d.Name...)
	pre = append(pre, '\n')
	for _, sp := range blocks {
		pre = append(append(pre, buf[sp.start:sp.end]...), '\n')
	}
	for _, sp := range wires {
		pre = append(append(pre, buf[sp.start:sp.end]...), '\n')
	}
	sum := sha256.Sum256(pre)
	return hex.EncodeToString(sum[:])
}

// span is one rendered line of a fingerprint preimage, as offsets into
// the rendering buffer.
type span struct{ start, end int }
