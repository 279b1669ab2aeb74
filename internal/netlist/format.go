package netlist

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/behavior"
	"repro/internal/block"
	"repro/internal/graph"
)

// The .ebk text format:
//
//	design GarageOpenAtNight
//
//	block door  ContactSwitch
//	block pg    PulseGen WIDTH=5000
//	block p0    Prog2x2 {
//	    input in0, in1;
//	    output out0, out1;
//	    run { out0 = in0 && in1; out1 = 0; }
//	}
//
//	connect door.y -> and1.a
//
// Lines starting with '#' are comments. A block line may carry
// NAME=value parameter overrides and, for programmable blocks, an inline
// behavior program delimited by braces (brace-counted, so programs may
// contain nested braces).

// Serialize renders the design in .ebk format. The output round-trips
// through Parse, which tests verify.
func Serialize(d *Design) string {
	var b strings.Builder
	fmt.Fprintf(&b, "design %s\n\n", d.Name)
	for _, id := range d.Graph().NodeIDs() {
		fmt.Fprintf(&b, "block %s %s", d.Graph().Name(id), d.Type(id).Name)
		params := d.Params(id)
		if len(params) > 0 {
			keys := make([]string, 0, len(params))
			for k := range params {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, " %s=%d", k, params[k])
			}
		}
		if d.HasProgramOverride(id) {
			b.WriteString(" {\n")
			src := behavior.Format(d.Program(id))
			for _, line := range strings.Split(strings.TrimRight(src, "\n"), "\n") {
				fmt.Fprintf(&b, "    %s\n", line)
			}
			b.WriteString("}")
		}
		b.WriteString("\n")
	}
	b.WriteString("\n")
	for _, e := range d.Graph().Edges() {
		fromID, toID := e.From.Node, e.To.Node
		fmt.Fprintf(&b, "connect %s.%s -> %s.%s\n",
			d.Graph().Name(fromID), d.Type(fromID).Outputs[e.From.Pin],
			d.Graph().Name(toID), d.Type(toID).Inputs[e.To.Pin])
	}
	return b.String()
}

// Parse reads a .ebk document and builds the design against the given
// catalog. Programmable types referenced by the document (e.g. Prog2x2)
// that are absent from the catalog are synthesized on the fly.
func Parse(src string, reg *block.Registry) (*Design, error) {
	var d *Design
	lines := strings.Split(src, "\n")
	for ln := 0; ln < len(lines); ln++ {
		line := strings.TrimSpace(lines[ln])
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "design":
			if len(fields) != 2 {
				return nil, fmt.Errorf("netlist: line %d: design needs exactly one name", ln+1)
			}
			if d != nil {
				return nil, fmt.Errorf("netlist: line %d: duplicate design line", ln+1)
			}
			d = NewDesign(fields[1], reg)
		case "block":
			if d == nil {
				return nil, fmt.Errorf("netlist: line %d: block before design line", ln+1)
			}
			consumed, err := parseBlock(d, lines, ln)
			if err != nil {
				return nil, err
			}
			ln += consumed
		case "connect":
			if d == nil {
				return nil, fmt.Errorf("netlist: line %d: connect before design line", ln+1)
			}
			if err := parseConnect(d, line, ln); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("netlist: line %d: unknown directive %q", ln+1, fields[0])
		}
	}
	if d == nil {
		return nil, fmt.Errorf("netlist: no design line found")
	}
	return d, nil
}

// parseBlock handles one block line starting at lines[ln]; it returns
// how many extra lines (inline program body) were consumed.
func parseBlock(d *Design, lines []string, ln int) (int, error) {
	line := strings.TrimSpace(lines[ln])
	hasProg := strings.HasSuffix(line, "{")
	if hasProg {
		line = strings.TrimSpace(strings.TrimSuffix(line, "{"))
	}
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return 0, fmt.Errorf("netlist: line %d: block needs a name and a type", ln+1)
	}
	name, typeName := fields[1], fields[2]
	params := map[string]int64{}
	for _, f := range fields[3:] {
		eq := strings.IndexByte(f, '=')
		if eq <= 0 {
			return 0, fmt.Errorf("netlist: line %d: malformed parameter %q", ln+1, f)
		}
		v, err := strconv.ParseInt(f[eq+1:], 0, 64)
		if err != nil {
			return 0, fmt.Errorf("netlist: line %d: parameter %q: %v", ln+1, f, err)
		}
		params[f[:eq]] = v
	}

	if err := ensureProgType(d.reg, typeName); err != nil {
		return 0, fmt.Errorf("netlist: line %d: %v", ln+1, err)
	}

	id, err := d.AddBlockWithParams(name, typeName, params)
	if err != nil {
		return 0, fmt.Errorf("netlist: line %d: %v", ln+1, err)
	}
	if !hasProg {
		return 0, nil
	}

	// Collect the brace-balanced program body following the block line.
	depth := 1
	var body strings.Builder
	consumed := 0
	for depth > 0 {
		consumed++
		if ln+consumed >= len(lines) {
			return 0, fmt.Errorf("netlist: line %d: unterminated inline program for block %q", ln+1, name)
		}
		raw := lines[ln+consumed]
		for _, c := range raw {
			switch c {
			case '{':
				depth++
			case '}':
				depth--
			}
		}
		if depth > 0 {
			body.WriteString(raw)
			body.WriteString("\n")
		} else {
			// Keep everything on the closing line before the final '}'.
			idx := strings.LastIndexByte(raw, '}')
			body.WriteString(raw[:idx])
			body.WriteString("\n")
		}
	}
	prog, err := behavior.Parse(body.String())
	if err != nil {
		return 0, fmt.Errorf("netlist: block %q inline program: %v", name, err)
	}
	if err := d.SetProgram(id, prog); err != nil {
		return 0, fmt.Errorf("netlist: block %q: %v", name, err)
	}
	return consumed, nil
}

func parseConnect(d *Design, line string, ln int) error {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "connect"))
	parts := strings.Split(rest, "->")
	if len(parts) != 2 {
		return fmt.Errorf("netlist: line %d: connect needs `a.port -> b.port`", ln+1)
	}
	from, err := splitPort(strings.TrimSpace(parts[0]))
	if err != nil {
		return fmt.Errorf("netlist: line %d: %v", ln+1, err)
	}
	to, err := splitPort(strings.TrimSpace(parts[1]))
	if err != nil {
		return fmt.Errorf("netlist: line %d: %v", ln+1, err)
	}
	if err := d.Connect(from[0], from[1], to[0], to[1]); err != nil {
		return fmt.Errorf("netlist: line %d: %v", ln+1, err)
	}
	return nil
}

// ensureProgType auto-registers ProgNxM types absent from the catalog
// so serialized synthesized designs can be reloaded against a plain
// catalog. Other names, and budgets past block.MaxProgPorts on either
// side, are left alone (AddBlock reports them as unknown types).
func ensureProgType(reg *block.Registry, typeName string) error {
	if reg.Lookup(typeName) != nil {
		return nil
	}
	var nin, nout int
	if n, _ := fmt.Sscanf(typeName, "Prog%dx%d", &nin, &nout); n == 2 && min(nin, nout) > 0 && max(nin, nout) <= block.MaxProgPorts {
		return reg.Ensure(block.ProgrammableType(nin, nout))
	}
	return nil
}

func splitPort(s string) ([2]string, error) {
	dot := strings.LastIndexByte(s, '.')
	if dot <= 0 || dot == len(s)-1 {
		return [2]string{}, fmt.Errorf("malformed port reference %q (want block.port)", s)
	}
	return [2]string{s[:dot], s[dot+1:]}, nil
}

// Clone deep-copies the design (graph, params, program overrides). The
// clone shares the immutable catalog and block types.
func Clone(d *Design) *Design {
	c := NewDesign(d.Name, d.reg)
	c.g = d.g.Clone()
	c.insts = make([]instance, len(d.insts))
	for i, inst := range d.insts {
		ci := instance{typ: inst.typ}
		if inst.params != nil {
			ci.params = make(map[string]int64, len(inst.params))
			for k, v := range inst.params {
				ci.params[k] = v
			}
		}
		if inst.prog != nil {
			ci.prog = inst.prog.Clone()
		}
		c.insts[i] = ci
	}
	return c
}

// DOT renders the design as Graphviz dot with block type annotations.
func DOT(d *Design, partitions []graph.NodeSet) string {
	return d.Graph().DOT(d.Name, partitions)
}
