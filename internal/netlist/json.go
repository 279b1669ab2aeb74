package netlist

import (
	"encoding/json"
	"fmt"
	"unicode"

	"repro/internal/behavior"
	"repro/internal/block"
)

// jsonDesign is the JSON wire form of a design.
type jsonDesign struct {
	Name   string      `json:"name"`
	Blocks []jsonBlock `json:"blocks"`
	Wires  []jsonWire  `json:"wires"`
}

type jsonBlock struct {
	Name    string           `json:"name"`
	Type    string           `json:"type"`
	Kind    string           `json:"kind"`
	Params  map[string]int64 `json:"params,omitempty"`
	Program string           `json:"program,omitempty"` // behavior source for overrides
}

type jsonWire struct {
	From     string `json:"from"`
	FromPort string `json:"fromPort"`
	To       string `json:"to"`
	ToPort   string `json:"toPort"`
}

// MarshalJSON renders the design for external tooling (the paper's GUI
// would be one consumer). Deterministic field order within each block.
func MarshalJSON(d *Design) ([]byte, error) {
	jd := jsonDesign{Name: d.Name}
	g := d.Graph()
	for _, id := range g.NodeIDs() {
		jb := jsonBlock{
			Name:   g.Name(id),
			Type:   d.Type(id).Name,
			Kind:   d.Type(id).Kind.String(),
			Params: d.Params(id),
		}
		if d.HasProgramOverride(id) {
			jb.Program = behavior.Format(d.Program(id))
		}
		jd.Blocks = append(jd.Blocks, jb)
	}
	for _, e := range g.Edges() {
		jd.Wires = append(jd.Wires, jsonWire{
			From:     g.Name(e.From.Node),
			FromPort: d.Type(e.From.Node).Outputs[e.From.Pin],
			To:       g.Name(e.To.Node),
			ToPort:   d.Type(e.To.Node).Inputs[e.To.Pin],
		})
	}
	return json.MarshalIndent(jd, "", "  ")
}

// UnmarshalJSON builds a design from the JSON wire form against the
// given catalog (the inverse of MarshalJSON; the two round-trip
// byte-identically). ProgNxM types referenced by the document that are
// absent from the catalog are synthesized on the fly, like Parse. The
// optional "kind" field, when present, must agree with the catalog
// type. The design is structurally checked (unknown types, ports, and
// cycles are errors) but not Validate()d, so partial designs load.
func UnmarshalJSON(data []byte, reg *block.Registry) (*Design, error) {
	var jd jsonDesign
	if err := json.Unmarshal(data, &jd); err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	if jd.Name == "" {
		return nil, fmt.Errorf("netlist: design has no name")
	}
	if err := checkName("design", jd.Name); err != nil {
		return nil, err
	}
	d := NewDesign(jd.Name, reg)
	d.Grow(len(jd.Blocks))
	for _, jb := range jd.Blocks {
		if err := checkName("block", jb.Name); err != nil {
			return nil, err
		}
		if err := ensureProgType(reg, jb.Type); err != nil {
			return nil, fmt.Errorf("netlist: block %q: %w", jb.Name, err)
		}
		id, err := d.AddBlockWithParams(jb.Name, jb.Type, jb.Params)
		if err != nil {
			return nil, err
		}
		if jb.Kind != "" && jb.Kind != d.Type(id).Kind.String() {
			return nil, fmt.Errorf("netlist: block %q declares kind %q but type %q is %q",
				jb.Name, jb.Kind, jb.Type, d.Type(id).Kind)
		}
		if jb.Program != "" {
			prog, err := behavior.Parse(jb.Program)
			if err != nil {
				return nil, fmt.Errorf("netlist: block %q program: %w", jb.Name, err)
			}
			if err := d.SetProgram(id, prog); err != nil {
				return nil, err
			}
		}
	}
	for _, jw := range jd.Wires {
		if err := d.Connect(jw.From, jw.FromPort, jw.To, jw.ToPort); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// checkName rejects names that would corrupt the line-oriented
// canonical forms downstream of a loaded design: whitespace or control
// characters break both the .ebk serialization and the one-line-per-
// entity Fingerprint preimage (two different designs could otherwise
// hash identically). The .ebk parser can never produce such names;
// only the JSON path needs the guard.
func checkName(what, name string) error {
	if name == "" {
		return fmt.Errorf("netlist: empty %s name", what)
	}
	for _, r := range name {
		if unicode.IsSpace(r) || unicode.IsControl(r) {
			return fmt.Errorf("netlist: %s name %q contains whitespace or control characters", what, name)
		}
	}
	return nil
}
