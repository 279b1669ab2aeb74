package cli

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/graph"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/synth"
)

// LoadDesign resolves the -design/-library flag pair shared by the
// tools: exactly one must be set; path loads a .ebk (or, with a .json
// extension, a JSON wire form) file against the standard catalog,
// library builds one of the Table 1 designs.
func LoadDesign(path, library string) (*netlist.Design, error) {
	switch {
	case path != "" && library != "":
		return nil, fmt.Errorf("use either -design or -library, not both")
	case path != "":
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(path, ".json") {
			return netlist.UnmarshalJSON(raw, block.Standard())
		}
		return netlist.Parse(string(raw), block.Standard())
	case library != "":
		e := designs.Lookup(library)
		if e == nil {
			return nil, fmt.Errorf("unknown library design %q (see -list)", library)
		}
		return e.Build(), nil
	default:
		return nil, fmt.Errorf("one of -design or -library is required")
	}
}

// SimulateOptions drive Simulate.
type SimulateOptions struct {
	Script string // stimulus script source ("" = none)
	Until  int64  // 0 = run to quiescence
	Config sim.Config
	VCD    io.Writer // non-nil: write waveform here
}

// Simulate runs a design under a stimulus script and writes the
// human-readable report (trace + final outputs) to w.
func Simulate(w io.Writer, d *netlist.Design, opts SimulateOptions) error {
	s, err := sim.New(d, opts.Config)
	if err != nil {
		return err
	}
	if opts.Script != "" {
		stimuli, err := sim.ParseScript(opts.Script)
		if err != nil {
			return err
		}
		if err := s.Stimulate(stimuli...); err != nil {
			return err
		}
	}
	if opts.Until > 0 {
		err = s.Run(opts.Until)
	} else {
		_, err = s.RunToQuiescence()
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "design %s: simulated to t=%d ms\n", d.Name, s.Now())
	io.WriteString(w, s.Trace().String())
	for _, id := range d.Outputs() {
		v, err := s.OutputValue(d.Graph().Name(id))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "final %s = %d\n", d.Graph().Name(id), v)
	}
	if opts.VCD != nil {
		if err := sim.WriteVCD(opts.VCD, s.Trace(), d.Name); err != nil {
			return err
		}
	}
	return nil
}

// SynthesizeOptions drive SynthesizeReport.
type SynthesizeOptions struct {
	Synth  synth.Options
	Verify bool
	DOT    bool
}

// SynthesizeResult carries the artifacts a caller may persist.
type SynthesizeResult struct {
	Output     *synth.Output
	NetlistEBK string // synthesized design, .ebk
	CSource    string // all firmware modules concatenated, sorted by name
	DOT        string // partitioned original design, when requested
}

// NewSynthesizeResult renders a synthesis output as the files the
// tools write: the synthesized design as .ebk text and every firmware
// module concatenated, sorted by block name.
func NewSynthesizeResult(out *synth.Output) *SynthesizeResult {
	names := make([]string, 0, len(out.CSource))
	for n := range out.CSource {
		names = append(names, n)
	}
	sort.Strings(names)
	var c strings.Builder
	for _, n := range names {
		c.WriteString(out.CSource[n])
		c.WriteByte('\n')
	}
	return &SynthesizeResult{Output: out, NetlistEBK: netlist.Serialize(out.Synthesized), CSource: c.String()}
}

// SynthesizeReport synthesizes a design, writes the summary (and
// verification outcome) to w, and returns the artifacts.
func SynthesizeReport(w io.Writer, d *netlist.Design, opts SynthesizeOptions) (*SynthesizeResult, error) {
	out, err := synth.Synthesize(d, opts.Synth)
	if err != nil {
		return nil, err
	}
	before := len(d.Graph().InnerNodes())
	fmt.Fprintf(w, "%s: %d inner blocks -> %d (%d programmable, %d pre-defined), %d fit checks\n",
		d.Name, before, out.InnerBlocksAfter(), len(out.Result.Partitions),
		len(out.Result.Uncovered), out.Result.FitChecks)

	res := NewSynthesizeResult(out)
	if opts.DOT {
		res.DOT = netlist.DOT(d, out.Result.Partitions)
	}
	if opts.Verify {
		mismatches, err := synth.Verify(d, out.Synthesized, synth.VerifyOptions{Steps: 60})
		if err != nil {
			return nil, err
		}
		if len(mismatches) > 0 {
			for _, m := range mismatches {
				fmt.Fprintln(w, "mismatch:", m)
			}
			return nil, fmt.Errorf("verification failed: %d output mismatches", len(mismatches))
		}
		fmt.Fprintln(w, "verification passed (all primary outputs agree)")
	}
	return res, nil
}

// DescribeDesign writes a structural report: block counts by kind,
// wire count, depth, the critical path, and the fan-out histogram.
func DescribeDesign(w io.Writer, d *netlist.Design) error {
	st := d.Stats()
	fmt.Fprintf(w, "design %s\n", d.Name)
	fmt.Fprintf(w, "  sensors %d, inner %d (%d programmable), outputs %d, wires %d, depth %d\n",
		st.Sensors, st.Inner, st.Programmable, st.Outputs, st.Edges, st.Depth)
	g := d.Graph()
	path, err := g.CriticalPath()
	if err != nil {
		return err
	}
	if len(path) > 0 {
		fmt.Fprintf(w, "  critical path:")
		for _, id := range path {
			fmt.Fprintf(w, " %s", g.Name(id))
		}
		fmt.Fprintln(w)
	}
	fan := g.FanoutHistogram()
	fmt.Fprintf(w, "  fan-out:")
	for _, k := range graph.SortedKeys(fan) {
		fmt.Fprintf(w, " %dx->%d", fan[k], k)
	}
	fmt.Fprintln(w)
	return nil
}

// PartitionSummary formats a partitioning result with block names, as
// printed by eblocksynth's verbose mode and the examples.
func PartitionSummary(d *netlist.Design, res *core.Result) string {
	g := d.Graph()
	out := ""
	for i, p := range res.Partitions {
		io := core.PartitionIO(g, p)
		out += fmt.Sprintf("P%d (%d inputs, %d outputs):", i, io.Inputs, io.Outputs)
		for _, id := range p.Sorted() {
			out += " " + g.Name(id)
		}
		out += "\n"
	}
	for _, id := range res.Uncovered {
		out += fmt.Sprintf("uncovered: %s\n", g.Name(id))
	}
	return out
}
