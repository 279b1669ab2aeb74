package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/synth"
)

const garageEBK = `design garage
block door ContactSwitch
block light LightSensor
block dark Not
block both And2
block led LED
connect door.y -> both.a
connect light.y -> dark.a
connect dark.y -> both.b
connect both.y -> led.a
`

func TestLoadDesignFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garage.ebk")
	if err := os.WriteFile(path, []byte(garageEBK), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := LoadDesign(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "garage" || len(d.InnerBlocks()) != 2 {
		t.Fatalf("loaded %s with %d inner", d.Name, len(d.InnerBlocks()))
	}
}

func TestLoadDesignFromLibrary(t *testing.T) {
	d, err := LoadDesign("", "Podium Timer 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.InnerBlocks()) != 8 {
		t.Fatalf("inner = %d", len(d.InnerBlocks()))
	}
}

func TestLoadDesignErrors(t *testing.T) {
	if _, err := LoadDesign("", ""); err == nil {
		t.Error("no source accepted")
	}
	if _, err := LoadDesign("x.ebk", "Carpool Alert"); err == nil {
		t.Error("both sources accepted")
	}
	if _, err := LoadDesign("", "No Such Design"); err == nil {
		t.Error("unknown library design accepted")
	}
	if _, err := LoadDesign(filepath.Join(t.TempDir(), "missing.ebk"), ""); err == nil {
		t.Error("missing file accepted")
	}
}

func TestSimulateDriver(t *testing.T) {
	d, err := netlist.Parse(garageEBK, block.Standard())
	if err != nil {
		t.Fatal(err)
	}
	var report, vcd strings.Builder
	err = Simulate(&report, d, SimulateOptions{
		Script: "at 100 set door 1\nat 200 set light 1\n",
		Config: sim.Config{TraceAll: true},
		VCD:    &vcd,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := report.String()
	for _, want := range []string{"design garage", "final led = 0", "led.a = 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(vcd.String(), "$enddefinitions") {
		t.Error("VCD not written")
	}
}

func TestSimulateDriverHorizon(t *testing.T) {
	d, err := netlist.Parse(garageEBK, block.Standard())
	if err != nil {
		t.Fatal(err)
	}
	var report strings.Builder
	err = Simulate(&report, d, SimulateOptions{
		Script: "at 500 set door 1\n",
		Until:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "t=100 ms") {
		t.Fatalf("horizon not honored:\n%s", report.String())
	}
}

func TestSimulateDriverBadScript(t *testing.T) {
	d, _ := netlist.Parse(garageEBK, block.Standard())
	var w strings.Builder
	if err := Simulate(&w, d, SimulateOptions{Script: "bogus"}); err == nil {
		t.Fatal("bad script accepted")
	}
	if err := Simulate(&w, d, SimulateOptions{Script: "at 5 set nosuch 1"}); err == nil {
		t.Fatal("unknown stimulus target accepted")
	}
}

func TestSynthesizeReportDriver(t *testing.T) {
	d, err := netlist.Parse(garageEBK, block.Standard())
	if err != nil {
		t.Fatal(err)
	}
	var w strings.Builder
	res, err := SynthesizeReport(&w, d, SynthesizeOptions{Verify: true, DOT: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w.String(), "2 inner blocks -> 1") {
		t.Fatalf("summary wrong:\n%s", w.String())
	}
	if !strings.Contains(w.String(), "verification passed") {
		t.Fatal("verification line missing")
	}
	if !strings.Contains(res.NetlistEBK, "Prog2x2") {
		t.Fatal("synthesized netlist missing programmable block")
	}
	if !strings.Contains(res.CSource, "p0_step") {
		t.Fatal("firmware missing")
	}
	if !strings.Contains(res.DOT, "cluster_0") {
		t.Fatal("dot missing partition cluster")
	}
	// The synthesized netlist reloads and re-simulates.
	d2, err := netlist.Parse(res.NetlistEBK, block.Standard())
	if err != nil {
		t.Fatal(err)
	}
	var w2 strings.Builder
	if err := Simulate(&w2, d2, SimulateOptions{Script: "at 10 set door 1\n"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w2.String(), "final led = 1") {
		t.Fatalf("reloaded synthesized design misbehaves:\n%s", w2.String())
	}
}

// TestNewSynthesizeResultOrdersFirmware pins the C bundle both
// eblocksynth modes write: every module, newline-terminated, in
// lexical order of block name.
func TestNewSynthesizeResultOrdersFirmware(t *testing.T) {
	d, err := netlist.Parse(garageEBK, block.Standard())
	if err != nil {
		t.Fatal(err)
	}
	res := NewSynthesizeResult(&synth.Output{
		Synthesized: d,
		CSource:     map[string]string{"p1": "/* p1 */", "p10": "/* p10 */", "p0": "/* p0 */"},
	})
	if want := "/* p0 */\n/* p1 */\n/* p10 */\n"; res.CSource != want {
		t.Errorf("C bundle = %q, want %q", res.CSource, want)
	}
	if res.NetlistEBK != netlist.Serialize(d) {
		t.Errorf("netlist = %q, want the design's .ebk text", res.NetlistEBK)
	}
}

func TestDescribeDesign(t *testing.T) {
	d, err := netlist.Parse(garageEBK, block.Standard())
	if err != nil {
		t.Fatal(err)
	}
	var w strings.Builder
	if err := DescribeDesign(&w, d); err != nil {
		t.Fatal(err)
	}
	out := w.String()
	for _, want := range []string{
		"design garage",
		"sensors 2, inner 2 (0 programmable), outputs 1, wires 4, depth 3",
		"critical path: light dark both led",
		"fan-out:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("describe missing %q:\n%s", want, out)
		}
	}
}

func TestPartitionSummary(t *testing.T) {
	d, _ := LoadDesign("", "Podium Timer 3")
	var w strings.Builder
	res, err := SynthesizeReport(&w, d, SynthesizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sum := PartitionSummary(d, res.Output.Result)
	for _, want := range []string{"P0", "P1", "uncovered: n7"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}
