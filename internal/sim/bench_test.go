package sim

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/netlist"
)

// benchStimuli builds a toggling schedule over every sensor of d: each
// sensor flips once per period, staggered so evaluations overlap the
// way an active deployment's do.
func benchStimuli(d *netlist.Design, steps int) []Stimulus {
	g := d.Graph()
	var out []Stimulus
	t := int64(10)
	for i := 0; i < steps; i++ {
		for si, id := range d.Sensors() {
			out = append(out, Stimulus{Time: t + int64(si), Block: g.Name(id), Value: int64((i + si) % 2)})
		}
		t += 50
	}
	return out
}

// BenchmarkInterpreterEval drives the largest library design through
// the tree-walking interpreter (the zero Config's evaluator): the hot
// path is behavior.Eval's Env calls, which resolve pin/state/param
// names by scanning the machine's slot lists.
func BenchmarkInterpreterEval(b *testing.B) {
	benchEval(b, Config{})
}

// BenchmarkCompiledEval is the same workload on the bytecode VM, as
// the reference point for what the interpreter's Env overhead costs.
func BenchmarkCompiledEval(b *testing.B) {
	benchEval(b, Config{Compiled: true})
}

func benchEval(b *testing.B, cfg Config) {
	d := designs.Lookup("Timed Passage").Build()
	stims := benchStimuli(d, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Stimulate(stims...); err != nil {
			b.Fatal(err)
		}
		if _, err := s.RunToQuiescence(); err != nil {
			b.Fatal(err)
		}
	}
}
