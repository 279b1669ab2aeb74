package sim

import (
	"math/rand"
	"testing"

	"repro/internal/block"
	"repro/internal/netlist"
)

// runBoth simulates the same design and stimuli with the interpreter
// and the compiled VM and returns both traces.
func runBoth(t *testing.T, build func() *netlist.Design, stimuli []Stimulus, delta bool) (string, string) {
	t.Helper()
	run := func(compiled bool) string {
		s, err := New(build(), Config{Compiled: compiled, DeltaCycles: delta, TraceAll: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Stimulate(stimuli...); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunToQuiescence(); err != nil {
			t.Fatal(err)
		}
		return s.Trace().String()
	}
	return run(false), run(true)
}

func TestCompiledMatchesInterpreterOnGarage(t *testing.T) {
	stimuli := []Stimulus{
		{Time: 100, Block: "door", Value: 1},
		{Time: 300, Block: "light", Value: 1},
		{Time: 500, Block: "light", Value: 0},
		{Time: 700, Block: "door", Value: 0},
	}
	for _, delta := range []bool{false, true} {
		interp, compiled := runBoth(t, func() *netlist.Design { return garage(t) }, stimuli, delta)
		if interp != compiled {
			t.Fatalf("delta=%v traces diverge:\n--- interpreter:\n%s--- compiled:\n%s", delta, interp, compiled)
		}
	}
}

func TestCompiledMatchesInterpreterOnTimers(t *testing.T) {
	build := func() *netlist.Design {
		d := netlist.NewDesign("timers", block.Standard())
		d.MustAddBlock("btn", "Button")
		d.MustAddBlockWithParams("pg", "PulseGen", map[string]int64{"WIDTH": 40})
		d.MustAddBlockWithParams("dl", "Delay", map[string]int64{"DELAY": 25})
		d.MustAddBlock("tog", "Toggle")
		d.MustAddBlock("led", "LED")
		d.MustConnect("btn", "y", "pg", "a")
		d.MustConnect("pg", "y", "dl", "a")
		d.MustConnect("dl", "y", "tog", "a")
		d.MustConnect("tog", "y", "led", "a")
		return d
	}
	var stimuli []Stimulus
	rng := rand.New(rand.NewSource(3))
	v := int64(0)
	for i := 1; i <= 20; i++ {
		v ^= 1
		stimuli = append(stimuli, Stimulus{Time: int64(i)*150 + int64(rng.Intn(50)), Block: "btn", Value: v})
	}
	interp, compiled := runBoth(t, build, stimuli, false)
	if interp != compiled {
		t.Fatalf("timer traces diverge:\n--- interpreter:\n%s--- compiled:\n%s", interp, compiled)
	}
}

func TestCompiledMatchesInterpreterOnRandomStimuli(t *testing.T) {
	build := func() *netlist.Design {
		d := netlist.NewDesign("mix", block.Standard())
		d.MustAddBlock("s0", "Button")
		d.MustAddBlock("s1", "Button")
		d.MustAddBlockWithParams("tt", "TruthTable2", map[string]int64{"TT": 9}) // XNOR
		d.MustAddBlock("trip", "Trip")
		d.MustAddBlock("inv", "Not")
		d.MustAddBlock("led", "LED")
		d.MustConnect("s0", "y", "tt", "a")
		d.MustConnect("s1", "y", "tt", "b")
		d.MustConnect("tt", "y", "trip", "trigger")
		d.MustConnect("s1", "y", "trip", "reset")
		d.MustConnect("trip", "y", "inv", "a")
		d.MustConnect("inv", "y", "led", "a")
		return d
	}
	rng := rand.New(rand.NewSource(5))
	var stimuli []Stimulus
	level := map[string]int64{}
	for i := 1; i <= 60; i++ {
		blockName := "s0"
		if rng.Intn(2) == 0 {
			blockName = "s1"
		}
		level[blockName] ^= 1
		stimuli = append(stimuli, Stimulus{Time: int64(i * 37), Block: blockName, Value: level[blockName]})
	}
	for _, delta := range []bool{false, true} {
		interp, compiled := runBoth(t, build, stimuli, delta)
		if interp != compiled {
			t.Fatalf("delta=%v random traces diverge", delta)
		}
	}
}

// TestCompiledBuildsNoIndexTables: the name→index tables serve only
// the interpreter's Env, so a compiled simulator builds none, while an
// interpreting one has them for every inner block.
func TestCompiledBuildsNoIndexTables(t *testing.T) {
	for _, compiled := range []bool{false, true} {
		s, err := New(garage(t), Config{Compiled: compiled})
		if err != nil {
			t.Fatal(err)
		}
		for _, rt := range s.insts {
			if hasIdx, inner := rt.idx != nil, rt.prog != nil; hasIdx != (inner && !compiled) {
				t.Errorf("compiled=%v: block %q has index tables %v", compiled, rt.name, hasIdx)
			}
		}
	}
}
