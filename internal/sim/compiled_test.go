package sim

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/designs"
	"repro/internal/graph"
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

// TestEveryInnerBlockRunsAMemoizedMachine: both evaluators run every
// inner block on a behavior.Machine whose program comes from the
// process-wide compile memo, so a second simulator of the same design
// compiles nothing, and whose In, Prev and Out slots are the block's
// pins.
func TestEveryInnerBlockRunsAMemoizedMachine(t *testing.T) {
	d := garage(t)
	g := d.Graph()
	for _, compiled := range []bool{false, true} {
		s, err := New(d, Config{Compiled: compiled})
		if err != nil {
			t.Fatal(err)
		}
		for _, rt := range s.insts {
			if hasMachine, inner := rt.machine != nil, g.Role(rt.id) == graph.RoleInner; hasMachine != inner {
				t.Errorf("compiled=%v: block %q has a machine %v, is inner %v", compiled, rt.name, hasMachine, inner)
			}
			if m := rt.machine; m != nil && !(sharesSlots(rt.inputs, m.In) && sharesSlots(rt.prevIn, m.Prev) && sharesSlots(rt.outputs, m.Out)) {
				t.Errorf("compiled=%v: block %q: pins do not share the machine's slots", compiled, rt.name)
			}
		}
	}
	for _, id := range d.InnerBlocks() {
		if _, ok := compiledMemo.Get(d.Program(id)); !ok {
			t.Errorf("the program of %q is not in the compile memo", g.Name(id))
		}
	}
	used := compiledMemo.Used()
	for _, compiled := range []bool{false, true} {
		if _, err := New(d, Config{Compiled: compiled}); err != nil {
			t.Fatal(err)
		}
	}
	if grown := compiledMemo.Used() - used; grown > 0 {
		t.Errorf("a second New of the same design compiled %d programs", grown)
	}
}

// TestConcurrentSimulatorsMatchSequential: simulators on several
// goroutines run the library designs at once, sharing each catalog
// program's compiled form from the memo (they compile nothing the
// sequential runs did not), and every trace equals the sequential
// run's under both evaluators and both semantics.
func TestConcurrentSimulatorsMatchSequential(t *testing.T) {
	const workers = 4
	type job struct {
		entry designs.Entry
		cfg   Config
	}
	run := func(j job) (string, error) {
		d := j.entry.Build()
		s, err := New(d, j.cfg)
		if err != nil {
			return "", err
		}
		if err := s.Stimulate(benchStimuli(d, 8)...); err != nil {
			return "", err
		}
		if err := s.Run(600); err != nil {
			return "", err
		}
		return s.Trace().String(), nil
	}
	var jobs []job
	var want []string
	for _, entry := range designs.Library() {
		for _, cfg := range []Config{
			{TraceAll: true},
			{TraceAll: true, DeltaCycles: true},
			{TraceAll: true, Compiled: true},
			{TraceAll: true, DeltaCycles: true, Compiled: true},
		} {
			j := job{entry, cfg}
			tr, err := run(j)
			if err != nil {
				t.Fatalf("%s: %v", entry.Name, err)
			}
			jobs, want = append(jobs, j), append(want, tr)
		}
	}
	used := compiledMemo.Used()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts at a different job, so different
			// designs and evaluators overlap.
			for k := range jobs {
				i := (k + w*len(jobs)/workers) % len(jobs)
				got, err := run(jobs[i])
				if err != nil {
					t.Errorf("%s %+v: %v", jobs[i].entry.Name, jobs[i].cfg, err)
					return
				}
				if got != want[i] {
					t.Errorf("%s %+v: concurrent trace differs from the sequential one", jobs[i].entry.Name, jobs[i].cfg)
				}
			}
		}(w)
	}
	wg.Wait()
	if grown := compiledMemo.Used() - used; grown > 0 {
		t.Errorf("concurrent simulators compiled %d programs of their own", grown)
	}
}

// sharesSlots reports whether a and b are the same slots: equal length
// and, when non-empty, the same backing array.
func sharesSlots(a, b []int64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
