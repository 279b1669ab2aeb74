package behavior_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/behavior"
	"repro/internal/block"
	"repro/internal/designs"
	"repro/internal/synth"
)

// callLog is a behavior.Host that records every call made to it, so
// two evaluators can be held to the same timer and clock traffic.
type callLog struct {
	fired map[int]bool
	now   int64
	calls []string
}

func (h *callLog) Schedule(tag int, delay int64) {
	h.calls = append(h.calls, fmt.Sprintf("schedule(%d,%d)", tag, delay))
}

func (h *callLog) TimerFired(tag int) bool {
	h.calls = append(h.calls, fmt.Sprintf("fired(%d)=%t", tag, h.fired[tag]))
	return h.fired[tag]
}

func (h *callLog) Now() int64 {
	h.calls = append(h.calls, fmt.Sprintf("now=%d", h.now))
	return h.now
}

// TestInterpretMatchesStep holds the reference interpreter and the VM
// equal on one machine runtime: for every catalog program and every
// merged program of the Table 1 designs, driving two machines with the
// same seeded inputs, parameters and fired timer tags leaves identical
// outputs, states, previous inputs and host calls after each step.
func TestInterpretMatchesStep(t *testing.T) {
	type named struct {
		name string
		prog *behavior.Program
	}
	var programs []named
	cat := block.Standard()
	for _, name := range cat.Names() {
		if p := cat.Lookup(name).Program; p != nil {
			programs = append(programs, named{name, p})
		}
	}
	for _, entry := range designs.Library() {
		out, err := synth.Synthesize(entry.Build(), synth.Options{})
		if err != nil {
			t.Fatalf("%s: %v", entry.Name, err)
		}
		d := out.Synthesized
		for _, id := range d.InnerBlocks() {
			if d.HasProgramOverride(id) {
				programs = append(programs, named{entry.Name + "/" + d.Graph().Name(id), d.Program(id)})
			}
		}
	}
	rng := rand.New(rand.NewSource(23))
	for _, np := range programs {
		name, p := np.name, np.prog
		c, err := behavior.Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vm, ref := behavior.NewMachine(c), behavior.NewMachine(c)
		for _, d := range p.Params {
			v := rng.Int63n(16)
			vm.SetParam(d.Name, v)
			ref.SetParam(d.Name, v)
		}
		vmHost, refHost := &callLog{}, &callLog{}
		for step := 0; step < 64; step++ {
			for i := range vm.In {
				v := int64(rng.Intn(2))
				if rng.Intn(8) == 0 {
					v = rng.Int63n(9) - 3
				}
				vm.In[i], ref.In[i] = v, v
			}
			fired := map[int]bool{}
			for tag := 0; tag < 8; tag++ {
				if rng.Intn(4) == 0 {
					fired[tag] = true
				}
			}
			vmHost.fired, refHost.fired = fired, fired
			vmHost.now, refHost.now = int64(step*25), int64(step*25)
			vmErr, refErr := vm.Step(vmHost), ref.Interpret(refHost)
			if (vmErr == nil) != (refErr == nil) {
				t.Fatalf("%s step %d: Step error %v, Interpret error %v", name, step, vmErr, refErr)
			}
			if !reflect.DeepEqual(vm.Out, ref.Out) || !reflect.DeepEqual(vm.Prev, ref.Prev) ||
				!reflect.DeepEqual(vm.States(), ref.States()) || !reflect.DeepEqual(vmHost.calls, refHost.calls) {
				t.Fatalf("%s step %d diverges:\nStep:      out %v prev %v states %v calls %v\nInterpret: out %v prev %v states %v calls %v",
					name, step, vm.Out, vm.Prev, vm.States(), vmHost.calls, ref.Out, ref.Prev, ref.States(), refHost.calls)
			}
		}
	}
}
