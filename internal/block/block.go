package block

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/behavior"
)

// Kind is the block class taxonomy of the paper.
type Kind uint8

const (
	// Sensor blocks detect environmental stimuli (button, motion,
	// light, sound, contact). They are the primary inputs of a design.
	Sensor Kind = iota
	// Output blocks interact with the environment (LED, buzzer,
	// relay). They are the primary outputs of a design.
	Output
	// Combinational compute blocks are stateless boolean functions.
	Combinational
	// Sequential compute blocks keep state (toggle, trip, pulse
	// generator, delay).
	Sequential
	// Communication blocks relay a signal (wire extender, wireless
	// link, X10 bridge); behaviorally an identity function.
	Communication
	// Programmable is the limited-I/O programmable compute block that
	// partitions are mapped onto. Instances carry a merged behavior
	// produced by the code generator.
	Programmable
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Sensor:
		return "sensor"
	case Output:
		return "output"
	case Combinational:
		return "combinational"
	case Sequential:
		return "sequential"
	case Communication:
		return "communication"
	case Programmable:
		return "programmable"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Type describes one catalog entry. Types are immutable after
// registration; instances (netlist nodes) reference a Type by name and
// may override parameter values.
type Type struct {
	Name    string
	Kind    Kind
	Inputs  []string // input port names in pin order
	Outputs []string // output port names in pin order
	// Program is the block behavior; nil for sensors (driven by the
	// environment/stimulus) and output blocks (pure observers).
	Program *behavior.Program
	// Doc is a one-line description shown by tooling.
	Doc string
}

// NumIn returns the input port count.
func (t *Type) NumIn() int { return len(t.Inputs) }

// NumOut returns the output port count.
func (t *Type) NumOut() int { return len(t.Outputs) }

// InputPin returns the pin index of the named input port, or -1.
func (t *Type) InputPin(name string) int { return pinOf(t.Inputs, name) }

// OutputPin returns the pin index of the named output port, or -1.
func (t *Type) OutputPin(name string) int { return pinOf(t.Outputs, name) }

func pinOf(ports []string, name string) int {
	for i, p := range ports {
		if p == name {
			return i
		}
	}
	return -1
}

// ParamDefault returns the default value of the named parameter.
func (t *Type) ParamDefault(name string) (int64, bool) {
	if t.Program == nil {
		return 0, false
	}
	for _, d := range t.Program.Params {
		if d.Name == name {
			return d.Init, true
		}
	}
	return 0, false
}

// Registry maps type names to types. A Registry is safe for concurrent
// use: lookups take a read lock and registration a write lock, so the
// synthesis service may share one catalog across request goroutines.
type Registry struct {
	mu    sync.RWMutex
	types map[string]*Type
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{types: map[string]*Type{}} }

// Register validates and adds a type. The type's program, when present,
// must declare exactly the ports the type lists.
func (r *Registry) Register(t *Type) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.register(t)
}

func (r *Registry) register(t *Type) error {
	if t.Name == "" {
		return fmt.Errorf("block: empty type name")
	}
	if _, dup := r.types[t.Name]; dup {
		return fmt.Errorf("block: duplicate type %q", t.Name)
	}
	switch t.Kind {
	case Sensor:
		if t.NumIn() != 0 || t.NumOut() == 0 {
			return fmt.Errorf("block: sensor %q must have 0 inputs and >0 outputs", t.Name)
		}
	case Output:
		if t.NumOut() != 0 || t.NumIn() == 0 {
			return fmt.Errorf("block: output %q must have 0 outputs and >0 inputs", t.Name)
		}
	default:
		if t.Program == nil {
			return fmt.Errorf("block: compute type %q has no behavior program", t.Name)
		}
	}
	if t.Program != nil {
		if !sameStrings(t.Program.Inputs, t.Inputs) {
			return fmt.Errorf("block: type %q: program inputs %v != declared %v", t.Name, t.Program.Inputs, t.Inputs)
		}
		if !sameStrings(t.Program.Outputs, t.Outputs) {
			return fmt.Errorf("block: type %q: program outputs %v != declared %v", t.Name, t.Program.Outputs, t.Outputs)
		}
	}
	r.types[t.Name] = t
	return nil
}

// MustRegister is Register that panics on error.
func (r *Registry) MustRegister(t *Type) {
	if err := r.Register(t); err != nil {
		panic(err)
	}
}

// Ensure registers t unless a type of that name already exists. The
// check and the registration are one atomic step, so concurrent
// synthesis runs that need the same programmable type cannot collide.
func (r *Registry) Ensure(t *Type) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.types[t.Name]; ok {
		return nil
	}
	return r.register(t)
}

// Lookup returns the named type, or nil.
func (r *Registry) Lookup(name string) *Type {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.types[name]
}

// Names returns all registered type names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.types))
	for n := range r.types {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered types.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.types)
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
