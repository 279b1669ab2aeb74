package behavior

import "fmt"

// Host supplies the runtime services a Machine needs during Step; it is
// the compiled counterpart of the timer/now portion of Env.
type Host interface {
	Schedule(tag int, delay int64)
	TimerFired(tag int) bool
	Now() int64
}

// Machine is one executable instance of a Compiled program: slot arrays
// for inputs, previous inputs, outputs, and states/params, plus an
// evaluation stack. A Machine is not safe for concurrent use.
type Machine struct {
	c *Compiled
	// In and Out are the port slots in declaration order; callers set
	// In before Step and read Out after. Prev holds each input's value
	// as of the previous Step (updated automatically).
	In   []int64
	Prev []int64
	Out  []int64

	state []int64 // states followed by params
	stack []int64
}

// NewMachine builds a machine with declared initial state and default
// parameter values.
func NewMachine(c *Compiled) *Machine {
	m := &Machine{
		c:    c,
		In:   make([]int64, len(c.inputs)),
		Prev: make([]int64, len(c.inputs)),
		Out:  make([]int64, len(c.outputs)),

		state: make([]int64, len(c.states)+len(c.params)),
		stack: make([]int64, c.maxStack),
	}
	m.Reset()
	return m
}

// Reset restores initial state, default parameters, and zero ports.
func (m *Machine) Reset() {
	for i := range m.In {
		m.In[i] = 0
		m.Prev[i] = 0
	}
	for i := range m.Out {
		m.Out[i] = 0
	}
	copy(m.state, m.c.stateInit)
	copy(m.state[len(m.c.states):], m.c.paramInit)
}

// SetParam overrides a parameter value; it reports whether the name is
// a declared parameter.
func (m *Machine) SetParam(name string, v int64) bool {
	i := indexOf(m.c.params, name)
	if i >= 0 {
		m.state[len(m.c.states)+i] = v
	}
	return i >= 0
}

// InputSlot returns the slot index of the named input, or -1.
func (m *Machine) InputSlot(name string) int { return indexOf(m.c.inputs, name) }

// OutputSlot returns the slot index of the named output, or -1.
func (m *Machine) OutputSlot(name string) int { return indexOf(m.c.outputs, name) }

// State returns the current value of a named state variable; ok is
// false for unknown names.
func (m *Machine) State(name string) (int64, bool) {
	if i := indexOf(m.c.states, name); i >= 0 {
		return m.state[i], true
	}
	return 0, false
}

// indexOf returns the position of name in a slot list, or -1.
func indexOf(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

// States returns a copy of the machine's state variables in
// declaration order (parameters excluded). Together with SetStates it
// lets a simulator checkpoint and restore a compiled machine without
// reaching into its representation.
func (m *Machine) States() []int64 {
	return append([]int64(nil), m.state[:len(m.c.states)]...)
}

// SetStates overwrites the machine's state variables in declaration
// order, leaving parameters untouched. The slice length must match the
// program's state count exactly — a checkpoint from a different
// program must not restore here.
func (m *Machine) SetStates(vals []int64) error {
	if len(vals) != len(m.c.states) {
		return fmt.Errorf("behavior: restoring %d state values into a %d-state machine", len(vals), len(m.c.states))
	}
	copy(m.state, vals)
	return nil
}

// Step executes the program once against the current inputs, then
// latches Prev = In. Timer queries and scheduling go through host.
func (m *Machine) Step(host Host) error {
	code := m.c.code
	sp := 0
	stack := m.stack
	for pc := 0; pc < len(code); pc++ {
		in := code[pc]
		switch in.Op {
		case OpConst:
			stack[sp] = in.Imm
			sp++
		case OpLoadInput:
			stack[sp] = m.In[in.A]
			sp++
		case OpLoadPrev:
			stack[sp] = m.Prev[in.A]
			sp++
		case OpLoadState:
			stack[sp] = m.state[in.A]
			sp++
		case OpStoreState:
			sp--
			m.state[in.A] = stack[sp]
		case OpStoreOutput:
			sp--
			m.Out[in.A] = stack[sp]
		case OpLoadTimer:
			stack[sp] = b2i(host.TimerFired(in.A))
			sp++
		case OpSchedule:
			sp--
			host.Schedule(in.A, stack[sp])
		case OpNow:
			stack[sp] = host.Now()
			sp++
		case OpJump:
			pc = in.A - 1
		case OpJumpIfZero:
			sp--
			if stack[sp] == 0 {
				pc = in.A - 1
			}
		case OpUnary:
			x := stack[sp-1]
			switch in.A {
			case UnNot:
				stack[sp-1] = b2i(x == 0)
			case UnNeg:
				stack[sp-1] = -x
			default:
				stack[sp-1] = ^x
			}
		case OpBinary:
			sp--
			y := stack[sp]
			x := stack[sp-1]
			v, err := applyBinary(in.A, x, y)
			if err != nil {
				return err
			}
			stack[sp-1] = v
		case OpDrop:
			sp--
		default:
			return fmt.Errorf("behavior: vm: bad opcode %d", in.Op)
		}
	}
	copy(m.Prev, m.In)
	return nil
}

// Interpret executes the program once on the tree-walking interpreter
// (Eval) against the machine's slots, then latches Prev = In like
// Step. It is the reference Step is held equal to: both leave the same
// outputs, states and host calls.
func (m *Machine) Interpret(host Host) error {
	if err := Eval(m.c.prog, slotEnv{m, host}); err != nil {
		return err
	}
	copy(m.Prev, m.In)
	return nil
}

// slotEnv is the Env Interpret runs against: names resolve by scanning
// the machine's slot lists, and timers and time go to the host.
type slotEnv struct {
	m *Machine
	Host
}

func (e slotEnv) Input(name string) (int64, bool) {
	if i := e.m.InputSlot(name); i >= 0 {
		return e.m.In[i], true
	}
	return 0, false
}

func (e slotEnv) PrevInput(name string) (int64, bool) {
	if i := e.m.InputSlot(name); i >= 0 {
		return e.m.Prev[i], true
	}
	return 0, false
}

func (e slotEnv) SetOutput(name string, v int64) {
	if i := e.m.OutputSlot(name); i >= 0 {
		e.m.Out[i] = v
	}
}

func (e slotEnv) State(name string) int64 {
	v, _ := e.m.State(name)
	return v
}

func (e slotEnv) SetState(name string, v int64) {
	if i := indexOf(e.m.c.states, name); i >= 0 {
		e.m.state[i] = v
	}
}

func (e slotEnv) Param(name string) (int64, bool) {
	if i := indexOf(e.m.c.params, name); i >= 0 {
		return e.m.state[len(e.m.c.states)+i], true
	}
	return 0, false
}

func applyBinary(op int, x, y int64) (int64, error) {
	switch op {
	case BinAdd:
		return x + y, nil
	case BinSub:
		return x - y, nil
	case BinMul:
		return x * y, nil
	case BinDiv:
		if y == 0 {
			return 0, fmt.Errorf("behavior: vm: division by zero")
		}
		return x / y, nil
	case BinMod:
		if y == 0 {
			return 0, fmt.Errorf("behavior: vm: modulo by zero")
		}
		return x % y, nil
	case BinAnd:
		return x & y, nil
	case BinOr:
		return x | y, nil
	case BinXor:
		return x ^ y, nil
	case BinShl:
		if y < 0 || y > 63 {
			return 0, nil
		}
		return x << uint(y), nil
	case BinShr:
		if y < 0 || y > 63 {
			return 0, nil
		}
		return x >> uint(y), nil
	case BinEq:
		return b2i(x == y), nil
	case BinNe:
		return b2i(x != y), nil
	case BinLt:
		return b2i(x < y), nil
	case BinLe:
		return b2i(x <= y), nil
	case BinGt:
		return b2i(x > y), nil
	case BinGe:
		return b2i(x >= y), nil
	default:
		return 0, fmt.Errorf("behavior: vm: bad binary op %d", op)
	}
}
