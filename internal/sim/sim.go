package sim

import (
	"context"
	"fmt"

	"repro/internal/behavior"
	"repro/internal/graph"
	"repro/internal/memo"
	"repro/internal/netlist"
)

// Config tunes the simulator. The zero value is the default packet
// semantics. Config is part of the service wire schema (the JSON field
// names below) and of simulation cache keys (Canonical).
type Config struct {
	// WireDelay is the packet propagation delay per wire in ms. The
	// default (0 value) is 1 ms, modeling the serial packet protocol.
	// Ignored in DeltaCycles mode (propagation is instantaneous).
	WireDelay int64 `json:"wireDelay,omitempty"`
	// MaxEvents bounds the total number of events processed over the
	// simulator's lifetime as a runaway guard; 0 means the default of
	// 1,000,000. The budget is cumulative across Run calls — an
	// oscillating network cannot dodge it by being driven one
	// timestamp at a time (which is exactly what RunToQuiescence
	// does). Exceeding it fails the run with a *BudgetError.
	MaxEvents int `json:"maxEvents,omitempty"`
	// TraceAll records changes on every block output; by default only
	// primary outputs are traced.
	TraceAll bool `json:"traceAll,omitempty"`
	// DeltaCycles selects the glitch-free reference semantics: wires
	// propagate instantaneously and, within a timestamp, blocks
	// evaluate in level order with all same-timestamp input changes
	// applied at once (VHDL-style delta cycles). Combinational path
	// skew therefore cannot produce transient pulses, which makes two
	// structurally different but functionally equal networks — e.g. a
	// design and its synthesized counterpart — produce identical
	// traces. The default packet mode instead models the serial
	// asynchronous protocol with per-wire delays.
	DeltaCycles bool `json:"deltaCycles,omitempty"`
	// Compiled evaluates block behaviors on the bytecode VM instead of
	// the tree-walking interpreter. Both run over the same per-block
	// machine slots and have identical semantics (enforced by property
	// tests); the interpreter is the reference the VM is checked
	// against, and large-network simulations run several times faster
	// on the VM. Every production path (the service, eblocksim and
	// verification) sets it.
	Compiled bool `json:"compiled,omitempty"`
	// MaxTraceEvents bounds how many changes a run may emit into its
	// trace sink; 0 means unbounded. It exists for buffered-mode
	// callers: MaxEvents caps evaluation work, but a long quiet-running
	// design can still accumulate an enormous in-memory trace — this
	// caps that with a typed *TraceLimitError instead of an OOM.
	// Streaming sinks have bounded memory by construction and normally
	// leave it 0.
	MaxTraceEvents int `json:"maxTraceEvents,omitempty"`
}

func (c Config) wireDelay() int64 {
	if c.WireDelay <= 0 {
		return 1
	}
	return c.WireDelay
}

func (c Config) maxEvents() int {
	if c.MaxEvents <= 0 {
		return 1_000_000
	}
	return c.MaxEvents
}

// Canonical renders the semantics-relevant configuration as canonical
// cache-key text, with defaults applied — two Configs that produce the
// same simulation render identically. Compiled is deliberately
// excluded: the VM and the interpreter are semantically identical
// (enforced by property tests), so it changes how fast a trace is
// produced, never which one. MaxTraceEvents appears only when set, so
// keys minted before it existed render unchanged.
func (c Config) Canonical() string {
	s := fmt.Sprintf("wd=%d|max=%d|all=%t|delta=%t",
		c.wireDelay(), c.maxEvents(), c.TraceAll, c.DeltaCycles)
	if c.MaxTraceEvents > 0 {
		s += fmt.Sprintf("|tmax=%d", c.MaxTraceEvents)
	}
	return s
}

// BudgetError reports that a Run call exhausted its event budget
// (Config.MaxEvents) — almost always a sign of an oscillating network.
// The exported fields make the error JSON-serializable, so services
// can return it structurally (and map it to a client-error status)
// instead of string-matching.
type BudgetError struct {
	// Time is the simulation timestamp at which the budget ran out.
	Time int64 `json:"time"`
	// MaxEvents is the budget that was exhausted.
	MaxEvents int `json:"maxEvents"`
}

// Error implements the error interface.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("sim: event budget of %d exhausted at t=%d ms (possible oscillation)", e.MaxEvents, e.Time)
}

// Stimulus forces a sensor's output to a value at a point in time.
type Stimulus struct {
	Time  int64
	Block string
	Value int64
}

// Simulator executes one design. Create with New, feed stimuli with
// Stimulate (before or between Run calls), then Run.
type Simulator struct {
	design *netlist.Design
	cfg    Config
	queue  eventQueue
	trace  Trace
	// sink receives every observed change; defaults to &trace (the
	// buffered in-memory mode). SetSink replaces it for streaming.
	sink TraceSink
	now  int64
	// processed counts events handled over the simulator's lifetime,
	// charged against Config.MaxEvents; emitted counts changes handed
	// to the sink, charged against Config.MaxTraceEvents.
	processed int
	emitted   int
	insts     []*instRT
	levels    []int
	// fingerprint is netlist.Fingerprint of design, computed by the
	// first Snapshot (or handed over by Restore) and kept: the design
	// does not change under a simulator.
	fingerprint string
	// step runs one block's behavior: Machine.Step on the VM or
	// Machine.Interpret on the interpreter (Config.Compiled).
	step func(*behavior.Machine, behavior.Host) error
}

// instRT is the runtime state of one block instance. On an inner
// block, inputs, prevIn and outputs are its machine's In, Prev and Out
// slots, so an evaluation copies no pin values in or out.
type instRT struct {
	id      graph.NodeID
	name    string
	inputs  []int64 // current value per input pin
	prevIn  []int64 // per-pin value at previous evaluation
	outputs []int64 // latched value per output pin
	outPrev []int64 // pre-evaluation output snapshot (scratch)
	// machine holds the block's behavior slots (state and parameters
	// included); nil for sensors and primary outputs.
	machine *behavior.Machine
	// fired holds the timer tags that triggered the current evaluation
	// (nil when none did — the common case pays no allocation).
	fired map[int]bool
	// Delta-cycle bookkeeping: evalAt is the timestamp for which a
	// coalesced evaluation event is queued (or -1); pendingFired
	// accumulates timer tags to deliver with it.
	evalAt       int64
	pendingFired map[int]bool
	// env plumbing set during an evaluation
	sim *Simulator
}

// compiledMemo holds each behavior program's bytecode by program
// identity. Programs are immutable by convention and most blocks run
// their type's one shared catalog program (block.Standard), so the
// simulators of a process (verification builds two per request)
// compile each program once instead of once per instance. A Compiled
// is read-only, so simulators on many goroutines share it; each
// instance owns its Machine. Budgeted by entry count.
var compiledMemo = memo.New[*behavior.Program, *behavior.Compiled](compiledMemoEntries, nil)

const compiledMemoEntries = 4096

func compile(p *behavior.Program) (*behavior.Compiled, error) {
	if c, ok := compiledMemo.Get(p); ok {
		return c, nil
	}
	c, err := behavior.Compile(p)
	if err != nil {
		return nil, err
	}
	compiledMemo.Put(p, c)
	return c, nil
}

// New builds a simulator for the design. The design must validate.
func New(d *netlist.Design, cfg Config) (*Simulator, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s := &Simulator{design: d, cfg: cfg, step: (*behavior.Machine).Interpret}
	if cfg.Compiled {
		s.step = (*behavior.Machine).Step
	}
	s.sink = &s.trace
	g := d.Graph()
	levels, err := g.Levels()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s.levels = levels
	s.insts = make([]*instRT, g.NumNodes())
	for _, id := range g.NodeIDs() {
		rt := &instRT{
			id:      id,
			name:    g.Name(id),
			inputs:  make([]int64, g.NumIn(id)),
			prevIn:  make([]int64, g.NumIn(id)),
			outputs: make([]int64, g.NumOut(id)),
			outPrev: make([]int64, g.NumOut(id)),
			evalAt:  -1,
			sim:     s,
		}
		if g.Role(id) == graph.RoleInner {
			prog := d.Program(id)
			if prog == nil {
				return nil, fmt.Errorf("sim: inner block %q has no behavior program", rt.name)
			}
			compiled, err := compile(prog)
			if err != nil {
				return nil, fmt.Errorf("sim: compiling %q: %w", rt.name, err)
			}
			rt.machine = behavior.NewMachine(compiled)
			rt.inputs, rt.prevIn, rt.outputs = rt.machine.In, rt.machine.Prev, rt.machine.Out
			for _, pd := range prog.Params {
				if v, ok := d.Param(id, pd.Name); ok {
					rt.machine.SetParam(pd.Name, v)
				}
			}
		}
		s.insts[id] = rt
	}
	if err := s.settle(); err != nil {
		return nil, err
	}
	return s, nil
}

// settle performs the power-up pass: every compute block is evaluated
// once in topological order with its inputs pre-latched, so that no
// spurious edges fire at startup and all wires carry consistent values
// at t = 0.
func (s *Simulator) settle() error {
	g := s.design.Graph()
	order, err := g.TopoSort()
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	for _, id := range order {
		rt := s.insts[id]
		// Latch inputs from already-settled upstream outputs.
		for pin := 0; pin < g.NumIn(id); pin++ {
			if e := g.Driver(id, pin); e != nil {
				v := s.insts[e.From.Node].outputs[e.From.Pin]
				rt.inputs[pin] = v
				rt.prevIn[pin] = v // suppress startup edges
			}
		}
		if rt.machine != nil {
			if err := s.step(rt.machine, (*settleEnv)(rt)); err != nil {
				return fmt.Errorf("sim: settling %q: %w", rt.name, err)
			}
		}
	}
	return nil
}

// Stimulate schedules sensor stimuli. It rejects stimuli in the past or
// aimed at non-sensor blocks.
func (s *Simulator) Stimulate(stims ...Stimulus) error {
	g := s.design.Graph()
	for _, st := range stims {
		id := g.Lookup(st.Block)
		if id == graph.InvalidNode {
			return fmt.Errorf("sim: stimulus for unknown block %q", st.Block)
		}
		if g.Role(id) != graph.RolePrimaryInput {
			return fmt.Errorf("sim: stimulus target %q is not a sensor", st.Block)
		}
		if st.Time < s.now {
			return fmt.Errorf("sim: stimulus at %d ms is in the past (now %d ms)", st.Time, s.now)
		}
		s.queue.push(event{time: st.Time, kind: evStimulus, node: int(id), value: st.Value})
	}
	return nil
}

// Now returns the current simulation time in ms.
func (s *Simulator) Now() int64 { return s.now }

// Trace returns the accumulated change trace. With a custom sink
// installed (SetSink) the simulator no longer buffers changes, so the
// returned trace stays empty.
func (s *Simulator) Trace() *Trace { return &s.trace }

// SetSink replaces the trace sink: subsequent changes go to sink
// instead of the in-memory trace, so a long-horizon run's memory stays
// bounded by the sink's buffer. Install the sink before the first Run
// call; a nil sink restores the in-memory trace.
func (s *Simulator) SetSink(sink TraceSink) {
	if sink == nil {
		sink = &s.trace
	}
	s.sink = sink
}

// emit hands one change to the sink, charging the trace budget. A
// sink failure or an exhausted Config.MaxTraceEvents budget aborts the
// run with the returned error.
func (s *Simulator) emit(c Change) error {
	if s.cfg.MaxTraceEvents > 0 && s.emitted >= s.cfg.MaxTraceEvents {
		return &TraceLimitError{Time: s.now, MaxTraceEvents: s.cfg.MaxTraceEvents}
	}
	s.emitted++
	return s.sink.Append(c)
}

// EventsProcessed returns how many events the simulator has handled
// over its lifetime (the amount charged against Config.MaxEvents) —
// the throughput numerator for progress reporting.
func (s *Simulator) EventsProcessed() int { return s.processed }

// ChangesEmitted returns how many changes have been handed to the
// trace sink over the simulator's lifetime (the amount charged against
// Config.MaxTraceEvents).
func (s *Simulator) ChangesEmitted() int { return s.emitted }

// OutputValue returns the current value observed at a primary output
// block (the value on its single input pin).
func (s *Simulator) OutputValue(blockName string) (int64, error) {
	g := s.design.Graph()
	id := g.Lookup(blockName)
	if id == graph.InvalidNode {
		return 0, fmt.Errorf("sim: unknown block %q", blockName)
	}
	if g.Role(id) != graph.RolePrimaryOutput {
		return 0, fmt.Errorf("sim: block %q is not an output block", blockName)
	}
	return s.insts[id].inputs[0], nil
}

// PortValue returns the current latched value of any block's output
// port, for debugging and tests.
func (s *Simulator) PortValue(blockName, port string) (int64, error) {
	g := s.design.Graph()
	id := g.Lookup(blockName)
	if id == graph.InvalidNode {
		return 0, fmt.Errorf("sim: unknown block %q", blockName)
	}
	pin := s.design.Type(id).OutputPin(port)
	if pin < 0 {
		return 0, fmt.Errorf("sim: block %q has no output port %q", blockName, port)
	}
	return s.insts[id].outputs[pin], nil
}

// Run processes events until the queue is exhausted or the next event
// is later than `until` (exclusive); simulation time then advances to
// `until`. Run may be called repeatedly with increasing horizons.
// Exhausting the event budget fails with a *BudgetError.
func (s *Simulator) Run(until int64) error {
	return s.RunContext(context.Background(), until)
}

// ctxCheckInterval is how many events RunContext processes between
// context polls: frequent enough that a cancelled server request stops
// within microseconds, rare enough that the hot loop does not pay an
// atomic load per event.
const ctxCheckInterval = 256

// RunContext is Run with cooperative cancellation for server use: the
// context is polled every few hundred events, so a runaway (or merely
// long) simulation stops promptly when its request is cancelled or
// times out.
func (s *Simulator) RunContext(ctx context.Context, until int64) error {
	max := s.cfg.maxEvents()
	for s.queue.Len() > 0 && s.queue.peekTime() <= until {
		if s.processed >= max {
			return &BudgetError{Time: s.now, MaxEvents: max}
		}
		if s.processed%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("sim: cancelled at t=%d ms: %w", s.now, err)
			}
		}
		s.processed++
		ev := s.queue.pop()
		s.now = ev.time
		switch ev.kind {
		case evStimulus:
			if err := s.applyStimulus(ev); err != nil {
				return err
			}
		case evPacket:
			if err := s.deliverPacket(ev); err != nil {
				return err
			}
		case evTimer:
			if err := s.fireTimer(ev); err != nil {
				return err
			}
		case evEval:
			rt := s.insts[ev.node]
			fired := rt.pendingFired
			rt.evalAt = -1
			rt.pendingFired = nil
			if err := s.evaluate(rt, fired); err != nil {
				return err
			}
		}
	}
	if s.now < until {
		s.now = until
	}
	return nil
}

// RunToQuiescence processes all queued events regardless of horizon and
// returns the time of the last processed event.
func (s *Simulator) RunToQuiescence() (int64, error) {
	return s.RunToQuiescenceContext(context.Background())
}

// RunToQuiescenceContext is RunToQuiescence with cooperative
// cancellation (see RunContext).
func (s *Simulator) RunToQuiescenceContext(ctx context.Context) (int64, error) {
	for s.queue.Len() > 0 {
		if err := s.RunContext(ctx, s.queue.peekTime()); err != nil {
			return s.now, err
		}
	}
	return s.now, nil
}

func (s *Simulator) applyStimulus(ev event) error {
	rt := s.insts[ev.node]
	if rt.outputs[0] == ev.value {
		return nil
	}
	rt.outputs[0] = ev.value
	if s.cfg.TraceAll {
		if err := s.emit(Change{Time: s.now, Block: rt.name, Port: s.design.Type(rt.id).Outputs[0], Value: ev.value}); err != nil {
			return err
		}
	}
	s.emitPackets(rt.id, 0, ev.value)
	return nil
}

// emitPackets schedules delivery of a changed output value to every
// connected destination. In delta-cycle mode propagation is
// instantaneous and ordered by the destination's level; in packet mode
// it takes one wire delay, FIFO within a timestamp.
func (s *Simulator) emitPackets(from graph.NodeID, pin int, value int64) {
	delay := s.cfg.wireDelay()
	if s.cfg.DeltaCycles {
		delay = 0
	}
	for _, e := range s.design.Graph().OutEdges(from, pin) {
		s.queue.push(event{
			time:  s.now + delay,
			prio:  s.prio(e.To.Node),
			kind:  evPacket,
			node:  int(e.To.Node),
			pin:   e.To.Pin,
			value: value,
		})
	}
}

// prio returns the within-timestamp ordering key for events targeting a
// node: 0 in packet mode, the node's level in delta-cycle mode.
func (s *Simulator) prio(n graph.NodeID) int {
	if !s.cfg.DeltaCycles {
		return 0
	}
	return s.levels[n]
}

func (s *Simulator) deliverPacket(ev event) error {
	rt := s.insts[ev.node]
	rt.inputs[ev.pin] = ev.value
	g := s.design.Graph()
	if g.Role(rt.id) == graph.RolePrimaryOutput {
		// Primary outputs just observe; trace on change.
		if rt.prevIn[ev.pin] != ev.value {
			if err := s.emit(Change{Time: s.now, Block: rt.name, Port: s.design.Type(rt.id).Inputs[ev.pin], Value: ev.value}); err != nil {
				return err
			}
		}
		rt.prevIn[ev.pin] = ev.value
		return nil
	}
	if s.cfg.DeltaCycles {
		// Coalesce: evaluate once after all same-timestamp packets for
		// this block have been applied. Producers run at strictly lower
		// priority (level), so every packet for this block at this
		// timestamp is already queued before the eval event pops.
		s.scheduleEval(rt, nil)
		return nil
	}
	return s.evaluate(rt, nil)
}

func (s *Simulator) fireTimer(ev event) error {
	rt := s.insts[ev.node]
	if rt.machine == nil {
		return fmt.Errorf("sim: timer fired on non-compute block %q", rt.name)
	}
	if s.cfg.DeltaCycles {
		s.scheduleEval(rt, map[int]bool{ev.tag: true})
		return nil
	}
	return s.evaluate(rt, map[int]bool{ev.tag: true})
}

// scheduleEval queues (or merges into) the coalesced evaluation of rt
// at the current timestamp, accumulating fired timer tags.
func (s *Simulator) scheduleEval(rt *instRT, fired map[int]bool) {
	if rt.evalAt != s.now {
		rt.evalAt = s.now
		rt.pendingFired = map[int]bool{}
		s.queue.push(event{
			time: s.now,
			prio: s.prio(rt.id),
			kind: evEval,
			node: int(rt.id),
		})
	}
	for tag := range fired {
		rt.pendingFired[tag] = true
	}
}

// evaluate runs a compute block's behavior once, then propagates output
// changes and updates the previous-input snapshot used by edge
// detection.
func (s *Simulator) evaluate(rt *instRT, fired map[int]bool) error {
	rt.fired = fired // nil when no timer triggered this evaluation
	before := rt.outPrev
	copy(before, rt.outputs)
	// The step latches prevIn = inputs.
	if err := s.step(rt.machine, (*runEnv)(rt)); err != nil {
		return fmt.Errorf("sim: evaluating %q: %w", rt.name, err)
	}
	for pin, v := range rt.outputs {
		if v != before[pin] {
			if s.cfg.TraceAll {
				if err := s.emit(Change{Time: s.now, Block: rt.name, Port: s.design.Type(rt.id).Outputs[pin], Value: v}); err != nil {
					return err
				}
			}
			s.emitPackets(rt.id, pin, v)
		}
	}
	return nil
}

// --- behavior.Host implementations ---------------------------------

// runEnv adapts instRT to behavior.Host during normal evaluation.
type runEnv instRT

func (e *runEnv) Schedule(tag int, delay int64) {
	if delay < 1 {
		delay = 1
	}
	// The timer event carries the node's level priority (delta-cycle
	// mode), so a timer coinciding with same-timestamp input changes
	// pops after the producers have evaluated and their packets are
	// queued — the block then evaluates once, with fresh inputs and
	// the fired tag together. Without this, the timer's evaluation
	// popped before the packets applied, splitting the timestamp into
	// a stale-input evaluation plus a second one: semantics a merged
	// (single-block) program cannot reproduce, which broke trace
	// equivalence between a design and its synthesized counterpart.
	e.sim.queue.push(event{
		time: e.sim.now + delay,
		prio: e.sim.prio(e.id),
		kind: evTimer,
		node: int(e.id),
		tag:  tag,
	})
}

func (e *runEnv) TimerFired(tag int) bool { return e.fired != nil && e.fired[tag] }
func (e *runEnv) Now() int64              { return e.sim.now }

// settleEnv is the power-up host: identical to runEnv except that
// timers requested during settling are scheduled relative to t=0 and
// no timer flags are set.
type settleEnv instRT

func (e *settleEnv) Schedule(tag int, delay int64) { (*runEnv)(e).Schedule(tag, delay) }
func (e *settleEnv) TimerFired(tag int) bool       { return false }
func (e *settleEnv) Now() int64                    { return 0 }
