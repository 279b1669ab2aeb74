package synth

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// VerifyOptions tune the equivalence check.
type VerifyOptions struct {
	// Stimuli to replay on both designs. When nil, RandomStimuli is
	// used with the given Seed/Steps.
	Stimuli []sim.Stimulus
	// Steps is the number of random stimulus events when Stimuli is
	// nil (default 40).
	Steps int
	// Seed for random stimulus generation (default 1).
	Seed int64
	// SettleMillis is the quiet period after each stimulus before
	// outputs are compared (default 100 ms; must exceed the design's
	// depth times the wire delay, and any active timer windows are
	// given this long to coincide).
	SettleMillis int64
	// MaxEvents bounds each underlying simulation run (see
	// sim.Config.MaxEvents); 0 means the simulator default. An
	// exhausted budget surfaces as a *sim.BudgetError. The budget
	// never affects which outcome a successful verification produces,
	// so it is excluded from the verification cache key.
	MaxEvents int
	// Ctx, when non-nil, cancels the underlying simulations
	// cooperatively — the server-use knob, mirroring core.Options.Ctx.
	Ctx context.Context

	// stimHash is StimuliHash(Stimuli), computed once by Resolved.
	stimHash string
}

func (v VerifyOptions) steps() int {
	if v.Steps <= 0 {
		return 40
	}
	return v.Steps
}

func (v VerifyOptions) seed() int64 {
	if v.Seed == 0 {
		return 1
	}
	return v.Seed
}

func (v VerifyOptions) settle() int64 {
	if v.SettleMillis <= 0 {
		return 100
	}
	return v.SettleMillis
}

func (v VerifyOptions) ctx() context.Context {
	if v.Ctx == nil {
		return context.Background()
	}
	return v.Ctx
}

// Resolved returns a copy of the options with the stimulus schedule
// materialized against d — a nil Stimuli is replaced by the
// deterministic random schedule Verify would generate from
// Steps/Seed/SettleMillis — and its content hash (ScheduleHash)
// computed. Resolving first makes the verification cache key
// (VerifyStageKey) depend only on the concrete schedule, never on how
// it was specified. Resolving resolved options returns them unchanged,
// so a verification hashes its schedule once however many stages ask
// for the key; set Stimuli only on unresolved options.
func (v VerifyOptions) Resolved(d *netlist.Design) VerifyOptions {
	if v.stimHash != "" {
		return v
	}
	if v.Stimuli == nil {
		v.Stimuli = RandomStimuli(d, v.steps(), v.settle(), v.seed())
	}
	v.stimHash = StimuliHash(v.Stimuli)
	return v
}

// ScheduleHash returns StimuliHash(v.Stimuli) as Resolved computed
// it; it is empty on unresolved options.
func (v VerifyOptions) ScheduleHash() string { return v.stimHash }

// Mismatch describes one disagreement between the two designs. The
// JSON field names are part of both the service wire schema and the
// persisted Verified-stage artifact.
type Mismatch struct {
	Time     int64  `json:"time"`
	Output   string `json:"output"`
	Original int64  `json:"original"`
	Synth    int64  `json:"synthesized"`
}

// String summarizes the mismatch for logs and error messages.
func (m Mismatch) String() string {
	return fmt.Sprintf("t=%dms output %q: original=%d synthesized=%d", m.Time, m.Output, m.Original, m.Synth)
}

// RandomStimuli builds a reproducible random stimulus schedule for the
// design's sensors: one sensor toggles per step, spaced `spacing` ms
// apart starting at t=spacing.
func RandomStimuli(d *netlist.Design, steps int, spacing int64, seed int64) []sim.Stimulus {
	rng := rand.New(rand.NewSource(seed))
	g := d.Graph()
	sensors := g.PrimaryInputs()
	if len(sensors) == 0 {
		return nil
	}
	level := make(map[graph.NodeID]int64, len(sensors))
	out := make([]sim.Stimulus, 0, steps)
	for i := 0; i < steps; i++ {
		s := sensors[rng.Intn(len(sensors))]
		level[s] ^= 1
		out = append(out, sim.Stimulus{
			Time:  spacing * int64(i+1),
			Block: g.Name(s),
			Value: level[s],
		})
	}
	return out
}

// Verify replays the same stimuli on the original and synthesized
// designs and compares every primary output at each settle point (just
// before the next stimulus, and once after the final one). It returns
// all mismatches found (empty means behaviorally equivalent on this
// schedule).
//
// This realizes the verification story of the paper's tool chain: the
// simulator is the arbiter of behavioral correctness for synthesized
// networks.
func Verify(original, synthesized *netlist.Design, opts VerifyOptions) ([]Mismatch, error) {
	stimuli := opts.Stimuli
	if stimuli == nil {
		stimuli = RandomStimuli(original, opts.steps(), opts.settle(), opts.seed())
	}
	// Delta-cycle semantics make the comparison exact: zero-delay,
	// level-ordered, glitch-free evaluation means two functionally
	// equal networks with different structural depths (an original
	// design and its synthesized counterpart) cannot diverge through
	// combinational path skew. The paper's model explicitly abstracts
	// such timing away (Section 3.1). Both run on the bytecode VM, the
	// one production evaluator; the outcome cannot depend on it, since
	// the property tests hold the VM equal to the interpreter.
	cfg := sim.Config{DeltaCycles: true, MaxEvents: opts.MaxEvents, Compiled: true}
	so, err := sim.New(original, cfg)
	if err != nil {
		return nil, fmt.Errorf("synth: verify: original: %w", err)
	}
	ss, err := sim.New(synthesized, cfg)
	if err != nil {
		return nil, fmt.Errorf("synth: verify: synthesized: %w", err)
	}
	if err := so.Stimulate(stimuli...); err != nil {
		return nil, err
	}
	if err := ss.Stimulate(stimuli...); err != nil {
		return nil, err
	}

	outputs := make([]string, 0)
	g := original.Graph()
	for _, id := range g.PrimaryOutputs() {
		outputs = append(outputs, g.Name(id))
	}
	gs := synthesized.Graph()
	for _, name := range outputs {
		if gs.Lookup(name) == graph.InvalidNode {
			return nil, fmt.Errorf("synth: verify: synthesized design lost output block %q", name)
		}
	}

	ctx := opts.ctx()
	var mismatches []Mismatch
	check := func(t int64) error {
		if err := so.RunContext(ctx, t); err != nil {
			return err
		}
		if err := ss.RunContext(ctx, t); err != nil {
			return err
		}
		for _, name := range outputs {
			vo, err := so.OutputValue(name)
			if err != nil {
				return err
			}
			vs, err := ss.OutputValue(name)
			if err != nil {
				return err
			}
			if vo != vs {
				mismatches = append(mismatches, Mismatch{Time: t, Output: name, Original: vo, Synth: vs})
			}
		}
		return nil
	}

	for i := range stimuli {
		// Sample just before the next stimulus fires.
		var horizon int64
		if i+1 < len(stimuli) {
			horizon = stimuli[i+1].Time - 1
		} else {
			horizon = stimuli[i].Time + opts.settle()
		}
		if err := check(horizon); err != nil {
			return nil, err
		}
	}
	// Drain any remaining timers and compare the final steady state.
	to, err := so.RunToQuiescenceContext(ctx)
	if err != nil {
		return nil, err
	}
	ts, err := ss.RunToQuiescenceContext(ctx)
	if err != nil {
		return nil, err
	}
	final := to
	if ts > final {
		final = ts
	}
	if err := check(final + 1); err != nil {
		return nil, err
	}
	return mismatches, nil
}
