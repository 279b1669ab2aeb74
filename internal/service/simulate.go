package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/block"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/synth"
)

// stageDesign names persisted design documents in the artifact store:
// the netlist JSON wire form keyed by the design's own fingerprint
// (Constraints and Algorithm empty — a design is upstream of both).
// Persisted designs let later requests name a design by content
// address ("fingerprint") instead of re-uploading it.
const stageDesign = "design.v1"

// SimulateJob names one simulation run: a design, a stimulus schedule,
// a horizon, and the simulator configuration.
type SimulateJob struct {
	// Design is the network to simulate.
	Design *netlist.Design
	// Stimuli is the schedule to apply (may be empty).
	Stimuli []sim.Stimulus
	// Until is the horizon in ms; 0 means run to quiescence.
	Until int64
	// Config tunes the simulator. MaxEvents is capped by the service's
	// Config.SimMaxEvents.
	Config sim.Config
}

// SimulateResponse is the wire form of a completed simulation: the
// schema shared by the eblocksd HTTP API and eblocksim -json.
type SimulateResponse struct {
	// Design is the simulated design's name; DesignHash its content
	// address (netlist.Fingerprint).
	Design     string `json:"design"`
	DesignHash string `json:"designHash"`
	// StimulusHash is the content address of the applied schedule
	// (synth.StimuliHash); StimuliCount its length.
	StimulusHash string `json:"stimulusHash"`
	StimuliCount int    `json:"stimuliCount"`
	// EndMillis is the simulation time reached.
	EndMillis int64 `json:"endMillis"`
	// Trace is the recorded change trace, a flat array of
	// {time, block, port, value} objects in time order.
	Trace *sim.Trace `json:"trace"`
	// Outputs maps every primary output block to its final value.
	Outputs map[string]int64 `json:"outputs"`
}

// capSimEvents applies the service-level event budget: a request may
// lower the budget beneath the server cap but never raise it above.
func (s *Service) capSimEvents(requested int) int {
	cap := s.cfg.SimMaxEvents
	if cap <= 0 {
		return requested
	}
	if requested <= 0 || requested > cap {
		return cap
	}
	return requested
}

// applySimDefaults normalizes a request's simulator configuration to
// service policy: the event budget is capped by Config.SimMaxEvents,
// and the evaluator is always the bytecode VM. Forcing Compiled is
// safe — it is excluded from Config.Canonical because the two
// evaluators produce identical traces — so requests cannot pick the
// slow path by accident.
func (s *Service) applySimDefaults(c sim.Config) sim.Config {
	c.MaxEvents = s.capSimEvents(c.MaxEvents)
	c.Compiled = true
	return c
}

// Simulate runs (or joins a concurrent identical run of) one
// simulation job. The bool reports whether this call coalesced onto
// another request's computation. The context gates admission and
// waiting; the computation itself runs detached, so a client
// disconnect cannot poison coalesced requests (the event budget
// bounds runaway simulations instead).
func (s *Service) Simulate(ctx context.Context, job SimulateJob) (*SimulateResponse, bool, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		s.stats.observeClass(time.Since(start), outcomeError, classSimulate)
		return nil, false, err
	}
	job.Config = s.applySimDefaults(job.Config)
	fp := netlist.Fingerprint(job.Design)
	stimHash := synth.StimuliHash(job.Stimuli)

	key := fmt.Sprintf("sim|%s|until=%d|%s|stim=%s", fp, job.Until, job.Config.Canonical(), stimHash)
	resp, coalesced, err := s.simGroup.Do(ctx, key, func() (*SimulateResponse, error) {
		return runSimulation(fp, stimHash, job)
	})

	// Fresh runs count as outcomeUncached, not misses: simulations are
	// outside the cache's scope (coalesced, never cached), and must
	// not depress the synthesis cache's hit rate in /v1/stats.
	o := outcomeUncached
	switch {
	case err != nil:
		o = outcomeError
	case coalesced:
		o = outcomeCoalesced
	}
	s.stats.observeClass(time.Since(start), o, classSimulate)
	return resp, coalesced, err
}

// runSimulation executes one simulation job to completion.
func runSimulation(fingerprint, stimulusHash string, job SimulateJob) (*SimulateResponse, error) {
	sm, err := sim.New(job.Design, job.Config)
	if err != nil {
		return nil, err
	}
	if err := sm.Stimulate(job.Stimuli...); err != nil {
		return nil, err
	}
	if job.Until > 0 {
		err = sm.Run(job.Until)
	} else {
		_, err = sm.RunToQuiescence()
	}
	if err != nil {
		return nil, err
	}
	g := job.Design.Graph()
	outputs := map[string]int64{}
	for _, id := range g.PrimaryOutputs() {
		name := g.Name(id)
		v, err := sm.OutputValue(name)
		if err != nil {
			return nil, err
		}
		outputs[name] = v
	}
	return &SimulateResponse{
		Design:       job.Design.Name,
		DesignHash:   fingerprint,
		StimulusHash: stimulusHash,
		StimuliCount: len(job.Stimuli),
		EndMillis:    sm.Now(),
		Trace:        sm.Trace(),
		Outputs:      outputs,
	}, nil
}

// PersistDesign writes the design document to the artifact store under
// its fingerprint (stage "design.v1") and returns that fingerprint.
// Write failures are swallowed like every other store write:
// persistence is an optimization, never a correctness dependency.
func (s *Service) PersistDesign(d *netlist.Design) string {
	fp := netlist.Fingerprint(d)
	if raw, err := netlist.MarshalJSON(d); err == nil {
		s.store.Put(designStoreKey(fp), raw)
	}
	return fp
}

// DesignByFingerprint loads a previously persisted design document by
// content address. It fails with ErrUnknownFingerprint when the store
// does not hold the fingerprint (never written, or evicted).
func (s *Service) DesignByFingerprint(fp string) (*netlist.Design, error) {
	raw, _, ok := s.store.Get(designStoreKey(fp))
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownFingerprint, fp)
	}
	d, err := netlist.UnmarshalJSON(raw, block.Standard())
	if err != nil {
		return nil, fmt.Errorf("service: decoding persisted design %s: %w", fp, err)
	}
	return d, nil
}

// ErrUnknownFingerprint reports a design-by-fingerprint request whose
// content address is not in the store; the HTTP layer maps it to 404.
var ErrUnknownFingerprint = errors.New("service: unknown design fingerprint")
