package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/synth"
)

// stageSimState names persisted simulator checkpoints in the artifact
// store: the sim.Snapshot wire form, keyed by
// fingerprint|config|stimulus-hash|cycle. stageSimIndex is the
// per-run checkpoint directory (the sorted cycle list) under the same
// key minus the cycle, which is how resume finds the nearest snapshot
// in an exact-key store.
const (
	stageSimState = sim.SnapshotMagic
	stageSimIndex = "simindex.v1"
)

// simStateKey addresses one persisted checkpoint.
func simStateKey(fp, cfgCanon, stimHash string, cycle int64) store.Key {
	return store.Key{
		Fingerprint: fp,
		Constraints: fmt.Sprintf("%s|stim=%s|cycle=%d", cfgCanon, stimHash, cycle),
		Stage:       stageSimState,
	}
}

// simIndexKey addresses a run's checkpoint directory.
func simIndexKey(fp, cfgCanon, stimHash string) store.Key {
	return store.Key{
		Fingerprint: fp,
		Constraints: fmt.Sprintf("%s|stim=%s", cfgCanon, stimHash),
		Stage:       stageSimIndex,
	}
}

// snapshotIndex is the simindex.v1 wire form: the cycles at which
// checkpoints of one (design, config, stimuli) run exist, sorted
// ascending.
//
//eblocks:wire simindex.v1 5e939c33
type snapshotIndex struct {
	Cycles []int64 `json:"cycles"`
}

// persistSnapshot writes one checkpoint and its index entry to the
// store, best-effort: any failure (store closed, write error) just
// reports false — checkpoint persistence must never fail a streaming
// run.
func (s *Service) persistSnapshot(fp, cfgCanon, stimHash string, cycle int64, snap []byte) bool {
	if err := s.store.Put(simStateKey(fp, cfgCanon, stimHash, cycle), snap); err != nil {
		return false
	}
	// Read-modify-write the cycle index. Concurrent identical runs can
	// race here; a lost update hides a checkpoint from resume, which is
	// only a efficiency loss (resume falls back to an earlier cycle).
	var idx snapshotIndex
	if raw, _, ok := s.store.Get(simIndexKey(fp, cfgCanon, stimHash)); ok {
		_ = json.Unmarshal(raw, &idx)
	}
	for _, c := range idx.Cycles {
		if c == cycle {
			return true
		}
	}
	idx.Cycles = append(idx.Cycles, cycle)
	sort.Slice(idx.Cycles, func(i, j int) bool { return idx.Cycles[i] < idx.Cycles[j] })
	if raw, err := json.Marshal(idx); err == nil {
		_ = s.store.Put(simIndexKey(fp, cfgCanon, stimHash), raw)
	}
	return true
}

// loadNearestSnapshot returns the persisted checkpoint with the
// largest cycle <= the requested cycle, consulting the simindex.v1
// directory (with an exact-cycle probe as fallback when the index was
// evicted).
func (s *Service) loadNearestSnapshot(fp, cfgCanon, stimHash string, cycle int64) ([]byte, int64, bool) {
	cycles := []int64{cycle}
	if raw, _, ok := s.store.Get(simIndexKey(fp, cfgCanon, stimHash)); ok {
		var idx snapshotIndex
		if json.Unmarshal(raw, &idx) == nil && len(idx.Cycles) > 0 {
			cycles = idx.Cycles
		}
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i] > cycles[j] })
	for _, c := range cycles {
		if c > cycle {
			continue
		}
		if raw, _, ok := s.store.Get(simStateKey(fp, cfgCanon, stimHash, c)); ok {
			return raw, c, true
		}
	}
	return nil, 0, false
}

// StreamRecord is the wire form of the control records interleaved
// into an NDJSON simulate stream. Change records are raw sim.Change
// documents ({time, block, port, value}, the trace wire form) and
// carry no "type" key; every control record does:
//
//	start      — stream accepted: design identity, horizon, evaluator
//	resumed    — resume accepted: the cycle actually restored from
//	progress   — periodic heartbeat: sim time, event/change totals
//	checkpoint — a snapshot cycle passed; stored says whether it
//	             was persisted (false = store closed or failing)
//	done       — run finished: end time, totals, final outputs
//	error      — run aborted; budget/traceLimit carry the typed cause
type StreamRecord struct {
	Type string `json:"type"`
	// Design/Fingerprint/StimulusHash identify the run (start/resumed).
	Design       string `json:"design,omitempty"`
	Fingerprint  string `json:"fingerprint,omitempty"`
	StimulusHash string `json:"stimulusHash,omitempty"`
	// Compiled reports the evaluator mode (start/resumed).
	Compiled bool `json:"compiled,omitempty"`
	// Until is the run's horizon in ms (start/resumed).
	Until int64 `json:"until,omitempty"`
	// Time is the simulation time reached (progress).
	Time int64 `json:"time,omitempty"`
	// Cycle is the checkpoint's cycle (checkpoint/resumed);
	// RequestedCycle echoes what the resume request asked for.
	Cycle          int64 `json:"cycle,omitempty"`
	RequestedCycle int64 `json:"requestedCycle,omitempty"`
	// Stored says whether a checkpoint reached the store (checkpoint).
	Stored *bool `json:"stored,omitempty"`
	// Events/Changes are lifetime totals (progress/done).
	Events  int `json:"events,omitempty"`
	Changes int `json:"changes,omitempty"`
	// EndMillis/Outputs mirror SimulateResponse (done).
	EndMillis int64            `json:"endMillis,omitempty"`
	Outputs   map[string]int64 `json:"outputs,omitempty"`
	// Error describes an aborted run; Budget/TraceLimit carry the
	// typed cause when the event or trace budget was exhausted.
	Error      string               `json:"error,omitempty"`
	Budget     *sim.BudgetError     `json:"budget,omitempty"`
	TraceLimit *sim.TraceLimitError `json:"traceLimit,omitempty"`
}

// primaryOutputs reads every primary output block's final value.
func primaryOutputs(d *netlist.Design, sm *sim.Simulator) map[string]int64 {
	g := d.Graph()
	outputs := map[string]int64{}
	for _, id := range g.PrimaryOutputs() {
		if v, err := sm.OutputValue(g.Name(id)); err == nil {
			outputs[g.Name(id)] = v
		}
	}
	return outputs
}

// streamJob is one streaming run's parameters.
type streamJob struct {
	design          *netlist.Design
	fp, stimHash    string
	cfg             sim.Config
	until           int64
	checkpointEvery int64
	progressEvery   int64
}

// defaultProgressEvery is the heartbeat interval in simulation
// milliseconds when the request does not set one. Progress records are
// sliced by simulation time, not wall clock, so streams are
// deterministic and testable.
const defaultProgressEvery = 1000

// streamIntervals parses checkpointEvery/progressEvery query params.
func streamIntervals(r *http.Request) (checkpointEvery, progressEvery int64, err error) {
	parse := func(name string, def int64) (int64, error) {
		raw := r.URL.Query().Get(name)
		if raw == "" {
			return def, nil
		}
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 0 {
			return 0, fmt.Errorf("invalid %s=%q: want a non-negative integer (ms of simulation time)", name, raw)
		}
		return v, nil
	}
	if checkpointEvery, err = parse("checkpointEvery", 0); err != nil {
		return 0, 0, err
	}
	progressEvery, err = parse("progressEvery", defaultProgressEvery)
	return checkpointEvery, progressEvery, err
}

// streamRun drives one simulator over an NDJSON response: changes flow
// through a bounded sink, control records are interleaved at
// deterministic simulation-time boundaries, and checkpoints are
// persisted best-effort. The client's context cancels the run (the
// disconnect path); errors after the first byte arrive as an "error"
// record since the status line is already on the wire.
func (s *Service) streamRun(ctx context.Context, w http.ResponseWriter, sm *sim.Simulator, job streamJob, first StreamRecord) {
	start := time.Now()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	writeRec := func(rec StreamRecord) {
		if b, err := json.Marshal(rec); err == nil {
			w.Write(append(b, '\n'))
		}
	}
	writeRec(first)
	flush()

	sink := sim.NewNDJSONSink(w, 0)
	sm.SetSink(sink)
	cfgCanon := job.cfg.Canonical()

	// nextMultiple returns the first multiple of every past now,
	// clamped to the horizon; 0 disables the boundary.
	nextMultiple := func(every, now int64) int64 {
		if every <= 0 {
			return job.until
		}
		n := (now/every + 1) * every
		if n > job.until {
			return job.until
		}
		return n
	}

	var runErr error
	for sm.Now() < job.until && runErr == nil {
		now := sm.Now()
		bCk := nextMultiple(job.checkpointEvery, now)
		bPg := nextMultiple(job.progressEvery, now)
		b := bCk
		if bPg < b {
			b = bPg
		}
		runErr = sm.RunContext(ctx, b)
		if err := sink.Flush(); err != nil && runErr == nil {
			runErr = err
		}
		if runErr != nil {
			break
		}
		if job.checkpointEvery > 0 && b == bCk {
			stored := false
			if snap, err := sm.Snapshot(); err == nil {
				stored = s.persistSnapshot(job.fp, cfgCanon, job.stimHash, b, snap)
			}
			if stored {
				s.stats.observeSnapshotSave()
			}
			st := stored
			writeRec(StreamRecord{Type: "checkpoint", Cycle: b, Stored: &st})
		}
		if job.progressEvery > 0 && b == bPg {
			writeRec(StreamRecord{Type: "progress", Time: b, Events: sm.EventsProcessed(), Changes: sm.ChangesEmitted()})
		}
		flush()
	}

	if runErr != nil {
		rec := StreamRecord{Type: "error", Error: runErr.Error()}
		var be *sim.BudgetError
		if errors.As(runErr, &be) {
			rec.Budget = be
		}
		var tle *sim.TraceLimitError
		if errors.As(runErr, &tle) {
			rec.TraceLimit = tle
		}
		writeRec(rec)
	} else {
		writeRec(StreamRecord{
			Type:      "done",
			EndMillis: sm.Now(),
			Events:    sm.EventsProcessed(),
			Changes:   sm.ChangesEmitted(),
			Outputs:   primaryOutputs(job.design, sm),
		})
	}
	flush()

	s.stats.observeStream(sink.Count())
	o := outcomeUncached
	if runErr != nil {
		o = outcomeError
	}
	s.stats.observeClass(time.Since(start), o, classSimulate)
}

// handleSimulateStream serves POST /v1/simulate?stream=ndjson: the
// trace arrives incrementally as NDJSON change records with periodic
// progress heartbeats, with ?checkpointEvery=N persisting simstate.v1
// snapshots every N ms of simulation time. Streamed runs are not
// coalesced — every client needs its own byte stream.
func (s *Service) handleSimulateStream(w http.ResponseWriter, r *http.Request, jr SimulateJSONRequest) {
	job, fp, err := jr.toJob(s)
	if err != nil {
		writeResolveError(w, err)
		return
	}
	job.Config = s.applySimDefaults(job.Config)
	if job.Until <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("streaming requires an explicit horizon: set \"until\" > 0"))
		return
	}
	ck, pg, err := streamIntervals(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sm, err := job.simulator()
	if err != nil {
		writeSimError(w, err)
		return
	}
	stimHash := synth.StimuliHash(job.Stimuli)
	s.streamRun(r.Context(), w, sm, streamJob{
		design:          job.Design,
		fp:              fp,
		stimHash:        stimHash,
		cfg:             job.Config,
		until:           job.Until,
		checkpointEvery: ck,
		progressEvery:   pg,
	}, StreamRecord{
		Type:         "start",
		Design:       job.Design.Name,
		Fingerprint:  fp,
		StimulusHash: stimHash,
		Compiled:     job.Config.Compiled,
		Until:        job.Until,
	})
}

// ResumeJSONRequest is the wire form of POST /v1/simulate/resume:
// continue a checkpointed run from the nearest persisted snapshot at
// or before Cycle. Fingerprint names a persisted design; Script and
// Config must match the original run (they are part of the snapshot
// key) — the script is hashed for addressing, never re-applied, since
// the pending stimuli ride inside the snapshot. The response streams
// NDJSON from the restored cycle to Until.
type ResumeJSONRequest struct {
	Fingerprint string `json:"fingerprint"`
	// Cycle is the resume point: the run continues from the nearest
	// snapshot at or before it.
	Cycle int64 `json:"cycle"`
	// Until is the new horizon; must exceed the restored cycle.
	Until  int64      `json:"until"`
	Script string     `json:"script,omitempty"`
	Config sim.Config `json:"config"`
}

// handleSimulateResume serves POST /v1/simulate/resume.
func (s *Service) handleSimulateResume(w http.ResponseWriter, r *http.Request) {
	var jr ResumeJSONRequest
	if !decodeInto(w, r, &jr) {
		return
	}
	if jr.Fingerprint == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("resume requires \"fingerprint\" (a persisted design's content address)"))
		return
	}
	d, err := s.DesignByFingerprint(jr.Fingerprint)
	if err != nil {
		writeResolveError(w, err)
		return
	}
	var stimuli []sim.Stimulus
	if jr.Script != "" {
		if stimuli, err = sim.ParseScript(jr.Script); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	ck, pg, err := streamIntervals(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cfg := s.applySimDefaults(jr.Config)
	stimHash := synth.StimuliHash(stimuli)
	snap, at, ok := s.loadNearestSnapshot(jr.Fingerprint, cfg.Canonical(), stimHash, jr.Cycle)
	s.stats.observeSnapshotLookup(ok)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no %s snapshot at or before cycle %d for this run", stageSimState, jr.Cycle))
		return
	}
	sm, err := sim.Restore(d, cfg, snap)
	if err != nil {
		writeSimError(w, err)
		return
	}
	if jr.Until <= at {
		writeError(w, http.StatusBadRequest, fmt.Errorf("\"until\" (%d) must exceed the restored cycle (%d)", jr.Until, at))
		return
	}
	s.streamRun(r.Context(), w, sm, streamJob{
		design:          d,
		fp:              jr.Fingerprint,
		stimHash:        stimHash,
		cfg:             cfg,
		until:           jr.Until,
		checkpointEvery: ck,
		progressEvery:   pg,
	}, StreamRecord{
		Type:           "resumed",
		Design:         d.Name,
		Fingerprint:    jr.Fingerprint,
		StimulusHash:   stimHash,
		Compiled:       cfg.Compiled,
		Cycle:          at,
		RequestedCycle: jr.Cycle,
		Until:          jr.Until,
	})
}

// handleSimulateVCD serves POST /v1/simulate?format=vcd by running the
// simulation with the incremental VCD writer as its live trace sink:
// the document streams out in bounded memory instead of materializing
// the trace first. The signal universe is derived from the design
// upfront (sim.DesignSignals), which the header requires before any
// change is seen. A run failing mid-stream appends a $comment record —
// the status line is already on the wire.
func (s *Service) handleSimulateVCD(w http.ResponseWriter, r *http.Request, jr SimulateJSONRequest) {
	start := time.Now()
	job, _, err := jr.toJob(s)
	if err != nil {
		writeResolveError(w, err)
		return
	}
	job.Config = s.applySimDefaults(job.Config)
	sm, err := job.simulator()
	if err != nil {
		writeSimError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	vw, err := sim.NewVCDWriter(w, job.Design.Name, sim.DesignSignals(job.Design, job.Config.TraceAll))
	if err != nil {
		return
	}
	sm.SetSink(vw)
	err = job.run(r.Context(), sm)
	vw.Flush()
	if err != nil {
		fmt.Fprintf(w, "$comment aborted: %s $end\n", err)
	}

	s.stats.observeStream(uint64(sm.ChangesEmitted()))
	o := outcomeUncached
	if err != nil {
		o = outcomeError
	}
	s.stats.observeClass(time.Since(start), o, classSimulate)
}
