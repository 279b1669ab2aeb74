package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/block"
	"repro/internal/netlist"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/synth"
)

// The in-process replay gives the per-layer split of what the HTTP run
// measures as one worker round trip. Items are replayed in their HTTP
// order against a fresh store; each replayed op is a "replay" root with
// one child span per public call into a layer. Synthesis misses are
// also run stage by stage (a "pipeline" root) against a second fresh
// store wrapped in a timing synth.StageCache, which splits the
// pipeline into capture, fingerprint, partition, merge, emit and the
// store gets and puts between them.

// replayer holds the fresh in-process service and the pipeline store.
type replayer struct {
	svc       *service.Service
	st        *store.Store
	pipe      *store.Store
	adopted   int
	merged    int
	simEvents int // events of the traced simulate items' replays
}

func newReplayer(dir string) (*replayer, error) {
	d, err := os.MkdirTemp(dir, "replay-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(d+"/svc", store.Options{})
	if err != nil {
		return nil, err
	}
	pipe, err := store.Open(d+"/pipe", store.Options{})
	if err != nil {
		st.Close()
		return nil, err
	}
	return &replayer{svc: service.New(service.Config{Store: st}), st: st, pipe: pipe}, nil
}

func (r *replayer) close() {
	r.st.Close()
	r.pipe.Close()
}

// decode builds a design from its wire form, with the catalog and the
// decode as separate spans.
func decode(tr *tracer, parent, op int, raw json.RawMessage) (*netlist.Design, error) {
	var reg *block.Registry
	tr.do("block.catalog", parent, op, func(int) { reg = block.Standard() })
	var d *netlist.Design
	var err error
	tr.do("netlist.decode", parent, op, func(int) { d, err = netlist.UnmarshalJSON(raw, reg) })
	return d, err
}

// encode writes v the way the service's HTTP layer does (indented
// JSON).
func encode(tr *tracer, parent, op int, v any) {
	tr.do("service.encode", parent, op, func(int) {
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	})
}

// replay runs one item in-process; tr nil replays without recording
// (to rebuild cache state before the traced items).
func (r *replayer) replay(tr *tracer, op int, it item) error {
	root := tr.begin("replay", 0, op)
	defer tr.end(root)
	ctx := context.Background()
	svcSpan := func(name string, fn func() (service.Source, bool)) {
		id := tr.begin("service."+name, root, op)
		src, tiered := fn()
		tr.end(id)
		if tiered {
			tr.rename(id, "service."+name+"."+src.String())
		} else {
			tr.rename(id, "service."+name+".none")
		}
	}
	switch it.route {
	case "synthesize":
		var jr service.JSONRequest
		if err := json.Unmarshal(it.body, &jr); err != nil {
			return err
		}
		d, err := decode(tr, root, op, jr.Design)
		if err != nil {
			return err
		}
		var resp *service.Response
		var src service.Source
		svcSpan("synthesize", func() (service.Source, bool) {
			resp, src, err = r.svc.Synthesize(ctx, service.Request{Design: d})
			return src, true
		})
		if err != nil {
			return err
		}
		encode(tr, root, op, resp)
		if tr != nil && src == service.SourceMiss {
			return r.pipeline(tr, op, d)
		}
	case "verify":
		var jr service.VerifyJSONRequest
		if err := json.Unmarshal(it.body, &jr); err != nil {
			return err
		}
		d, err := decode(tr, root, op, jr.Design)
		if err != nil {
			return err
		}
		job := service.VerifyJob{Request: service.Request{Design: d}, Steps: jr.Steps, Seed: jr.Seed, SettleMillis: jr.SettleMillis, MaxEvents: jr.MaxEvents}
		if jr.Script != "" {
			if job.Stimuli, err = parseScript(tr, root, op, jr.Script); err != nil {
				return err
			}
		}
		var resp *service.VerifyResponse
		svcSpan("verify", func() (service.Source, bool) {
			var src service.Source
			resp, src, err = r.svc.Verify(ctx, job)
			return src, true
		})
		if err != nil {
			return err
		}
		encode(tr, root, op, resp)
	case "delta":
		var dr service.DeltaJSONRequest
		if err := json.Unmarshal(it.body, &dr); err != nil {
			return err
		}
		d, err := decode(tr, root, op, dr.Design)
		if err != nil {
			return err
		}
		var resp *service.Response
		svcSpan("delta", func() (service.Source, bool) {
			var src service.Source
			resp, _, src, err = r.svc.Delta(ctx, service.Request{Design: d}, dr.Edits)
			return src, true
		})
		if err != nil {
			return err
		}
		encode(tr, root, op, resp)
	case "batch":
		var br service.BatchRequest
		if err := json.Unmarshal(it.body, &br); err != nil {
			return err
		}
		reqs := make([]service.Request, len(br.Requests))
		for i, jr := range br.Requests {
			d, err := decode(tr, root, op, jr.Design)
			if err != nil {
				return err
			}
			reqs[i] = service.Request{Design: d}
		}
		var resps []*service.Response
		var err error
		svcSpan("batch", func() (service.Source, bool) {
			resps, err = r.svc.SynthesizeAll(ctx, reqs)
			return service.SourceMiss, false
		})
		if err != nil {
			return err
		}
		encode(tr, root, op, service.BatchResponse{Responses: resps})
	case "simulate":
		var jr service.SimulateJSONRequest
		if err := json.Unmarshal(it.body, &jr); err != nil {
			return err
		}
		d, err := decode(tr, root, op, jr.Design)
		if err != nil {
			return err
		}
		job := service.SimulateJob{Design: d, Until: jr.Until, Config: jr.Config}
		if jr.Script != "" {
			if job.Stimuli, err = parseScript(tr, root, op, jr.Script); err != nil {
				return err
			}
		}
		var resp *service.SimulateResponse
		svcSpan("simulate", func() (service.Source, bool) {
			resp, _, err = r.svc.Simulate(ctx, job)
			return service.SourceMiss, false
		})
		if err != nil {
			return err
		}
		encode(tr, root, op, resp)
		if tr != nil {
			return r.simulate(tr, op, job)
		}
	default:
		return fmt.Errorf("replay: unknown route %q", it.route)
	}
	return nil
}

func parseScript(tr *tracer, parent, op int, script string) ([]sim.Stimulus, error) {
	var st []sim.Stimulus
	var err error
	tr.do("sim.script_parse", parent, op, func(int) { st, err = sim.ParseScript(script) })
	return st, err
}

// simulate runs one buffered simulation again with the simulator's own
// calls as spans (a "simrun" root), the way the service runs it.
func (r *replayer) simulate(tr *tracer, op int, job service.SimulateJob) error {
	root := tr.begin("simrun", 0, op)
	defer tr.end(root)
	var sm *sim.Simulator
	var err error
	tr.do("sim.new", root, op, func(int) {
		sm, err = sim.New(job.Design, sim.Config{Compiled: true, TraceAll: job.Config.TraceAll, WireDelay: job.Config.WireDelay, DeltaCycles: job.Config.DeltaCycles})
		if err == nil {
			err = sm.Stimulate(job.Stimuli...)
		}
	})
	if err != nil {
		return err
	}
	tr.do("sim.run", root, op, func(int) {
		if job.Until > 0 {
			err = sm.Run(job.Until)
		} else {
			_, err = sm.RunToQuiescence()
		}
	})
	r.simEvents += sm.EventsProcessed()
	return err
}

// pipeline runs one synthesis stage by stage.
func (r *replayer) pipeline(tr *tracer, op int, d *netlist.Design) error {
	root := tr.begin("pipeline", 0, op)
	defer tr.end(root)
	var ca *synth.Captured
	var err error
	tr.do("synth.capture", root, op, func(int) { ca, err = synth.Capture(d, synth.Options{}) })
	if err != nil {
		return err
	}
	tr.do("netlist.fingerprint", root, op, func(int) { ca.StageKey(); ca.StructKey() })
	var pt *synth.Partitioned
	tr.do("synth.partition", root, op, func(id int) {
		pt, _, err = ca.PartitionCached(context.Background(), &timedStages{inner: service.StageCacheOver(r.pipe), st: r.pipe, tr: tr, parent: id, op: op})
	})
	if err != nil {
		return err
	}
	var mg *synth.Merged
	var ms synth.MergeStats
	tr.do("synth.merge", root, op, func(id int) {
		mg, ms, err = pt.MergeCached(&timedStages{inner: service.StageCacheOver(r.pipe), st: r.pipe, tr: tr, parent: id, op: op})
	})
	if err != nil {
		return err
	}
	r.adopted += ms.Adopted
	r.merged += ms.Adopted + ms.Recomputed
	var em *synth.Emitted
	tr.do("synth.emit", root, op, func(int) { em, err = mg.Emit() })
	if err != nil {
		return err
	}
	var resp *service.Response
	tr.do("service.new_response", root, op, func(int) { resp, err = service.NewResponse(em.Output(), ca) })
	if err != nil {
		return err
	}
	encode(tr, root, op, resp)
	return nil
}

// timedStages is a synth.StageCache over the store that records each
// get (named by the tier that answered it) and put as a span.
type timedStages struct {
	inner      synth.StageCache
	st         *store.Store
	tr         *tracer
	parent, op int
}

func (c *timedStages) GetStage(stage string, key synth.StageKey) ([]byte, bool) {
	before := c.st.Stats()
	id := c.tr.begin("store.get", c.parent, c.op)
	data, ok := c.inner.GetStage(stage, key)
	c.tr.end(id)
	after := c.st.Stats()
	tier := "miss"
	switch {
	case after.MemoryHits > before.MemoryHits:
		tier = "memory"
	case after.DiskHits > before.DiskHits:
		tier = "disk"
	case after.RemoteHits > before.RemoteHits:
		tier = "remote"
	}
	c.tr.rename(id, "store.get."+tier)
	return data, ok
}

func (c *timedStages) PutStage(stage string, key synth.StageKey, data []byte) {
	c.tr.do("store.put", c.parent, c.op, func(int) { c.inner.PutStage(stage, key, data) })
}

// replayLayers turns replay and pipeline spans into per-op layer
// metrics. ops is the number of replayed ops.
func replayLayers(m map[string]float64, lt map[string]*layerTime, ops int) {
	self := func(name string) float64 {
		if t := lt[name]; t != nil {
			return perOp(t.Self, ops)
		}
		return 0
	}
	m["block.catalog_ms"] = self("block.catalog")
	m["netlist.decode_ms"] = self("netlist.decode")
	m["netlist.fingerprint_ms"] = self("netlist.fingerprint")
	m["synth.capture_ms"] = self("synth.capture")
	m["synth.partition_ms"] = self("synth.partition")
	m["synth.merge_ms"] = self("synth.merge")
	m["synth.emit_ms"] = self("synth.emit") + self("service.new_response")
	m["service.encode_ms"] = self("service.encode")
	m["sim.script_parse_ms"] = self("sim.script_parse")
	m["store.put_ms"] = self("store.put")
	for _, t := range tiers {
		if lt["store.get."+t] != nil {
			m["store.get."+t+".calls"] = float64(lt["store.get."+t].Calls)
		}
		m["store.get."+t+"_ms"] = self("store.get." + t)
	}
	for name, t := range lt {
		if strings.HasPrefix(name, "service.") && strings.Count(name, ".") == 2 {
			m[name+".calls"] = float64(t.Calls)
			m[name+".self_ms"] = perOp(t.Self, ops)
		}
	}
}

// replayTotal sums the durations of the replay roots and the service
// layers under them, for the HTTP hop estimate.
func replayTotal(lt map[string]*layerTime) float64 {
	if t := lt["replay"]; t != nil {
		return t.Total
	}
	return 0
}

// layers for the serve workloads: the HTTP spans of the traced phase
// give the driver, router and remote-store layers; the replay gives the
// rest.
func (b *serveBench) serveLayers(tr *tracer, ph phase, replayFrom int) (map[string]float64, error) {
	m := map[string]float64{}
	httpSpans := tr.snapshot()
	lt := selfTimes(httpSpans)
	ops := len(ph.Lat) + ph.Failed

	var httpTotal, workerTotal, routerSelf float64
	var memory, tiered int
	for name, t := range lt {
		if !strings.HasPrefix(name, "http.") {
			continue
		}
		httpTotal += t.Total
		routerSelf += t.Self
		if strings.Count(name, ".") == 2 {
			tiered += t.Calls
			if strings.HasSuffix(name, ".memory") {
				memory += t.Calls
			}
		}
	}
	workerTotal = httpTotal
	if t := lt["router.worker_rt"]; t != nil {
		workerTotal = t.Total
		m["router.hop_ms"] = perOp(routerSelf, ops)
	}
	if tiered > 0 {
		m["service.memory_hit_ratio"] = float64(memory) / float64(tiered)
	}
	if t := lt["store.remote.get"]; t != nil {
		m["store.remote.get_ms"] = perOp(t.Total, ops)
	}
	if t := lt["store.remote.put"]; t != nil {
		m["store.remote.put_ms"] = perOp(t.Total, ops)
	}
	m["load.sent"] = float64(b.tracedTo - b.tracedFrom)
	if len(ph.Lag) > 0 {
		m["load.lag_p99_ms"] = ms(quantile(sortedCopy(ph.Lag), 0.99))
	}
	m["trace.reconcile_err"] = reconcileErr(lt, ph)

	// In-process replay of the same items, in order, on a fresh store.
	rp, err := newReplayer(b.cfg.dir)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	rtr := newTracer()
	for i := replayFrom; i < b.tracedTo; i++ {
		t := rtr
		if i < b.tracedFrom {
			t = nil
		}
		if err := rp.replay(t, i, b.items[i]); err != nil {
			return nil, fmt.Errorf("replaying op %d: %w", i, err)
		}
	}
	rl := selfTimes(rtr.snapshot())
	replayLayers(m, rl, ops)
	m["service.http_hop_ms"] = perOp(workerTotal-replayTotal(rl), ops)
	if rp.merged > 0 {
		m["synth.merge.adopted_ratio"] = float64(rp.adopted) / float64(rp.merged)
	}
	m["service.coalesced"] = float64(rp.svc.Stats().Coalesced)
	if t := rl["sim.run"]; t != nil {
		m["sim.run_ms"] = perOp(t.Self, ops)
		m["sim.events"] = float64(rp.simEvents)
		if t.Self > 0 {
			m["sim.events_per_s"] = float64(rp.simEvents) / (t.Self / 1000)
		}
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, renumber(rtr.snapshot(), len(tr.spans))...)
	tr.mu.Unlock()
	return m, nil
}

// renumber shifts a second tracer's span IDs past the first's so both
// dump into one file.
func renumber(spans []span, offset int) []span {
	out := make([]span, len(spans))
	for i, s := range spans {
		s.ID += offset
		if s.Parent != 0 {
			s.Parent += offset
		}
		out[i] = s
	}
	return out
}

// fleetLayers adds the router's and the remote tier's own counters.
func (b *serveBench) fleetLayers(m map[string]float64) {
	st := b.rt.Stats()
	m["router.retries"] = float64(st.Retries)
	var total, top uint64
	for _, s := range st.Shards {
		total += s.Requests
		top = max(top, s.Requests)
	}
	if total > 0 {
		m["router.shard_share_max"] = float64(top) / float64(total)
	}
	var fail uint64
	for _, r := range b.remotes {
		fail += r.Stats().Errors
	}
	m["store.remote.fail"] = float64(fail)
}

func (w *serveCold) layers(tr *tracer, ph phase) map[string]float64 {
	m, err := w.serveLayers(tr, ph, w.tracedFrom)
	if err != nil {
		m = map[string]float64{}
		w.ident.errs = append(w.ident.errs, err.Error())
	}
	w.fleetLayers(m)
	m["randgen.busy_ms"] = ms(w.genTime)
	return m
}

func (w *serveSteady) layers(tr *tracer, ph phase) map[string]float64 {
	m, err := w.serveLayers(tr, ph, 0)
	if err != nil {
		m = map[string]float64{}
		w.ident.errs = append(w.ident.errs, err.Error())
	}
	w.fleetLayers(m)
	return m
}

// layers for sim-stream: the HTTP spans give the stream latency; every
// job of the pool is replayed once in-process (the same ops the loop
// cycles through) with sim.New, the run between checkpoints, and each
// snapshot and its store put as spans.
func (w *simStream) layers(tr *tracer, ph phase) map[string]float64 {
	m := map[string]float64{}
	lt := selfTimes(tr.snapshot())
	ops := len(ph.Lat) + ph.Failed
	var httpTotal float64
	if t := lt["http.stream"]; t != nil {
		httpTotal = t.Total
	}
	m["trace.reconcile_err"] = reconcileErr(lt, ph)

	dir, err := os.MkdirTemp(w.cfg.dir, "simreplay-")
	if err != nil {
		return m
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return m
	}
	defer st.Close()
	rtr := newTracer()
	events := 0
	for j, job := range w.jobs {
		n, err := replayStream(rtr, st, j, job)
		if err != nil {
			w.errs = append(w.errs, fmt.Sprintf("replaying %s: %v", job.name, err))
			continue
		}
		events += n
	}
	rl := selfTimes(rtr.snapshot())
	jobs := len(w.jobs)
	replayLayers(m, rl, jobs)
	self := func(name string) float64 {
		if t := rl[name]; t != nil {
			return t.Self
		}
		return 0
	}
	m["sim.run_ms"] = perOp(self("sim.run"), jobs)
	m["sim.snapshot_ms"] = perOp(self("sim.snapshot"), jobs)
	m["sim.events"] = float64(events)
	if run := self("sim.run"); run > 0 {
		m["sim.events_per_s"] = float64(events) / (run / 1000)
	}
	m["service.stream_hop_ms"] = perOp(httpTotal, ops) - perOp(replayTotal(rl), jobs)
	m["service.stream.none.calls"] = float64(ops)
	m["service.stream.none.self_ms"] = perOp(replayTotal(rl), jobs)
	tr.mu.Lock()
	tr.spans = append(tr.spans, renumber(rtr.snapshot(), len(tr.spans))...)
	tr.mu.Unlock()
	return m
}

// replayStream runs one streamed job in-process the way the service's
// stream handler does: parse, build, stimulate, run to each checkpoint
// boundary, snapshot and persist, with an NDJSON sink. It returns the
// events processed.
func replayStream(tr *tracer, st *store.Store, op int, job simJob) (int, error) {
	root := tr.begin("replay", 0, op)
	defer tr.end(root)
	d, err := decode(tr, root, op, job.design)
	if err != nil {
		return 0, err
	}
	stims, err := parseScript(tr, root, op, job.script)
	if err != nil {
		return 0, err
	}
	var sm *sim.Simulator
	tr.do("sim.new", root, op, func(int) {
		sm, err = sim.New(d, sim.Config{TraceAll: true, Compiled: true})
		if err == nil {
			err = sm.Stimulate(stims...)
		}
	})
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	sink := sim.NewNDJSONSink(&buf, 0)
	sm.SetSink(sink)
	every := job.until / streamCheckpoints
	fp := netlist.Fingerprint(d)
	for b := every; ; b += every {
		if b > job.until {
			b = job.until
		}
		tr.do("sim.run", root, op, func(int) {
			err = sm.Run(b)
			if err == nil {
				err = sink.Flush()
			}
		})
		if err != nil {
			return 0, err
		}
		buf.Reset()
		var snap []byte
		tr.do("sim.snapshot", root, op, func(int) { snap, err = sm.Snapshot() })
		if err != nil {
			return 0, err
		}
		tr.do("store.put", root, op, func(int) {
			err = st.Put(store.Key{Fingerprint: fp, Constraints: fmt.Sprintf("replay|cycle=%d", b), Stage: sim.SnapshotMagic}, snap)
		})
		if err != nil {
			return 0, err
		}
		if b == job.until {
			break
		}
	}
	return sm.EventsProcessed(), nil
}
