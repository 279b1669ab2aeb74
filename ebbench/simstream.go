package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/synth"
)

// Stream job shape: a seeded script of streamEvents sensor changes
// spaced 50-450 ms apart, run to a fixed horizon with every block
// output traced, streamCheckpoints snapshots (the last at the horizon)
// and a progress record every 1/streamProgress of the horizon. Every
// snapshot put is fsynced; one per job keeps the shared disk's latency
// from dominating the job time.
const (
	streamEvents      = 1000
	streamCheckpoints = 1
	streamProgress    = 8
)

// simJob is one pre-built streamed simulation.
type simJob struct {
	name    string
	design  json.RawMessage
	script  string
	until   int64
	path    string
	body    []byte
	synthed bool // the synthesized network rather than the library design
}

type simStream struct {
	cfg    *config
	jobs   []simJob
	next   int
	st     *store.Store
	srv    *server
	client *http.Client
	// streams keeps the first streamed body of each job for the oracle
	// check.
	streams map[int][]byte
	errs    []string // replay failures, reported by check
}

// newSimStream starts one worker with a disk store (snapshot puts),
// synthesizes every library design in-process, and builds two jobs per
// design: the design itself and its synthesized network.
func newSimStream(cfg *config) (workload, error) {
	jobs, err := simJobs(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	w := &simStream{cfg: cfg, jobs: jobs, client: newClient(), streams: map[int][]byte{}}
	dir, err := os.MkdirTemp(cfg.dir, "sim-")
	if err != nil {
		return nil, err
	}
	if w.st, err = store.Open(dir, store.Options{}); err != nil {
		return nil, err
	}
	if w.srv, err = serve(service.New(service.Config{Store: w.st}).Handler()); err != nil {
		w.st.Close()
		return nil, err
	}
	return w, nil
}

// simJobs builds two jobs per library design — the design and its
// synthesized network — each with its own seeded script, in a seeded
// order.
func simJobs(seed int64, scale float64) ([]simJob, error) {
	rng := rand.New(rand.NewSource(seed))
	lib := designs.Library()
	if scale < 1 {
		lib = lib[:4]
	}
	events := scaled(streamEvents, scale)
	var jobs []simJob
	for _, e := range lib {
		d := e.Build()
		em, err := synth.Run(context.Background(), d, synth.Options{})
		if err != nil {
			return nil, fmt.Errorf("synthesizing %s: %w", e.Name, err)
		}
		for _, v := range []struct {
			d       *netlist.Design
			synthed bool
		}{{d, false}, {em.Synthesized, true}} {
			raw, err := netlist.MarshalJSON(v.d)
			if err != nil {
				return nil, err
			}
			script, until := stimulusScript(rng, v.d, events)
			job := simJob{name: v.d.Name, design: raw, script: script, until: until, synthed: v.synthed}
			job.path = fmt.Sprintf("/v1/simulate?stream=ndjson&checkpointEvery=%d&progressEvery=%d", until/streamCheckpoints, until/streamProgress)
			job.body, err = json.Marshal(service.SimulateJSONRequest{
				Design: raw, Script: script, Until: until, Config: sim.Config{TraceAll: true},
			})
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, job)
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs, nil
}

// stimulusScript builds a seeded script toggling the design's sensors;
// the horizon leaves the last change time to settle.
func stimulusScript(rng *rand.Rand, d *netlist.Design, events int) (string, int64) {
	g := d.Graph()
	var sensors []string
	for _, id := range d.Sensors() {
		sensors = append(sensors, g.Name(id))
	}
	sort.Strings(sensors)
	var b strings.Builder
	t := int64(0)
	for e := 0; e < events; e++ {
		t += int64(50 + rng.Intn(400))
		fmt.Fprintf(&b, "at %d set %s %d\n", t, sensors[rng.Intn(len(sensors))], rng.Intn(2))
	}
	return b.String(), t + 1000
}

func (w *simStream) close() {
	w.srv.close()
	w.st.Close()
	w.client.CloseIdleConnections()
}

// measure streams jobs closed-loop on `clients` connections; job
// indices wrap around the pool.
func (w *simStream) measure(d time.Duration, tr *tracer) phase {
	ph := phase{Start: time.Now()}
	var mu sync.Mutex
	rt := readRuntime()
	stop := ph.Start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				mu.Lock()
				op := w.next
				w.next++
				mu.Unlock()
				j := op % len(w.jobs)
				job := w.jobs[j]
				t0 := time.Now()
				root := tr.beginAt("op", t0, 0, op)
				r, err := post(context.Background(), w.client, w.srv.url+job.path, job.body, tr, "stream", root, op)
				lat := time.Since(t0)
				tr.end(root)
				if err == nil {
					err = streamShape(r)
				}
				mu.Lock()
				if err != nil {
					ph.fail("op %d %s: %v", op, job.name, err)
				} else {
					ph.ok(lat, time.Now())
					ph.First = append(ph.First, r.first)
					if _, ok := w.streams[j]; !ok {
						w.streams[j] = r.body
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.Elapsed = time.Since(ph.Start)
	ph.since(rt)
	return ph
}

// streamShape checks a stream's framing: 200, a start record first, a
// done record last.
func streamShape(r reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	body := bytes.TrimRight(r.body, "\n")
	firstNL := bytes.IndexByte(body, '\n')
	lastNL := bytes.LastIndexByte(body, '\n')
	if firstNL < 0 || !bytes.HasPrefix(body, []byte(`{"type":"start"`)) || !bytes.HasPrefix(body[lastNL+1:], []byte(`{"type":"done"`)) {
		return fmt.Errorf("stream does not run from a start record to a done record")
	}
	return nil
}

// check replays every job that streamed on the tree-walking
// interpreter (Compiled: false), an evaluator independent of the VM
// the service runs, and compares its buffered trace with the streamed
// change records.
func (w *simStream) check() []string {
	errs := append([]string(nil), w.errs...)
	idx := make([]int, 0, len(w.streams))
	for j := range w.streams {
		idx = append(idx, j)
	}
	sort.Ints(idx)
	for _, j := range idx {
		if err := w.checkStream(w.jobs[j], w.streams[j]); err != nil {
			errs = append(errs, fmt.Sprintf("%s (synthesized %t): %v", w.jobs[j].name, w.jobs[j].synthed, err))
		}
	}
	if len(idx) == 0 {
		errs = append(errs, "no stream completed")
	}
	return errs
}

func (w *simStream) checkStream(job simJob, body []byte) error {
	var got []sim.Change
	for _, line := range bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n")) {
		if bytes.HasPrefix(line, []byte(`{"type"`)) {
			if bytes.HasPrefix(line, []byte(`{"type":"error"`)) {
				return fmt.Errorf("stream error record: %s", line)
			}
			continue
		}
		var c sim.Change
		if err := json.Unmarshal(line, &c); err != nil {
			return fmt.Errorf("change record %q: %w", line, err)
		}
		got = append(got, c)
	}
	want, _, err := oracleTrace(job)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("streamed %d changes, interpreter traced %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("change %d: streamed %+v, interpreter %+v", i, got[i], want[i])
		}
	}
	return nil
}

// oracleTrace runs a job on the interpreter with a buffered trace.
func oracleTrace(job simJob) ([]sim.Change, int, error) {
	d, err := netlist.UnmarshalJSON(job.design, block.Standard())
	if err != nil {
		return nil, 0, err
	}
	stims, err := sim.ParseScript(job.script)
	if err != nil {
		return nil, 0, err
	}
	sm, err := sim.New(d, sim.Config{TraceAll: true, Compiled: false})
	if err != nil {
		return nil, 0, err
	}
	if err := sm.Stimulate(stims...); err != nil {
		return nil, 0, err
	}
	if err := sm.Run(job.until); err != nil {
		return nil, 0, err
	}
	return sm.Trace().All(), sm.EventsProcessed(), nil
}

func (w *simStream) extra() []metric {
	return nil
}
