package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced call into a layer: {name, start, end, parent, op}.
// Times are offsets from the tracer's epoch; Parent is the ID of the
// enclosing span (0 for a root) and Op the workload op it served (-1
// when the seam that recorded it cannot tell).
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// valid and records nothing, so the untraced phase pays one nil check
// per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() float64 { return ms(time.Since(t.epoch)) }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	return t.beginAt(name, time.Now(), parent, op)
}

// beginAt opens a span that started at a known time.
func (t *tracer) beginAt(name string, at time.Time, parent, op int) int {
	if t == nil {
		return 0
	}
	start := ms(at.Sub(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: start, End: -1, Parent: parent, Op: op})
	return len(t.spans)
}

// add records a span whose interval is already known (e.g. a queue
// wait that began at a request's due time).
func (t *tracer) add(name string, start, end time.Time, parent, op int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: ms(start.Sub(t.epoch)), End: ms(end.Sub(t.epoch)), Parent: parent, Op: op})
	return len(t.spans)
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// rename relabels an open span once its outcome (e.g. the cache tier
// that served it) is known.
func (t *tracer) rename(id int, name string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Name = name
	t.mu.Unlock()
}

// do wraps fn in a span.
func (t *tracer) do(name string, parent, op int, fn func(id int)) {
	id := t.begin(name, parent, op)
	fn(id)
	t.end(id)
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// layerTime is one span name's totals.
type layerTime struct {
	Calls int
	Total float64 // ms, sum of span durations
	Self  float64 // ms, sum of span durations minus their children's cover
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval that its children cover
// (overlapping children are merged, and clipped to the parent).
func selfTimes(spans []span) map[string]*layerTime {
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if _, ok := byID[s.Parent]; ok {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := map[string]*layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.Calls++
		lt.Total += s.dur()
		lt.Self += s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of intervals within [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curS, curE := 0.0, -1.0, -1.0
	for _, v := range iv {
		s, e := max(v[0], lo), min(v[1], hi)
		if e <= s {
			continue
		}
		if curE < 0 || s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// writeSpans dumps the spans as JSON.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// reconcileErr checks that the layers account for the end-to-end time:
// every traced op is a tree of spans whose self times sum to the root's
// duration, so the summed self time of all spans should equal the
// summed op latency. It returns the difference as a share of the
// latter. Spans recorded without op identity (the store's remote tier,
// called inside a worker) are nested in time inside worker spans and
// are left out of the sum.
func reconcileErr(lt map[string]*layerTime, ph phase) float64 {
	var self float64
	for name, t := range lt {
		if !strings.HasPrefix(name, "store.remote.") {
			self += t.Self
		}
	}
	var e2e float64
	for _, l := range ph.Lat {
		e2e += ms(l)
	}
	if e2e == 0 {
		return 0
	}
	d := (e2e - self) / e2e
	if d < 0 {
		d = -d
	}
	return d
}
