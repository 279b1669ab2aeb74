// Package metricname is a fixture for the metricname analyzer, built
// around the repo's obs.Writer exporter.
package metricname

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// Emit renders a tiny exporter in the repository's Writer idiom.
func Emit(v uint64) string {
	var w obs.Writer
	w.Counter("eblocksd_requests_total", "Requests served.", obs.Value(v))
	w.Counter("eblocksd_BadName_total", "Series with an uppercase segment.", obs.Value(v)) // want `metric name "eblocksd_BadName_total" is not snake_case`
	w.Gauge("eblocksd_queue_depth", "Current queue depth.", obs.Value(v))
	w.Gauge("eblocksd_queue_depth", "Same series declared again.", obs.Value(v)) // want `metric eblocksd_queue_depth is declared \(HELP/TYPE\) more than once`
	w.Summary("eblocksd_request_latency_seconds", "Request latency.", 0, 0, 0, v)
	name := "eblocksd_dynamic_total"
	w.Counter(name, "Non-constant series name.", obs.Value(v)) // want `metric name passed to Counter must be a compile-time constant`
	return w.String()
}

// tally has a Counter method of its own: outside the metrics layer,
// its calls are not family declarations.
type tally struct{}

// Counter counts nothing.
func (tally) Counter(name string) {}

// Tally calls a same-named method that is not a Writer's.
func Tally(name string) {
	var t tally
	t.Counter(name)
	t.Counter(name)
}

// Raw writes a series line without the Writer; prefix-bearing
// literals are still held to the naming shape.
func Raw(w io.Writer, v int) {
	fmt.Fprintf(w, "%s %d\n", "eblocksrouter_picks-total", v) // want `string "eblocksrouter_picks-total" looks like a metric name`
}

// Unprefixed literals are out of scope for the analyzer.
func Unprefixed() string {
	return "other_series_total"
}
