package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// contentType is the media type of the text exposition format.
const contentType = "text/plain; version=0.0.4; charset=utf-8"

// Writer renders metric families in the Prometheus text exposition
// format, version 0.0.4. Each method writes one whole family, its HELP
// and TYPE lines and then its samples in the order given, so an
// exporter is one call per family. The zero value is ready to use.
type Writer struct {
	b strings.Builder
}

// Sample is one series of a counter or gauge family: its label set and
// its value, both already rendered. Build one with Value or Labeled.
type Sample struct {
	labels string // name="value", or empty
	value  string
}

// Integer is the type set of sample values.
type Integer interface {
	int | int64 | uint64
}

// Value is an unlabelled sample.
func Value[T Integer](v T) Sample {
	return Sample{value: formatInt(v)}
}

// Labeled is a sample with the one label name="value"; the label value
// is escaped as the exposition format requires.
func Labeled[T Integer](name, value string, v T) Sample {
	return Sample{labels: name + `="` + labelEscaper.Replace(value) + `"`, value: formatInt(v)}
}

// labelEscaper escapes a label value: backslash, double quote and line
// feed are the only characters the format escapes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func formatInt[T Integer](v T) string {
	if v < 0 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatUint(uint64(v), 10)
}

// Counter writes a counter family.
func (w *Writer) Counter(name, help string, samples ...Sample) {
	w.family(name, help, "counter", samples)
}

// Gauge writes a gauge family.
func (w *Writer) Gauge(name, help string, samples ...Sample) {
	w.family(name, help, "gauge", samples)
}

// Summary writes a summary family of durations in seconds: the 0.5 and
// 0.99 quantiles, then the _sum and _count series.
func (w *Writer) Summary(name, help string, p50, p99, sum time.Duration, count uint64) {
	w.family(name, help, "summary", []Sample{
		{labels: `quantile="0.5"`, value: seconds(p50)},
		{labels: `quantile="0.99"`, value: seconds(p99)},
	})
	w.sample(name+"_sum", Sample{value: seconds(sum)})
	w.sample(name+"_count", Value(count))
}

// String returns the exposition written so far.
func (w *Writer) String() string {
	return w.b.String()
}

func (w *Writer) family(name, help, typ string, samples []Sample) {
	fmt.Fprintf(&w.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, s := range samples {
		w.sample(name, s)
	}
}

func (w *Writer) sample(name string, s Sample) {
	w.b.WriteString(name)
	if s.labels != "" {
		w.b.WriteString("{" + s.labels + "}")
	}
	w.b.WriteString(" " + s.value + "\n")
}

// seconds renders a duration as a float number of seconds in Go's
// shortest %v form (0.0025, 1.2e-05).
func seconds(d time.Duration) string {
	return fmt.Sprint(d.Seconds())
}

// Handler serves GET and HEAD /metrics with the exposition render
// returns. Any other method gets a 405 with the JSON error body both
// binaries use on their other routes.
func Handler(render func() string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusMethodNotAllowed)
			json.NewEncoder(w).Encode(map[string]string{"error": "use GET"})
			return
		}
		w.Header().Set("Content-Type", contentType)
		if r.Method == http.MethodHead {
			return
		}
		io.WriteString(w, render())
	}
}
