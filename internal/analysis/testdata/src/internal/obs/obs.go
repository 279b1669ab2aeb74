// Package obs is a fixture stub of the repository's metrics layer,
// present under the same import path so the metricname analyzer's
// obs.Writer rule can be exercised from fixtures.
package obs

import "time"

// Writer renders metric families (stub: it renders nothing).
type Writer struct{}

// Sample is one series of a family.
type Sample struct{}

// Value is an unlabelled sample.
func Value(v uint64) Sample { return Sample{} }

// Counter writes a counter family.
func (w *Writer) Counter(name, help string, samples ...Sample) {}

// Gauge writes a gauge family.
func (w *Writer) Gauge(name, help string, samples ...Sample) {}

// Summary writes a summary family of durations.
func (w *Writer) Summary(name, help string, p50, p99, sum time.Duration, count uint64) {}

// String returns the exposition written so far.
func (w *Writer) String() string { return "" }
