// Package obs is the metrics layer eblocksd and eblocksrouter share: a
// latency Window (a sliding window of recent durations for quantiles,
// plus the cumulative sum and count), the nearest-rank quantile, and a
// Writer that renders counter, gauge and summary families in the
// Prometheus text exposition format, version 0.0.4, which Handler
// serves at /metrics. Stdlib only.
package obs

import (
	"math"
	"slices"
	"time"
)

// WindowSize is how many of the most recent observations a Window
// keeps for its quantiles.
const WindowSize = 4096

// Window summarizes a stream of durations: the most recent WindowSize
// of them, for quantiles, and the sum and count of all of them (a
// Prometheus summary's _sum and _count). The zero value is an empty
// window. A Window is not goroutine-safe; its owner guards it with
// the lock that guards the counters reported alongside it.
type Window struct {
	ring  []time.Duration
	next  int // once the ring is full, the oldest sample: overwritten next
	sum   time.Duration
	count uint64
}

// Observe records one duration.
func (w *Window) Observe(d time.Duration) {
	w.sum += d
	w.count++
	if len(w.ring) < WindowSize {
		w.ring = append(w.ring, d)
		return
	}
	w.ring[w.next] = d
	w.next = (w.next + 1) % WindowSize
}

// Snapshot returns a copy of the windowed samples, in no particular
// order, and the sum and count of every observation. It only copies,
// so an owner takes it under its lock and calls Quantiles, which
// sorts, after releasing the lock.
func (w *Window) Snapshot() (samples []time.Duration, sum time.Duration, count uint64) {
	return slices.Clone(w.ring), w.sum, w.count
}

// Quantiles sorts samples in place and returns, for each q, the
// nearest-rank q-quantile: the smallest sample that at least a q
// fraction of the samples do not exceed. Every quantile of an empty
// set is zero.
func Quantiles(samples []time.Duration, qs ...float64) []time.Duration {
	out := make([]time.Duration, len(qs))
	if len(samples) == 0 {
		return out
	}
	slices.Sort(samples)
	for i, q := range qs {
		out[i] = samples[nearestRank(q, len(samples))]
	}
	return out
}

// nearestRank returns the index of the q-quantile of a sorted n-sample
// set under the nearest-rank definition, ceil(q*n)-1, clamped to
// [0, n-1]. (Truncating to int(q*n) instead picks the upper median of
// an even set and, over 100 samples, the maximum as the P99.)
func nearestRank(q float64, n int) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
