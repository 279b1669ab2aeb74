package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement with its unit and sample count.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int // samples behind the value
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile (0..1) of sorted durations by the
// nearest-rank method; zero for an empty slice.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns the durations sorted ascending.
func sortedCopy(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// medianDuration is the middle set-up time of several repetitions.
func medianDuration(d []time.Duration) time.Duration {
	s := sortedCopy(d)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// phase is the outcome of one timed loop: every op's latency, the
// failures, and the wall time the loop took.
type phase struct {
	Lat     []time.Duration // one per successful op
	Done    []time.Duration // when each of those ops ended, from Start
	Failed  int             // ops that errored or failed a check
	Start   time.Time
	Elapsed time.Duration
	// Cuts, when set, end the slices the metrics take medians over
	// (offsets from Start); otherwise the phase is cut into equal
	// windows.
	Cuts []time.Duration
	// Lag is how late each open-loop send started after its due time
	// (empty for closed loops).
	Lag []time.Duration
	// Typical, when set, holds one typical latency per distinct input
	// (paper-partition: each design's median over passes); the latency
	// quantiles are then taken over it instead of over the slices.
	Typical []time.Duration
	// First is the per-op time to the first response record (sim-stream
	// only).
	First []time.Duration
	// CPU is the process's CPU time over the phase, scaled by the host
	// factor (hostspeed.go), without the reference kernel's own.
	CPU time.Duration
	// AllocBytes and GCCPU are the runtime's allocation and GC CPU
	// totals over the phase.
	AllocBytes uint64
	GCCPU      time.Duration
	// Errs holds the first few failure messages.
	Errs []string
}

// attempted is the number of ops the phase tried.
func (p *phase) attempted() int { return len(p.Lat) + p.Failed }

// ok records one successful op that ended at end.
func (p *phase) ok(lat time.Duration, end time.Time) {
	p.Lat = append(p.Lat, lat)
	p.Done = append(p.Done, end.Sub(p.Start))
}

// fail records one failed op.
func (p *phase) fail(format string, args ...any) {
	p.Failed++
	if len(p.Errs) < 8 {
		p.Errs = append(p.Errs, fmt.Sprintf(format, args...))
	}
}

// runtimeSample reads the allocation and GC CPU totals.
type runtimeSample struct {
	alloc uint64
	gcCPU float64 // seconds
}

var runtimeMetricNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.alloc = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[1].Value.Float64()
	}
	return r
}

// since fills the phase's runtime deltas from a sample taken at its
// start.
func (p *phase) since(start runtimeSample) {
	end := readRuntime()
	p.AllocBytes = end.alloc - start.alloc
	p.GCCPU = time.Duration((end.gcCPU - start.gcCPU) * float64(time.Second))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// windows is how many equal time slices a phase is cut into unless
// the workload sets its own cuts; the throughput and latency metrics
// are medians over slices, so a transient stall in one slice (a
// neighbour's burst, a GC cycle) moves one slice, not the result.
const windows = 6

// slices returns the phase's slice boundaries: the workload's own cuts
// (e.g. pass ends) or k equal windows.
func (p *phase) slices(k int) []time.Duration {
	if len(p.Cuts) > 0 {
		return append([]time.Duration{0}, p.Cuts...)
	}
	out := make([]time.Duration, k+1)
	for w := range out {
		out[w] = p.Elapsed * time.Duration(w) / time.Duration(k)
	}
	return out
}

// slice is one slice's latencies (sorted) and length in seconds.
type slice struct {
	lat  []time.Duration
	secs float64
}

// cut splits the phase's ops by the slice they ended in.
func cut(ph phase, cuts []time.Duration) []slice {
	var out []slice
	for w := 0; w+1 < len(cuts); w++ {
		lo, hi := cuts[w], cuts[w+1]
		last := w+2 == len(cuts)
		var lat []time.Duration
		for i, d := range ph.Done {
			if d >= lo && (d < hi || last) {
				lat = append(lat, ph.Lat[i])
			}
		}
		if len(lat) > 0 && hi > lo {
			out = append(out, slice{sortedCopy(lat), (hi - lo).Seconds()})
		}
	}
	return out
}

// minTail is how many samples must lie beyond a reported quantile.
const minTail = 10

// throughput is the median over the phase's slices of ops per second.
func throughput(ph phase) float64 {
	var v []float64
	for _, s := range cut(ph, ph.slices(windows)) {
		v = append(v, float64(len(s.lat))/s.secs)
	}
	return median(v)
}

// sliceQuantile is the median of the q-quantiles of as many equal
// slices (at most `windows`, at least three) as leave ten samples
// beyond each slice's quantile, or the whole phase's q-quantile when
// fewer than three such slices fit. Workload cuts (passes) are used as
// they are.
func sliceQuantile(ph phase, q float64) float64 {
	k := min(windows, int(float64(len(ph.Lat))*(1-q))/minTail)
	if len(ph.Cuts) == 0 && k < 3 {
		return ms(quantile(sortedCopy(ph.Lat), q))
	}
	var v []float64
	for _, s := range cut(ph, ph.slices(k)) {
		v = append(v, ms(quantile(s.lat, q)))
	}
	return median(v)
}

// latencyQuantile is the q-quantile of the phase's typical latencies
// when it has them, else sliceQuantile.
func latencyQuantile(ph phase, q float64) float64 {
	if len(ph.Typical) > 0 {
		return ms(quantile(sortedCopy(ph.Typical), q))
	}
	return sliceQuantile(ph, q)
}

// median of floats; zero for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// endToEnd derives the end-to-end metrics every workload reports; the
// result line carries those in endToEndNames.
func endToEnd(setup []time.Duration, ph phase) []metric {
	n := len(ph.Lat)
	errShare := 0.0
	if a := ph.attempted(); a > 0 {
		errShare = float64(ph.Failed) / float64(a)
	}
	out := []metric{
		{"setup_s", medianDuration(setup).Seconds(), "s", len(setup)},
		{"throughput_ops_s", throughput(ph), "1/s", n},
		{"cpu_ms_per_op", perOp(ms(ph.CPU), n), "ms", n},
		{"latency_p50_ms", latencyQuantile(ph, 0.50), "ms", n},
		{"latency_p95_ms", latencyQuantile(ph, 0.95), "ms", n},
		{"latency_p99_ms", latencyQuantile(ph, 0.99), "ms", n},
		{"peak_rss_mb", peakRSSMB(), "MiB", 1},
		{"error_share", errShare, "ratio", ph.attempted()},
	}
	if len(ph.First) > 0 {
		out = append(out, metric{"first_record_p50_ms", ms(quantile(sortedCopy(ph.First), 0.5)), "ms", len(ph.First)})
	}
	return out
}
