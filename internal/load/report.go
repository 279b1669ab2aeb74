package load

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// maxSamplesPerKey caps the raw latency samples retained per
// (route, tier) key; beyond it, new samples keep counting but stop
// being retained (quantiles then describe the first million requests,
// which a bounded load run never exceeds).
const maxSamplesPerKey = 1 << 20

// recorder accumulates per-(route, tier) latencies and per-route
// status counts during a run, plus a per-shard breakdown when the
// target labels responses with X-Shard (an eblocksrouter front end).
// Goroutine-safe.
type recorder struct {
	mu     sync.Mutex
	routes map[string]*routeAcc
	shards map[string]*shardAcc
}

type shardAcc struct {
	count, ok, errors int
	absorbed          int // served after a sibling retry (X-Retried-Shard present)
	caused            int // named in X-Retried-Shard (this shard failed first)
}

type routeAcc struct {
	count    int
	statuses map[int]int
	netErrs  int
	tiers    map[string]*tierAcc
}

type tierAcc struct {
	count   int
	samples []time.Duration
}

func newRecorder() *recorder {
	return &recorder{routes: map[string]*routeAcc{}, shards: map[string]*shardAcc{}}
}

// observeShard records which shard served one response (the X-Shard
// header) and, when the response came out of a sibling retry, which
// shard failed first (X-Retried-Shard).
func (rec *recorder) observeShard(shard, retriedFrom string, status int) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	sa := rec.shards[shard]
	if sa == nil {
		sa = &shardAcc{}
		rec.shards[shard] = sa
	}
	sa.count++
	if status >= 200 && status < 300 {
		sa.ok++
	} else {
		sa.errors++
	}
	if retriedFrom != "" {
		sa.absorbed++
		ca := rec.shards[retriedFrom]
		if ca == nil {
			ca = &shardAcc{}
			rec.shards[retriedFrom] = ca
		}
		ca.caused++
	}
}

// observe records one completed request. status 0 means a transport
// error (no response); tier is the X-Cache header value, "" when the
// response carried none (errors, sheds, uncached routes are labeled
// "none").
func (rec *recorder) observe(route string, status int, tier string, d time.Duration) {
	if tier == "" {
		tier = "none"
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	ra := rec.routes[route]
	if ra == nil {
		ra = &routeAcc{statuses: map[int]int{}, tiers: map[string]*tierAcc{}}
		rec.routes[route] = ra
	}
	ra.count++
	if status == 0 {
		ra.netErrs++
	} else {
		ra.statuses[status]++
	}
	ta := ra.tiers[tier]
	if ta == nil {
		ta = &tierAcc{}
		ra.tiers[tier] = ta
	}
	ta.count++
	if len(ta.samples) < maxSamplesPerKey {
		ta.samples = append(ta.samples, d)
	}
}

// Quantiles are the nearest-rank latency quantiles of one histogram,
// in nanoseconds.
type Quantiles struct {
	// P50/P90/P99 are nearest-rank quantiles over the recorded
	// samples; Max is the largest sample.
	P50 time.Duration `json:"p50Nanos"`
	P90 time.Duration `json:"p90Nanos"`
	P99 time.Duration `json:"p99Nanos"`
	Max time.Duration `json:"maxNanos"`
}

func quantilesOf(samples []time.Duration) Quantiles {
	q := obs.Quantiles(slices.Clone(samples), 0.50, 0.90, 0.99, 1)
	return Quantiles{P50: q[0], P90: q[1], P99: q[2], Max: q[3]}
}

// TierStats is one (route, cache tier) histogram.
type TierStats struct {
	// Tier is the X-Cache value that labeled these responses
	// ("memory", "disk", "remote", "miss") or "none" for responses
	// without the header (errors, sheds, uncached routes).
	Tier string `json:"tier"`
	// Count is how many requests landed in this tier.
	Count int `json:"count"`
	Quantiles
}

// RouteStats is one route's slice of the report.
type RouteStats struct {
	// Route is the request path, e.g. "/v1/synthesize".
	Route string `json:"route"`
	// Count is all requests sent on the route; OK counts 2xx, Shed
	// counts 429s, Errors counts transport failures and every other
	// non-2xx status.
	Count  int `json:"count"`
	OK     int `json:"ok"`
	Shed   int `json:"shed"`
	Errors int `json:"errors"`
	// Statuses maps HTTP status code (as a string, for JSON) to
	// count; transport errors appear under "transport".
	Statuses map[string]int `json:"statuses"`
	// Quantiles aggregates latency over every tier of the route.
	Quantiles
	// Tiers splits the route's latency histogram by the cache tier
	// that served each response, sorted by tier name.
	Tiers []TierStats `json:"tiers"`
}

// ErrorRate is the route's non-2xx, non-429 fraction (transport
// failures included).
func (rs RouteStats) ErrorRate() float64 {
	if rs.Count == 0 {
		return 0
	}
	return float64(rs.Errors) / float64(rs.Count)
}

// Report is the machine-readable result of one load run
// (BENCH_load.json).
type Report struct {
	// Mix / Seed / Targets / Workers / TargetRPS echo the run
	// configuration (TargetRPS 0 = closed loop).
	Mix       string   `json:"mix"`
	Seed      int64    `json:"seed"`
	Targets   []string `json:"targets"`
	Workers   int      `json:"workers"`
	TargetRPS float64  `json:"targetRps"`
	// Requests is the total sent; Duration the wall time of the run;
	// AchievedRPS the measured request rate.
	Requests    int           `json:"requests"`
	Duration    time.Duration `json:"durationNanos"`
	AchievedRPS float64       `json:"achievedRps"`
	// Routes are the per-route histograms, sorted by route.
	Routes []RouteStats `json:"routes"`
	// Shards is the per-shard breakdown, present only when the target
	// labeled responses with X-Shard (an eblocksrouter front end);
	// sorted by shard name.
	Shards []ShardStats `json:"shards,omitempty"`
}

// ShardStats is one shard's slice of a router-fronted load run, built
// from the X-Shard / X-Retried-Shard response headers.
type ShardStats struct {
	// Shard is the X-Shard label (the worker's host:port).
	Shard string `json:"shard"`
	// Count is how many responses the shard served; OK the 2xx
	// subset, Errors everything else.
	Count  int `json:"count"`
	OK     int `json:"ok"`
	Errors int `json:"errors"`
	// Absorbed counts responses this shard served after a sibling
	// retry; CausedRetries counts responses that named this shard in
	// X-Retried-Shard (it failed first and a sibling absorbed the
	// request).
	Absorbed      int `json:"absorbed"`
	CausedRetries int `json:"causedRetries"`
}

// report assembles the final Report from the recorder's accumulators.
func (rec *recorder) report() []RouteStats {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	routes := make([]string, 0, len(rec.routes))
	for r := range rec.routes {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	out := make([]RouteStats, 0, len(routes))
	for _, route := range routes {
		ra := rec.routes[route]
		rs := RouteStats{
			Route:    route,
			Count:    ra.count,
			Statuses: map[string]int{},
		}
		if ra.netErrs > 0 {
			rs.Statuses["transport"] = ra.netErrs
			rs.Errors += ra.netErrs
		}
		for code, n := range ra.statuses {
			rs.Statuses[strconv.Itoa(code)] = n
			switch {
			case code >= 200 && code < 300:
				rs.OK += n
			case code == 429:
				rs.Shed += n
			default:
				rs.Errors += n
			}
		}
		var all []time.Duration
		tiers := make([]string, 0, len(ra.tiers))
		for t := range ra.tiers {
			tiers = append(tiers, t)
		}
		sort.Strings(tiers)
		for _, t := range tiers {
			ta := ra.tiers[t]
			rs.Tiers = append(rs.Tiers, TierStats{Tier: t, Count: ta.count, Quantiles: quantilesOf(ta.samples)})
			all = append(all, ta.samples...)
		}
		rs.Quantiles = quantilesOf(all)
		out = append(out, rs)
	}
	return out
}

// shardReport assembles the per-shard breakdown (empty when no
// response carried X-Shard).
func (rec *recorder) shardReport() []ShardStats {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	names := make([]string, 0, len(rec.shards))
	for n := range rec.shards {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]ShardStats, 0, len(names))
	for _, n := range names {
		sa := rec.shards[n]
		out = append(out, ShardStats{
			Shard: n, Count: sa.count, OK: sa.ok, Errors: sa.errors,
			Absorbed: sa.absorbed, CausedRetries: sa.caused,
		})
	}
	return out
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteSummary writes the human-readable per-route table.
func (r *Report) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "mix=%s seed=%d requests=%d duration=%v rps=%.1f (target %.1f)\n",
		r.Mix, r.Seed, r.Requests, r.Duration.Round(time.Millisecond), r.AchievedRPS, r.TargetRPS)
	for _, rs := range r.Routes {
		fmt.Fprintf(w, "  %-20s n=%-6d ok=%-6d 429=%-5d err=%-4d p50=%-10v p90=%-10v p99=%-10v\n",
			rs.Route, rs.Count, rs.OK, rs.Shed, rs.Errors,
			rs.P50.Round(time.Microsecond), rs.P90.Round(time.Microsecond), rs.P99.Round(time.Microsecond))
		for _, ts := range rs.Tiers {
			fmt.Fprintf(w, "    %-18s n=%-6d p50=%-10v p99=%-10v\n",
				"tier="+ts.Tier, ts.Count, ts.P50.Round(time.Microsecond), ts.P99.Round(time.Microsecond))
		}
	}
	for _, ss := range r.Shards {
		fmt.Fprintf(w, "  shard %-20s n=%-6d ok=%-6d err=%-4d absorbed=%-4d causedRetries=%d\n",
			ss.Shard, ss.Count, ss.OK, ss.Errors, ss.Absorbed, ss.CausedRetries)
	}
}

// SLO is the enforced ceiling a report is checked against: per-route
// p99 latency and error-rate bounds. Zero-valued fields are not
// checked; MaxErrorRate 0 with CheckErrors set means "no errors at
// all".
type SLO struct {
	// MaxP99 bounds every route's p99 latency (0 = unchecked).
	MaxP99 time.Duration
	// MaxErrorRate bounds every route's error rate — non-2xx,
	// non-429 responses over total — when CheckErrors is set.
	MaxErrorRate float64
	// CheckErrors enables the error-rate ceiling (separate from
	// MaxErrorRate so a ceiling of exactly 0 is expressible).
	CheckErrors bool
	// MaxShedRate bounds every route's 429 fraction when
	// CheckSheds is set — for runs where quotas are off and any shed
	// is a regression.
	MaxShedRate float64
	// CheckSheds enables the shed-rate ceiling.
	CheckSheds bool
}

// Check evaluates the report against the SLO and returns one violation
// message per breached ceiling (empty = pass).
func (r *Report) Check(slo SLO) []string {
	var out []string
	for _, rs := range r.Routes {
		if slo.MaxP99 > 0 && rs.P99 > slo.MaxP99 {
			out = append(out, fmt.Sprintf("%s: p99 %v exceeds SLO %v", rs.Route, rs.P99, slo.MaxP99))
		}
		if slo.CheckErrors && rs.ErrorRate() > slo.MaxErrorRate {
			out = append(out, fmt.Sprintf("%s: error rate %.4f (%d/%d) exceeds SLO %.4f",
				rs.Route, rs.ErrorRate(), rs.Errors, rs.Count, slo.MaxErrorRate))
		}
		if slo.CheckSheds && rs.Count > 0 && float64(rs.Shed)/float64(rs.Count) > slo.MaxShedRate {
			out = append(out, fmt.Sprintf("%s: shed rate %.4f (%d/%d) exceeds SLO %.4f",
				rs.Route, float64(rs.Shed)/float64(rs.Count), rs.Shed, rs.Count, slo.MaxShedRate))
		}
	}
	return out
}
