package obs

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestNearestRank pins the quantile index, ceil(q*n)-1 clamped to
// [0, n-1], shared by the service, the router and the load reports.
func TestNearestRank(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		n, i int
	}{
		{0.50, 1, 0},
		{0.99, 1, 0},
		{0.50, 2, 0},
		{0.99, 2, 1},
		{0.50, 3, 1},
		{0.99, 10, 9},
		{0.50, 100, 49},
		{0.90, 100, 89},
		{0.99, 100, 98},
		{0.99, 4096, 4055},
		{1.0, 10, 9},
		{0.0, 10, 0},
	} {
		if got := nearestRank(tc.q, tc.n); got != tc.i {
			t.Errorf("nearestRank(%v, %d) = %d, want %d", tc.q, tc.n, got, tc.i)
		}
	}
	if q := Quantiles(nil, 0.5, 0.99); q[0] != 0 || q[1] != 0 {
		t.Errorf("quantiles of an empty set = %v, want zeros", q)
	}
}

// TestWindowWrapAround: past WindowSize observations the quantiles
// cover only the most recent WindowSize of them, while the sum and
// count cover every one.
func TestWindowWrapAround(t *testing.T) {
	const extra = 100
	var w Window
	var total time.Duration
	// 1..WindowSize+extra ms: the window ends up holding
	// extra+1..WindowSize+extra.
	for i := 1; i <= WindowSize+extra; i++ {
		d := time.Duration(i) * time.Millisecond
		w.Observe(d)
		total += d
	}
	lat, sum, count := w.Snapshot()
	if len(lat) != WindowSize {
		t.Fatalf("window holds %d samples, want %d", len(lat), WindowSize)
	}
	if sum != total || count != WindowSize+extra {
		t.Errorf("sum, count = %v, %d, want %v, %d", sum, count, total, WindowSize+extra)
	}
	q := Quantiles(lat, 0, 0.50, 0.99, 1)
	ms := func(i int) time.Duration { return time.Duration(extra+i) * time.Millisecond }
	if want := []time.Duration{ms(1), ms(2048), ms(4056), ms(WindowSize)}; !slices.Equal(q, want) {
		t.Errorf("min, p50, p99, max = %v, want %v", q, want)
	}

	// The snapshot is a copy: sorting it leaves the ring intact, so the
	// next observation still evicts the oldest sample.
	w.Observe(time.Hour)
	lat, _, _ = w.Snapshot()
	if q := Quantiles(lat, 0, 1); q[0] != ms(2) || q[1] != time.Hour {
		t.Errorf("after one more observation min, max = %v, want %v, %v", q, ms(2), time.Hour)
	}
}

// TestWriter checks each family shape and the label escaping.
func TestWriter(t *testing.T) {
	var w Writer
	w.Counter("eblocksd_a_total", "Help for a.", Value(uint64(7)))
	w.Counter("eblocksd_b_total", "Help for b.", Labeled("tier", "memory", uint64(1)), Labeled("tier", `a"b\c`+"\nd", uint64(2)))
	w.Gauge("eblocksd_c", "Help for c.", Value(int64(-3)), Labeled("stage", "x.v1", 1<<40))
	w.Gauge("eblocksd_d", "An empty family.")
	w.Summary("eblocksd_e_seconds", "Help for e.", 1500*time.Microsecond, 12*time.Microsecond, 90*time.Second, 42)
	want := `# HELP eblocksd_a_total Help for a.
# TYPE eblocksd_a_total counter
eblocksd_a_total 7
# HELP eblocksd_b_total Help for b.
# TYPE eblocksd_b_total counter
eblocksd_b_total{tier="memory"} 1
eblocksd_b_total{tier="a\"b\\c\nd"} 2
# HELP eblocksd_c Help for c.
# TYPE eblocksd_c gauge
eblocksd_c -3
eblocksd_c{stage="x.v1"} 1099511627776
# HELP eblocksd_d An empty family.
# TYPE eblocksd_d gauge
# HELP eblocksd_e_seconds Help for e.
# TYPE eblocksd_e_seconds summary
eblocksd_e_seconds{quantile="0.5"} 0.0015
eblocksd_e_seconds{quantile="0.99"} 1.2e-05
eblocksd_e_seconds_sum 90
eblocksd_e_seconds_count 42
`
	if got := w.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestHandler: GET serves the exposition, HEAD only its headers, and
// other methods get a 405 with a JSON error body.
func TestHandler(t *testing.T) {
	h := Handler(func() string { return "eblocksd_x 1\n" })
	for _, tc := range []struct {
		method, body, ctype string
		status              int
	}{
		{http.MethodGet, "eblocksd_x 1\n", contentType, http.StatusOK},
		{http.MethodHead, "", contentType, http.StatusOK},
		{http.MethodPost, `{"error":"use GET"}` + "\n", "application/json", http.StatusMethodNotAllowed},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, "/metrics", strings.NewReader("")))
		if rec.Code != tc.status || rec.Body.String() != tc.body || rec.Header().Get("Content-Type") != tc.ctype {
			t.Errorf("%s /metrics = %d %q (%s), want %d %q (%s)", tc.method,
				rec.Code, rec.Body.String(), rec.Header().Get("Content-Type"), tc.status, tc.body, tc.ctype)
		}
	}
}
