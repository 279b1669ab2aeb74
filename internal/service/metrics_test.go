package service

import (
	"math/rand"
	"testing"
	"time"
)

// TestNearestRankQuantiles pins the nearest-rank definition
// (ceil(q*n)-1) over small windows, where the previous int(q*n)
// truncation was visibly wrong: it picked the upper median for even
// windows and the maximum (rank n of n) for P99 whenever
// ceil(0.99*n) == n-1 < int(0.99*n)+1 — e.g. a 100-sample window
// reported the worst request as its P99.
func TestNearestRankQuantiles(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	seq := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i+1) * time.Millisecond
		}
		return out
	}

	cases := []struct {
		name     string
		window   []time.Duration
		p50, p99 time.Duration
	}{
		{"single sample", ms(10), 10 * time.Millisecond, 10 * time.Millisecond},
		// Even window: nearest-rank P50 is the lower median (rank
		// ceil(1) = 1 of 2), not the upper one the old code picked.
		{"two samples", ms(10, 20), 10 * time.Millisecond, 20 * time.Millisecond},
		{"four samples", ms(10, 20, 30, 40), 20 * time.Millisecond, 40 * time.Millisecond},
		{"five samples", ms(1, 2, 3, 4, 5), 3 * time.Millisecond, 5 * time.Millisecond},
		// 100 samples 1..100ms: P99 is rank ceil(99) = 99, i.e. 99ms —
		// the old index picked lat[99] = 100ms, the maximum.
		{"hundred samples", seq(100), 50 * time.Millisecond, 99 * time.Millisecond},
		{"two hundred samples", seq(200), 100 * time.Millisecond, 198 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Feed the window shuffled: snapshot must sort, not rely on
			// arrival order.
			shuffled := append([]time.Duration(nil), tc.window...)
			rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			var m metrics
			for _, d := range shuffled {
				m.observe(d, outcomeMiss)
			}
			st := m.snapshot()
			if st.P50 != tc.p50 {
				t.Errorf("P50 = %v, want %v", st.P50, tc.p50)
			}
			if st.P99 != tc.p99 {
				t.Errorf("P99 = %v, want %v", st.P99, tc.p99)
			}
			if want := sum(tc.window); st.LatencySum != want {
				t.Errorf("LatencySum = %v, want %v", st.LatencySum, want)
			}
		})
	}
}

func sum(ds []time.Duration) time.Duration {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total
}

// TestNearestRankBounds exercises the clamps directly.
func TestNearestRankBounds(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		n, i int
	}{
		{0.50, 1, 0},
		{0.99, 1, 0},
		{0.50, 2, 0},
		{0.99, 2, 1},
		{0.50, 3, 1},
		{0.99, 100, 98},
		{0.99, 4096, 4055},
		{1.0, 10, 9},
		{0.0, 10, 0},
	} {
		if got := nearestRank(tc.q, tc.n); got != tc.i {
			t.Errorf("nearestRank(%v, %d) = %d, want %d", tc.q, tc.n, got, tc.i)
		}
	}
}
