package router

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenStats is a two-shard Stats value, one shard in rotation and
// one out, with every counter set to a distinct number.
func goldenStats() Stats {
	return Stats{
		Requests:      500,
		Errors:        3,
		Retries:       5,
		Batches:       12,
		BatchFanouts:  30,
		StreamAborts:  1,
		HealthyShards: 1,
		Shards: []ShardStats{
			{Name: "10.0.0.1:8081", URL: "http://10.0.0.1:8081", Healthy: true, Requests: 300, Errors: 0, Retries: 0, Transitions: 2},
			{Name: "10.0.0.2:8082", URL: "http://10.0.0.2:8082", Healthy: false, Requests: 210, Errors: 5, Retries: 5, Transitions: 3},
		},
		P50:        2500 * time.Microsecond,
		P99:        41 * time.Microsecond,
		LatencySum: 17125 * time.Millisecond,
	}
}

// TestStatsGolden pins the router's /metrics exposition and indented
// /v1/stats JSON for a two-shard Stats and for the zero Stats. Run
// with -update to rewrite the files after an intended change.
func TestStatsGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   Stats
	}{
		{"fixed", goldenStats()},
		{"zero", Stats{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			js, err := json.MarshalIndent(tc.st, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "stats_"+tc.name+".prom", []byte(promText(tc.st)))
			checkGolden(t, "stats_"+tc.name+".json", append(js, '\n'))
		})
	}
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
