package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/store"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenStats is a Stats value with every field set to a distinct
// number and every optional block (admission, per-stage usage, the
// remote backend) present.
func goldenStats() Stats {
	return Stats{
		Requests:             1234,
		SimulateRequests:     101,
		VerifyRequests:       57,
		DeltaRequests:        33,
		PartitionsAdopted:    812,
		PartitionsRecomputed: 96,
		CacheHits:            690,
		MemoryHits:           600,
		DiskHits:             80,
		RemoteHits:           10,
		CacheMisses:          400,
		Coalesced:            120,
		Errors:               24,
		P50:                  12 * time.Microsecond,
		P99:                  187500 * time.Microsecond,
		LatencySum:           93250 * time.Millisecond,
		StreamRequests:       19,
		StreamedChanges:      48213,
		SnapshotsSaved:       11,
		SnapshotHits:         6,
		SnapshotMisses:       2,
		Store: store.Stats{
			Entries: 321, BytesUsed: 7340032,
			MemEntries: 64, MemBytesUsed: 1048576,
			MemoryHits: 700, DiskHits: 85, RemoteHits: 12, Misses: 410,
			Puts: 450, Evictions: 13, CorruptEvicted: 1,
			OriginGets: 77, OriginPuts: 31, RemoteDroppedWrites: 2,
			Stages: map[string]store.StageUsage{
				"response.v1":    {Entries: 150, Bytes: 4194304},
				"partitioned.v3": {Entries: 120, Bytes: 2097152},
				"simstate.v1":    {Entries: 51, Bytes: 1048576},
			},
			Remote: &store.BackendStats{Gets: 90, Hits: 12, Puts: 44, Errors: 3, Entries: 500, BytesUsed: 9999999},
		},
		Admission: &AdmissionStats{
			Admitted: 1100, ShedQueue: 9, ShedQuota: 4,
			Inflight: 3, Queued: 2,
			MaxInflight: 8, QueueDepth: 32, QuotaRPS: 12.5, QuotaBurst: 25,
		},
	}
}

// TestStatsGolden pins the /metrics exposition and the indented
// /v1/stats JSON for a fully populated Stats and for the zero Stats:
// every series, label, help text, sample order and value format, and
// every JSON field name and position. Run with -update to rewrite the
// files after an intended change.
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
