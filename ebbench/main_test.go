package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestItemsDeterministicPerSeed(t *testing.T) {
	bodies := func(seed int64) [][]byte {
		var out [][]byte
		cold, _, err := coldItems(seed, 20)
		if err != nil {
			t.Fatal(err)
		}
		steady, err := steadyItems(seed, 60)
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := simJobs(seed, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range append(cold, steady...) {
			out = append(out, it.body)
		}
		for _, j := range jobs {
			out = append(out, j.body)
		}
		return out
	}
	a, b, c := bodies(7), bodies(7), bodies(8)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d items", len(a), len(b))
	}
	differ := 0
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("item %d differs between two generations with the same seed", i)
		}
		if i < len(c) && !bytes.Equal(a[i], c[i]) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("a different seed gave identical items")
	}
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	names := append([]string(nil), perLayerNames...)
	for n := range endToEndNames {
		names = append(names, n)
	}
	names = append(names, "error_share", "setup_wall_s", "latency_p50_ms", "latency_p95_ms", "latency_p99_ms", "first_record_p50_ms", "pd_blocks", "exh_blocks", "wall_throughput_ops_s", "host_factor")
	seen := map[string]bool{}
	for _, n := range names {
		if !valid.MatchString(n) || len(n) > 64 {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("metric name %q used twice", n)
		}
		seen[n] = true
	}
}

// The paper-partition population is the same for every seed; the seed
// only orders designs of one size, and sizes stay largest first.
func TestPaperPartitionPopulationFixed(t *testing.T) {
	names := func(seed int64) []string {
		w, err := newPaperPartition(&config{seed: seed, scale: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for i, d := range w.(*paperPartition).designs {
			if i > 0 && d.inner > w.(*paperPartition).designs[i-1].inner {
				t.Fatalf("seed %d: design %d (%d blocks) after a smaller one", seed, i, d.inner)
			}
			out = append(out, d.name)
		}
		return out
	}
	a, b := names(1), names(2)
	if slices.Equal(a, b) {
		t.Error("two seeds gave the same design order")
	}
	slices.Sort(a)
	slices.Sort(b)
	if !slices.Equal(a, b) {
		t.Error("two seeds gave different populations")
	}
}

func TestHostFactor(t *testing.T) {
	ks := []*refKernel{newRefKernel(), newRefKernel()}
	ks[0].samples = []time.Duration{refNominal, 2 * refNominal}
	ks[1].samples = []time.Duration{2 * refNominal}
	f, spent := hostFactor(ks)
	if f != 0.5 || spent != 5*refNominal {
		t.Errorf("hostFactor = %v, %v; want 0.5, %v", f, spent, 5*refNominal)
	}
	if f, spent := hostFactor(ks); f != 1 || spent != 0 {
		t.Errorf("hostFactor after reset = %v, %v; want 1, 0", f, spent)
	}
	ks[0].sample()
	if len(ks[0].samples) != 1 || ks[0].samples[0] <= 0 {
		t.Errorf("sample recorded %v", ks[0].samples)
	}
}

// BENCHMARK.json at the repository root must list exactly the metrics
// the program reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a workload", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndNames) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEndNames))
	}
	for _, m := range spec.EndToEnd {
		if !endToEndNames[m.Name] {
			t.Errorf("end-to-end metric %q is not reported", m.Name)
		}
	}
	if len(spec.PerLayer) != len(perLayerNames) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayerNames))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayerNames[i] || m.Unit != perLayerUnit(m.Name) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, perLayerNames[i], perLayerUnit(perLayerNames[i]))
		}
	}
}

func TestCheckersRejectOneFlippedByte(t *testing.T) {
	body := []byte(`{"designHash":"abc","innerBlocksAfter":3}`)
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)-3] ^= 0x01 // '3' -> '2'

	id := newIdentity()
	var key [32]byte
	if err := id.observe(key, 1, "miss", body); err != nil {
		t.Fatal(err)
	}
	if err := id.observe(key, 2, "memory", body); err != nil {
		t.Fatalf("identical body rejected: %v", err)
	}
	if err := id.observe(key, 3, "disk", flipped); err == nil {
		t.Fatal("identity check accepted a body with one flipped byte")
	}

	jobs, err := simJobs(3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	w := &simStream{}
	job := jobs[0]
	changes, _, err := oracleTrace(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) == 0 {
		t.Fatal("oracle traced no changes")
	}
	var stream bytes.Buffer
	stream.WriteString(`{"type":"start"}` + "\n")
	for _, c := range changes {
		b, _ := json.Marshal(c)
		stream.Write(append(b, '\n'))
	}
	stream.WriteString(`{"type":"done"}` + "\n")
	if err := w.checkStream(job, stream.Bytes()); err != nil {
		t.Fatalf("oracle stream rejected: %v", err)
	}
	bad := stream.Bytes()
	i := bytes.Index(bad, []byte(`"time":`)) + len(`"time":`)
	bad[i] ^= 0x01
	if err := w.checkStream(job, bad); err == nil {
		t.Fatal("stream check accepted a change record with one flipped byte")
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := &config{workload: name, seed: 5, seconds: 0.4, trace: traced, scale: 0.02}
			var out strings.Builder
			res, err := run(cfg, &out, t.TempDir()+"/spans.json")
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s", name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := len(endToEndNames)
			if traced {
				want = len(perLayerNames)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, traced, len(res.Metrics), want)
			}
		}
	}
}
