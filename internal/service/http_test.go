package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/netlist"
)

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(Config{})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func designJSON(t *testing.T, name string) json.RawMessage {
	t.Helper()
	raw, err := netlist.MarshalJSON(designs.Lookup(name).Build())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestHTTPSynthesize(t *testing.T) {
	_, ts := newTestServer(t)
	req := JSONRequest{Design: designJSON(t, "Podium Timer 3")}

	httpResp, cold := postJSON(t, ts.URL+"/v1/synthesize", req)
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", httpResp.StatusCode, cold)
	}
	if got := httpResp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}
	httpResp, warm := postJSON(t, ts.URL+"/v1/synthesize", req)
	if got := httpResp.Header.Get("X-Cache"); got != "memory" {
		t.Errorf("second request X-Cache = %q, want memory", got)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("cached HTTP response body differs from cold body")
	}

	var decoded Response
	if err := json.Unmarshal(cold, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.InnerBefore != 8 || decoded.InnerAfter != 3 {
		t.Errorf("podium timer 3: %d -> %d, want 8 -> 3", decoded.InnerBefore, decoded.InnerAfter)
	}
	// The synthesized design in the response reloads through the same
	// wire form.
	if _, err := netlist.UnmarshalJSON(decoded.Synthesized, designs.Lookup("Podium Timer 3").Build().Registry()); err != nil {
		t.Errorf("synthesized design does not reload: %v", err)
	}
}

func TestHTTPSynthesizeEBK(t *testing.T) {
	_, ts := newTestServer(t)
	ebk := netlist.Serialize(designs.Lookup("Noise At Night Detector").Build())
	httpResp, body := postJSON(t, ts.URL+"/v1/synthesize", JSONRequest{EBK: ebk})
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", httpResp.StatusCode, body)
	}
	var decoded Response
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Design != "NoiseAtNightDetector" && decoded.Design == "" {
		t.Errorf("unexpected design name %q", decoded.Design)
	}
}

func TestHTTPPartition(t *testing.T) {
	_, ts := newTestServer(t)
	httpResp, body := postJSON(t, ts.URL+"/v1/partition", JSONRequest{Design: designJSON(t, "Podium Timer 3")})
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", httpResp.StatusCode, body)
	}
	var decoded PartitionResponse
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.InnerAfter != 3 || len(decoded.Partitions)+len(decoded.Uncovered) != 3 {
		t.Errorf("partition response = %+v", decoded)
	}
}

func TestHTTPBatch(t *testing.T) {
	_, ts := newTestServer(t)
	br := BatchRequest{}
	var names []string
	for _, e := range designs.Library()[:6] {
		br.Requests = append(br.Requests, JSONRequest{Design: designJSON(t, e.Name)})
		names = append(names, e.Name)
	}
	httpResp, body := postJSON(t, ts.URL+"/v1/batch", br)
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", httpResp.StatusCode, body)
	}
	var decoded BatchResponse
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Responses) != len(names) {
		t.Fatalf("got %d responses, want %d", len(decoded.Responses), len(names))
	}
	for i, r := range decoded.Responses {
		if r == nil || r.Synthesized == nil {
			t.Errorf("response %d (%s) incomplete", i, names[i])
		}
	}
}

func TestHTTPAlgorithmsStatsHealth(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, algo := range []string{"paredown", "exhaustive", "aggregation", "hetero"} {
		if !strings.Contains(string(body), algo) {
			t.Errorf("algorithms response missing %q: %s", algo, body)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name   string
		path   string
		body   string
		status int
	}{
		{"malformed json", "/v1/synthesize", "{", http.StatusBadRequest},
		{"no design", "/v1/synthesize", "{}", http.StatusBadRequest},
		{"both forms", "/v1/synthesize", `{"design": {"name":"x"}, "ebk": "design x"}`, http.StatusBadRequest},
		{"bad algorithm", "/v1/synthesize", `{"ebk": "design g\n\nblock s Button\nblock led LED\nconnect s.y -> led.a\n", "algorithm": "nope"}`, http.StatusUnprocessableEntity},
		{"bad batch", "/v1/batch", `{"requests": [{}]}`, http.StatusBadRequest},
		{"inputs past the port cap", "/v1/synthesize", `{"ebk": "design g\n\nblock s Button\nblock n Not\nblock led LED\nconnect s.y -> n.a\nconnect n.y -> led.a\n", "maxInputs": 65, "maxOutputs": 2}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body not JSON with error field: %s", tc.name, body)
		}
	}

	// GET on a POST endpoint.
	resp, err := http.Get(ts.URL + "/v1/synthesize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET synthesize status %d, want 405", resp.StatusCode)
	}
}

// TestHTTPConcurrent fires concurrent synthesize requests at the
// server and checks all bodies for a given design agree (run with
// -race in CI).
func TestHTTPConcurrent(t *testing.T) {
	svc, ts := newTestServer(t)
	names := []string{"Podium Timer 3", "Noise At Night Detector", "Two-Zone Security"}
	payloads := map[string][]byte{}
	for _, n := range names {
		raw, _ := json.Marshal(JSONRequest{Design: designJSON(t, n)})
		payloads[n] = raw
	}

	const goroutines = 12
	const rounds = 5
	bodies := make([]map[string]string, goroutines)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bodies[w] = map[string]string{}
			for r := 0; r < rounds; r++ {
				name := names[(w+r)%len(names)]
				resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", bytes.NewReader(payloads[name]))
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", name, resp.StatusCode)
					return
				}
				if prev, ok := bodies[w][name]; ok && prev != string(body) {
					errs <- fmt.Errorf("%s: divergent bodies across requests", name)
					return
				}
				bodies[w][name] = string(body)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Cross-goroutine agreement.
	for _, name := range names {
		var ref string
		for w := 0; w < goroutines; w++ {
			if b, ok := bodies[w][name]; ok {
				if ref == "" {
					ref = b
				} else if b != ref {
					t.Errorf("%s: goroutine %d saw different bytes", name, w)
				}
			}
		}
	}
	if st := svc.Stats(); st.Errors != 0 {
		t.Errorf("service errors = %d", st.Errors)
	}
}
