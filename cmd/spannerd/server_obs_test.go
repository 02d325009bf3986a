package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spanner/internal/obs"
	"spanner/internal/serve"
)

// testObsServer builds a fully instrumented server: every request traced,
// slow queries logged to logBuf, SLO monitored.
func testObsServer(t *testing.T, logBuf *bytes.Buffer) (*httptest.Server, *obs.MemorySink) {
	t.Helper()
	a := testArtifact(t, 80, 21)
	sink := obs.NewMemorySink()
	ob := obs.New(sink)
	logger := slog.New(slog.NewTextHandler(logBuf, nil))
	tracer := obs.NewReqTracer(ob, obs.ReqTracerConfig{
		SampleEvery:   1,
		SlowThreshold: 5 * time.Second, // nothing in-test is this slow
		Logger:        logger,
	})
	slo := obs.NewSLOMonitor(obs.SLOConfig{Window: time.Minute})
	eng, err := serve.New(a, serve.Config{CacheSize: 64, Obs: ob, Tracer: tracer, SLO: slo})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng, ob, serverOpts{tracer: tracer, slo: slo, logger: logger}).routes())
	t.Cleanup(func() { ts.Close(); eng.Close() })
	return ts, sink
}

func TestRequestIDPropagation(t *testing.T) {
	var logBuf bytes.Buffer
	ts, sink := testObsServer(t, &logBuf)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/query?type=dist&u=1&v=2", nil)
	req.Header.Set("X-Request-Id", "edge-7f3a")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "edge-7f3a" {
		t.Fatalf("response X-Request-Id = %q, want the propagated id", got)
	}

	// Without a client id the server generates one.
	resp2, err := http.Get(ts.URL + "/query?type=dist&u=2&v=3")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); !strings.HasPrefix(got, "r-") {
		t.Fatalf("generated X-Request-Id = %q", got)
	}

	// The propagated id reached the span tree, with phase children under it.
	var rootSpan int64
	for _, e := range sink.Events() {
		if e.Type == obs.SpanStart && e.Name == obs.ServeRequestSpan &&
			obs.AttrStr(e.Attrs, obs.AttrReqID) == "edge-7f3a" {
			rootSpan = e.Span
		}
	}
	if rootSpan == 0 {
		t.Fatal("no serve.request span carried the propagated id")
	}
	phases := map[string]bool{}
	for _, e := range sink.Events() {
		if e.Type == obs.SpanStart && e.Parent == rootSpan {
			phases[e.Name] = true
		}
	}
	for _, want := range []string{"serve.admission", "serve.cache", "serve.oracle"} {
		if !phases[want] {
			t.Fatalf("span tree missing phase %s (have %v)", want, phases)
		}
	}
}

// TestMetriczPrometheusRoundTrip asserts the acceptance criterion: the
// /metricz?format=prom output parses cleanly with the strict exposition
// parser and carries the serving metrics.
func TestMetriczPrometheusRoundTrip(t *testing.T) {
	var logBuf bytes.Buffer
	ts, _ := testObsServer(t, &logBuf)
	for i := 0; i < 20; i++ {
		r, err := http.Get(ts.URL + fmt.Sprintf("/query?type=dist&u=%d&v=%d", i%40, 79-i%40))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metricz?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	samples, err := obs.ParsePrometheusText(resp.Body)
	if err != nil {
		t.Fatalf("exposition did not round-trip: %v", err)
	}
	byName := obs.PromSamplesByName(samples)

	var qdist float64
	for _, s := range byName["serve_queries"] {
		if s.Label("type") == "dist" {
			qdist = s.Value
		}
	}
	if qdist < 20 {
		t.Fatalf("serve_queries{type=dist} = %v, want >= 20", qdist)
	}
	if len(byName["serve_latency_us_bucket"]) == 0 {
		t.Fatal("no serve_latency_us histogram buckets in exposition")
	}
	if len(byName["serve_phase_ns_bucket"]) == 0 {
		t.Fatal("no per-phase latency buckets in exposition")
	}
	if g := byName["serve_inflight"]; len(g) != 1 || g[0].Value != 0 {
		t.Fatalf("serve_inflight gauge = %+v, want one sample reading 0 between requests", g)
	}
	// +Inf bucket equals _count for each histogram series.
	counts := map[string]float64{}
	for _, s := range byName["serve_latency_us_count"] {
		counts[s.Label("type")] = s.Value
	}
	for _, s := range byName["serve_latency_us_bucket"] {
		if s.Label("le") == "+Inf" && s.Value != counts[s.Label("type")] {
			t.Fatalf("+Inf bucket %v != count %v for type=%s", s.Value, counts[s.Label("type")], s.Label("type"))
		}
	}
}

func TestMetriczJSONCarriesHistSnapshots(t *testing.T) {
	var logBuf bytes.Buffer
	ts, _ := testObsServer(t, &logBuf)
	for i := 0; i < 10; i++ {
		r, err := http.Get(ts.URL + fmt.Sprintf("/query?type=dist&u=%d&v=%d", i, i+1))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metrics []metricJSON
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, m := range metrics {
		if m.Series == "serve.latency_us{type=dist}" {
			found = true
			if m.Hist == nil || m.Hist.Count != m.Count {
				t.Fatalf("histogram series missing mergeable snapshot: %+v", m)
			}
			// Sub-µs queries legitimately quantize to p50=0, so assert
			// against the carried snapshot rather than positivity: the
			// convenience percentiles must be exactly what the mergeable
			// histogram computes, and ordered.
			if m.P50 != m.Hist.Quantile(0.50) || m.P99 != m.Hist.Quantile(0.99) || m.P99 < m.P50 {
				t.Fatalf("percentiles wrong: p50=%d p99=%d, snapshot says p50=%d p99=%d",
					m.P50, m.P99, m.Hist.Quantile(0.50), m.Hist.Quantile(0.99))
			}
		}
	}
	if !found {
		t.Fatal("metricz JSON missing serve.latency_us{type=dist}")
	}
}

// TestSLOEndpointAndHealthDegradation forces a 100%-failure workload and
// checks that /slo reports a paging burn rate, /healthz stays live, and
// /readyz flips to 503.
func TestSLOEndpointAndHealthDegradation(t *testing.T) {
	var logBuf bytes.Buffer
	ts, _ := testObsServer(t, &logBuf)

	// Healthy first.
	resp, err := http.Get(ts.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.SLOReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep.Status != "ok" || rep.AvailabilityObjective != 0.999 {
		t.Fatalf("idle SLO report: %+v", rep)
	}

	// Every request fails (vertex out of range) -> availability burn far
	// above the page threshold in both windows, deterministically.
	for i := 0; i < 30; i++ {
		r, err := http.Get(ts.URL + "/query?type=dist&u=0&v=99999")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	resp2, err := http.Get(ts.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp2.Body).Decode(&rep)
	resp2.Body.Close()
	if rep.Status != "page" {
		t.Fatalf("all-failing workload: status %q, want page (%+v)", rep.Status, rep)
	}
	if rep.Long.Errors != 30 || rep.Fast.AvailabilityBurn < 14.4 {
		t.Fatalf("burn accounting: %+v", rep)
	}

	// Liveness stays 200 under a paging SLO — a supervisor restarting on
	// /healthz must not kill a server that is merely degraded — while
	// readiness flips to 503 so load balancers shed.
	h, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d under page, want 200 (liveness)", h.StatusCode)
	}
	var health map[string]any
	json.NewDecoder(h.Body).Decode(&health)
	if health["status"] != "ok" || health["slo"] != "page" {
		t.Fatalf("healthz body: %v", health)
	}
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz status %d under page, want 503", rz.StatusCode)
	}
	var readiness map[string]any
	json.NewDecoder(rz.Body).Decode(&readiness)
	if readiness["ready"] != false || readiness["reason"] != "slo-page" {
		t.Fatalf("readyz body: %v", readiness)
	}
}
