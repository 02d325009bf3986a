package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spanner/internal/obs"
)

func TestSplitSeries(t *testing.T) {
	name, labels := splitSeries("serve.latency_us{type=dist}")
	if name != "serve.latency_us" || labels["type"] != "dist" {
		t.Fatalf("got %q %v", name, labels)
	}
	name, labels = splitSeries("serve.swaps")
	if name != "serve.swaps" || labels != nil {
		t.Fatalf("got %q %v", name, labels)
	}
	_, labels = splitSeries("x{a=1}{b=2}")
	if labels["a"] != "1" || labels["b"] != "2" {
		t.Fatalf("multi-label parse: %v", labels)
	}
}

// fakeSpannerd serves a /metricz + /slo pair built from real obs types, so
// the dashboard's decoding is tested against the same wire shapes spannerd
// produces.
func fakeSpannerd(t *testing.T, queries int64, latUS []int64) *httptest.Server {
	t.Helper()
	h := obs.NewHistogram()
	for _, v := range latUS {
		h.Observe(v)
	}
	phase := obs.NewHistogram()
	for _, v := range latUS {
		phase.Observe(v * 1000) // ns
	}
	ms := []metric{
		{Kind: "counter", Series: "serve.queries{type=dist}", Value: float64(queries)},
		{Kind: "counter", Series: "serve.cache.hits{type=dist}", Value: float64(queries / 2)},
		{Kind: "counter", Series: "serve.cache.misses{type=dist}", Value: float64(queries - queries/2)},
		{Kind: "histogram", Series: "serve.latency_us{type=dist}", Count: h.Count(), Hist: h.Snapshot()},
		{Kind: "histogram", Series: "serve.phase_ns{phase=oracle}", Count: phase.Count(), Hist: phase.Snapshot()},
		{Kind: "gauge", Series: "serve.inflight", Value: 3},
		{Kind: "counter", Series: "obs.req.traced", Value: 7},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metricz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(ms)
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(obs.SLOReport{
			Status: "ok",
			Long:   obs.SLOWindowReport{Window: "1h0m0s", Availability: 1, LatencyCompliance: 1},
		})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestFetchAndRenderCumulative(t *testing.T) {
	ts := fakeSpannerd(t, 120, []int64{10, 20, 30, 40, 400})
	cl := &client{base: ts.URL, http: ts.Client()}
	f, err := cl.fetch()
	if err != nil {
		t.Fatal(err)
	}
	if !f.sloOK {
		t.Fatal("fetch dropped the SLO report")
	}
	var buf bytes.Buffer
	render(&buf, nil, f)
	out := buf.String()
	for _, want := range []string{
		"cumulative",
		"dist",            // traffic row
		"oracle",          // phase row
		"inflight: 3",     // in-flight gauge
		"traced: 7 spans", // tracing counters
		"slo: ok",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, out)
		}
	}
}

func TestRenderIntervalDiff(t *testing.T) {
	mk := func(q float64, lat []int64) map[string]metric {
		h := obs.NewHistogram()
		for _, v := range lat {
			h.Observe(v)
		}
		return map[string]metric{
			"serve.queries{type=dist}":      {Kind: "counter", Series: "serve.queries{type=dist}", Value: q},
			"serve.cache.hits{type=dist}":   {Kind: "counter", Series: "serve.cache.hits{type=dist}", Value: q / 4},
			"serve.cache.misses{type=dist}": {Kind: "counter", Series: "serve.cache.misses{type=dist}", Value: q - q/4},
			"serve.latency_us{type=dist}": {Kind: "histogram", Series: "serve.latency_us{type=dist}",
				Count: h.Count(), Hist: h.Snapshot()},
		}
	}
	t0 := time.Unix(1_700_000_000, 0)
	// Boot-to-prev latencies are all 10us; the interval adds only 5000us
	// observations. Interval percentiles must reflect 5000, not the
	// since-boot mix — that's the HistSnapshot.Sub contract end to end.
	slowTail := []int64{10, 10, 10, 10}
	prev := &frame{at: t0, metrics: mk(100, slowTail)}
	cur := &frame{at: t0.Add(5 * time.Second), metrics: mk(250, append(append([]int64{}, slowTail...), 5000, 5000, 5000))}

	var buf bytes.Buffer
	render(&buf, prev, cur)
	out := buf.String()
	if !strings.Contains(out, "last 5.0s") {
		t.Fatalf("missing interval header:\n%s", out)
	}
	// (250-100)/5s = 30 qps.
	if !strings.Contains(out, "30") {
		t.Fatalf("interval qps not rendered:\n%s", out)
	}
	lat := histDelta(prev, cur, "serve.latency_us{type=dist}")
	if lat.Count != 3 {
		t.Fatalf("interval histogram count = %d, want 3", lat.Count)
	}
	if q := lat.Quantile(0.50); q < 4800 || q > 5200 {
		t.Fatalf("interval p50 = %d, want ~5000 (not polluted by since-boot 10us samples)", q)
	}
}

func TestCounterDelta(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	prev := &frame{at: t0, metrics: map[string]metric{"c": {Value: 10}}}
	cur := &frame{at: t0.Add(time.Second), metrics: map[string]metric{"c": {Value: 35}}}
	if d := counterDelta(prev, cur, "c"); d != 25 {
		t.Fatalf("delta = %v", d)
	}
	if d := counterDelta(nil, cur, "c"); d != 35 {
		t.Fatalf("cumulative = %v", d)
	}
	// A series that appears mid-run diffs against zero.
	if d := counterDelta(prev, cur, "new"); d != 0 {
		t.Fatalf("absent series delta = %v", d)
	}
}
