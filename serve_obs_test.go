package spanner_test

// Integration test reconciling the two independent accountings of serving
// cost this module keeps: the per-phase durations a request trace records
// (emitted as the sampled span tree) and the serve.phase_ns registry
// histograms the engine feeds directly. With SampleEvery=1 every request is
// sampled, so the nanoseconds attributed to each phase must agree exactly —
// both paths observe the same clock readings.

import (
	"testing"

	"spanner"
)

func obsStrAttr(e spanner.TraceEvent, key string) string {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Str()
		}
	}
	return ""
}

func TestServeTraceReconcilesWithPhaseHistograms(t *testing.T) {
	art := buildServeArtifact(t, 300, 3, 11)
	mem := spanner.NewMemorySink()
	ob := spanner.NewObserver(mem)
	tracer := spanner.NewRequestTracer(ob, spanner.RequestTracerConfig{SampleEvery: 1})
	eng, err := spanner.NewServeEngine(art, spanner.ServeConfig{
		CacheSize: 64, Obs: ob, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Serial mixed workload: misses, cache hits (repeats) and every query
	// type, so all three phases accumulate nonzero time.
	queries := 0
	n := int32(art.Graph.N())
	for rep := 0; rep < 2; rep++ {
		for u := int32(0); u < n; u += 29 {
			for v := int32(1); v < n; v += 37 {
				if _, err := eng.Dist(u, v); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Path(u, v); err != nil {
					t.Fatal(err)
				}
				queries += 2
			}
		}
	}
	eng.Close()
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}

	events := mem.Events()
	phases := []string{"admission", "cache", "oracle"}

	// Accounting 1: the sampled span trees. Every request must have emitted
	// a serve.request root, and each phase child carries its dur_ns.
	spanNS := map[string]int64{}
	requestSpans := 0
	requestIDs := map[int64]bool{}
	for _, e := range events {
		switch {
		case e.Type == "span_start" && e.Name == "serve.request":
			requestSpans++
			requestIDs[e.Span] = true
		case e.Type == "span_start" && len(e.Name) > 6 && e.Name[:6] == "serve.":
			if !requestIDs[e.Parent] {
				t.Fatalf("phase span %s (id %d) not parented under a serve.request span", e.Name, e.Span)
			}
		case e.Type == "span_end" && len(e.Name) > 6 && e.Name[:6] == "serve." && e.Name != "serve.request":
			spanNS[e.Name[6:]] += obsAttr(e, "dur_ns")
		}
	}
	if requestSpans != queries {
		t.Fatalf("emitted %d serve.request spans for %d queries (SampleEvery=1 must trace all)",
			requestSpans, queries)
	}

	// Accounting 2: the serve.phase_ns histograms flushed into the trace as
	// metric events (histogram value = exact sum of observations).
	histNS := map[string]int64{}
	for _, e := range events {
		if e.Type == "metric" && e.Name == "serve.phase_ns" {
			histNS[obsStrAttr(e, "label.phase")] = obsAttr(e, "value")
		}
	}

	for _, p := range phases {
		if histNS[p] == 0 && spanNS[p] == 0 {
			t.Fatalf("phase %q accumulated no time in either accounting", p)
		}
		if spanNS[p] != histNS[p] {
			t.Fatalf("phase %q: span trees sum to %dns, serve.phase_ns histogram to %dns",
				p, spanNS[p], histNS[p])
		}
	}
}
