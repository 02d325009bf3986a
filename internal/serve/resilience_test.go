package serve

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spanner/internal/graph"
	"spanner/internal/obs"
)

func TestBrownoutShedsLowPriority(t *testing.T) {
	a := testArtifact(t, 200, 1)
	e, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	e.SetBrownout(true)
	if !e.Brownout() {
		t.Fatal("SetBrownout(true) did not take")
	}
	low := e.Query(Request{Type: QueryDist, U: 0, V: 5, Priority: PriorityLow})
	if !errors.Is(low.Err, ErrBrownout) {
		t.Fatalf("low-priority under brownout: %v, want ErrBrownout", low.Err)
	}
	high := e.Query(Request{Type: QueryDist, U: 0, V: 5})
	if high.Err != nil || high.Degraded {
		t.Fatalf("high-priority under brownout must serve exactly: %+v", high)
	}

	e.SetBrownout(false)
	low = e.Query(Request{Type: QueryDist, U: 0, V: 5, Priority: PriorityLow})
	if low.Err != nil {
		t.Fatalf("low-priority after brownout lifts: %v", low.Err)
	}
}

// TestDegradedDistOverLimit holds the engine at its in-flight limit and
// checks the brownout fallback: distance queries get a landmark upper
// bound flagged Degraded, other query types still shed, and without
// brownout the same overload is a plain rejection.
func TestDegradedDistOverLimit(t *testing.T) {
	a := testArtifact(t, 200, 2)
	e, err := New(a, Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	h := hold(e, 1)
	held := h.start(e, Request{Type: QueryDist, U: 0, V: 1})
	defer func() {
		close(h.release)
		<-held
	}()

	// At the limit, no brownout: plain overload.
	r := e.Query(Request{Type: QueryDist, U: 3, V: 9})
	if !errors.Is(r.Err, ErrOverloaded) {
		t.Fatalf("at the limit without brownout: %v, want ErrOverloaded", r.Err)
	}

	e.SetBrownout(true)
	r = e.Query(Request{Type: QueryDist, U: 3, V: 9})
	if r.Err != nil || !r.Degraded {
		t.Fatalf("degraded fallback: %+v", r)
	}
	if r.Dist == graph.Unreachable || r.Dist < 0 {
		t.Fatalf("degraded distance %d not a finite bound", r.Dist)
	}
	if r.SnapshotID == 0 {
		t.Fatal("degraded reply must stamp the answering generation")
	}
	// The bound is an upper bound on the true graph distance.
	dist, _ := a.Graph.BFSWithParents(3)
	if truth := dist[9]; truth != graph.Unreachable && r.Dist < truth {
		t.Fatalf("degraded bound %d below true distance %d", r.Dist, truth)
	}
	// Bad vertices still reject, degraded mode or not.
	r = e.Query(Request{Type: QueryDist, U: -1, V: 9})
	if !errors.Is(r.Err, ErrBadVertex) || r.Degraded {
		t.Fatalf("bad vertex under brownout: %+v", r)
	}
	// Non-distance queries have no cheap fallback: still a rejection.
	r = e.Query(Request{Type: QueryPath, U: 3, V: 9})
	if !errors.Is(r.Err, ErrOverloaded) {
		t.Fatalf("path query under brownout overload: %v, want ErrOverloaded", r.Err)
	}
}

// TestBrownoutControllerPagesAndRecovers drives the SLO monitor through a
// page (error burn far above threshold) and back, and watches the
// controller enter and leave brownout on its own.
func TestBrownoutControllerPagesAndRecovers(t *testing.T) {
	a := testArtifact(t, 100, 3)
	var fake atomic.Int64
	fake.Store(time.Now().UnixNano())
	now := func() time.Time { return time.Unix(0, fake.Load()) }
	slo := obs.NewSLOMonitor(obs.SLOConfig{Window: 12 * time.Second, Now: now})
	e, err := New(a, Config{
		SLO:          slo,
		BrownoutPoll: 2 * time.Millisecond,
		BrownoutHold: 6 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (slo status %q)", what, slo.Report().Status)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Burn hard: half of a large sample fails.
	for i := 0; i < 400; i++ {
		slo.RecordAt(i%2 == 0, time.Millisecond, now())
	}
	if st := slo.Report().Status; st != "page" {
		t.Fatalf("burn did not page: %q", st)
	}
	waitFor("brownout entry", e.Brownout)

	// The bad seconds age out of the window; the controller holds brownout
	// for BrownoutHold past the last page, then lifts it.
	fake.Store(now().Add(13 * time.Second).UnixNano())
	if st := slo.Report().Status; st != "ok" {
		t.Fatalf("expired window still %q", st)
	}
	waitFor("brownout exit", func() bool { return !e.Brownout() })
}

func TestMaxBatchShrinksUnderBrownout(t *testing.T) {
	a := testArtifact(t, 100, 4)
	e, err := New(a, Config{MaxBatch: 400})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := e.MaxBatch(); got != 400 {
		t.Fatalf("MaxBatch %d, want 400", got)
	}
	e.SetBrownout(true)
	if got := e.MaxBatch(); got != 100 {
		t.Fatalf("MaxBatch under brownout %d, want 100", got)
	}
	e.SetBrownout(false)

	e2, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := e2.MaxBatch(); got != 1024 {
		t.Fatalf("default MaxBatch %d, want 1024", got)
	}
}

// TestRequestRules pins the per-query rules both transports rely on, in
// their order: type, then priority, then AllowDegraded. An AllowDegraded
// dist query gets DegradedDist's flagged bound even when brownout would
// shed it or the engine is closed.
func TestRequestRules(t *testing.T) {
	a := testArtifact(t, 50, 3)
	e, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		req    Request
		detail string
	}{
		{Request{Type: QueryType(9), Priority: 7, AllowDegraded: true, U: 0, V: 1}, ErrBadQuery.Error()},
		{Request{Type: QueryPath, Priority: 7, AllowDegraded: true, U: 0, V: 1}, "bad priority"},
		{Request{Type: QueryRoute, AllowDegraded: true, U: 0, V: 1}, "allowDegraded applies to dist queries only"},
	} {
		r := e.Query(c.req)
		if !errors.Is(r.Err, ErrBadQuery) || r.Err.Error() != c.detail {
			t.Fatalf("%+v: err %v, want ErrBadQuery with detail %q", c.req, r.Err, c.detail)
		}
	}
	want := e.DegradedDist(3, 9)
	check := func(when string) {
		t.Helper()
		for _, p := range []Priority{PriorityHigh, PriorityLow} {
			r := e.QueryBatch([]Request{{Type: QueryDist, U: 3, V: 9, Priority: p, AllowDegraded: true}})[0]
			if r.Err != nil || !r.Degraded || r.Dist != want.Dist || r.SnapshotID != want.SnapshotID {
				t.Fatalf("%s, priority %v: %+v, want the Degraded bound %+v", when, p, r, want)
			}
		}
	}
	check("healthy")
	e.SetBrownout(true)
	check("brownout")
	e.Close()
	check("closed")
}

func TestParsePriority(t *testing.T) {
	for s, want := range map[string]Priority{"": PriorityHigh, "high": PriorityHigh, "low": PriorityLow} {
		got, err := ParsePriority(s)
		if err != nil || got != want {
			t.Fatalf("ParsePriority(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePriority("urgent"); err == nil {
		t.Fatal("bad priority accepted")
	}
	if PriorityLow.String() != "low" || PriorityHigh.String() != "high" {
		t.Fatal("priority names")
	}
}

// TestResilienceOverhead is ISSUE 7's cost bar: the resilience layer — the
// brownout controller polling the SLO monitor plus the per-request priority
// check — costs at most 5% of serve throughput when no faults fire. Same
// min-of-rounds methodology as TestObservabilityOverhead (see there for the
// rationale).
func TestResilienceOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	if raceDetectorEnabled {
		t.Skip("throughput bar is not meaningful under the race detector; asserted unraced in make chaoscheck")
	}
	a := testArtifact(t, 2000, 42)
	pairs := obsBenchPairs(int32(a.Graph.N()))
	base := Config{CacheSize: 8192, Obs: obs.New(&countSink{})}
	resilient := base
	resilient.SLO = obs.NewSLOMonitor(obs.SLOConfig{})
	resilient.BrownoutPoll = 10 * time.Millisecond

	run := func(cfg Config) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			e, err := New(a, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			if e.Brownout() {
				b.Fatal("brownout with no faults firing")
			}
			b.ResetTimer()
			runThroughput(e, pairs, b)
		})
		return float64(res.NsPerOp())
	}

	// 12 rounds with first-pass early exit, as in TestObservabilityOverhead.
	const (
		maxRatio  = 1.05
		maxRounds = 12
	)
	bare, full := math.MaxFloat64, math.MaxFloat64
	var history []string
	for i := 0; i < maxRounds; i++ {
		b := run(base)
		f := run(resilient)
		bare = math.Min(bare, b)
		full = math.Min(full, f)
		history = append(history, fmt.Sprintf("round %d: bare %.0fns resilient %.0fns", i+1, b, f))
		if ratio := full / bare; ratio <= maxRatio {
			t.Logf("resilience overhead %.1f%% (best bare %.0fns, best resilient %.0fns, %d rounds)",
				(ratio-1)*100, bare, full, i+1)
			return
		}
		if paired := f / b; paired <= maxRatio {
			t.Logf("resilience overhead %.1f%% (paired round %d: bare %.0fns resilient %.0fns)",
				(paired-1)*100, i+1, b, f)
			return
		}
	}
	ratio := full / bare
	t.Fatalf("resilience overhead %.1f%% above the %.0f%% bar in every round, paired or min-vs-min (best bare %.0fns, best resilient %.0fns):\n%s",
		(ratio-1)*100, (maxRatio-1)*100, bare, full, strings.Join(history, "\n"))
}
