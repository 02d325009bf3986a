package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// manualClock is a deterministic test clock advanced explicitly.
type manualClock struct{ t time.Time }

func newManualClock() *manualClock {
	return &manualClock{t: time.Unix(1_700_000_000, 0)}
}
func (c *manualClock) Now() time.Time          { return c.t }
func (c *manualClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

// testSlog returns a text slog logger with timestamps stripped, so its output
// is byte-deterministic.
func testSlog(buf *bytes.Buffer) *slog.Logger {
	return slog.New(slog.NewTextHandler(buf, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey && len(groups) == 0 {
				return slog.Attr{}
			}
			return a
		},
	}))
}

func TestReqTracerDeterministicSampling(t *testing.T) {
	sink := NewMemorySink()
	o := New(sink)
	o.DisableTimestamps()
	clk := newManualClock()
	tr := NewReqTracer(o, ReqTracerConfig{SampleEvery: 3, Now: clk.Now})

	for i := 0; i < 9; i++ {
		rt := tr.Start("dist", 1, 2, "")
		rt.Phase(ReqPhaseOracle, 5*time.Microsecond)
		clk.Advance(10 * time.Microsecond)
		tr.Finish(rt)
	}

	var roots, children int
	for _, e := range sink.Events() {
		if e.Type != SpanStart {
			continue
		}
		switch {
		case e.Name == ServeRequestSpan:
			roots++
		case IsServePhaseSpan(e.Name):
			children++
		}
	}
	if roots != 3 {
		t.Fatalf("SampleEvery=3 over 9 requests: %d sampled roots, want 3", roots)
	}
	if children != 3*int(NumReqPhases) {
		t.Fatalf("phase child spans = %d, want %d", children, 3*int(NumReqPhases))
	}
	if got := tr.traced.Value(); got != 3 {
		t.Fatalf("obs.req.traced = %d, want 3", got)
	}

	// The same workload samples identically on a fresh tracer.
	sink2 := NewMemorySink()
	o2 := New(sink2)
	o2.DisableTimestamps()
	clk2 := newManualClock()
	tr2 := NewReqTracer(o2, ReqTracerConfig{SampleEvery: 3, Now: clk2.Now})
	for i := 0; i < 9; i++ {
		rt := tr2.Start("dist", 1, 2, "")
		rt.Phase(ReqPhaseOracle, 5*time.Microsecond)
		clk2.Advance(10 * time.Microsecond)
		tr2.Finish(rt)
	}
	a, b := StripTimes(sink.Events()), StripTimes(sink2.Events())
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Type != b[i].Type || a[i].Span != b[i].Span {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestReqTracerPropagatesRequestID(t *testing.T) {
	sink := NewMemorySink()
	o := New(sink)
	tr := NewReqTracer(o, ReqTracerConfig{SampleEvery: 1})

	rt := tr.Start("path", 3, 9, "client-abc")
	if rt.ID != "client-abc" {
		t.Fatalf("propagated id lost: %q", rt.ID)
	}
	rt.Outcome(true, nil)
	tr.Finish(rt)

	gen := tr.Start("path", 3, 9, "")
	if !strings.HasPrefix(gen.ID, "r-") {
		t.Fatalf("generated id = %q, want r-<n>", gen.ID)
	}
	tr.Finish(gen)

	var found bool
	for _, e := range sink.Events() {
		if e.Type == SpanStart && e.Name == ServeRequestSpan && AttrStr(e.Attrs, AttrReqID) == "client-abc" {
			found = true
			if AttrStr(e.Attrs, "type") != "path" {
				t.Fatalf("span missing type attr: %+v", e.Attrs)
			}
		}
	}
	if !found {
		t.Fatal("no span carried the propagated request id")
	}
}

func TestReqTracerSlowQueryLog(t *testing.T) {
	var logBuf bytes.Buffer
	clk := newManualClock()
	o := New(NewMemorySink())
	tr := NewReqTracer(o, ReqTracerConfig{
		SampleEvery:   0, // sampling off: slow-query logging is independent
		SlowThreshold: 2 * time.Millisecond,
		Logger:        testSlog(&logBuf),
		Now:           clk.Now,
	})

	// Fast request: no log line.
	rt := tr.Start("dist", 1, 2, "fast-1")
	clk.Advance(500 * time.Microsecond)
	tr.Finish(rt)
	if logBuf.Len() != 0 {
		t.Fatalf("fast request logged: %s", logBuf.String())
	}

	// Slow request: logged with the full phase breakdown.
	rt = tr.Start("route", 4, 8, "slow-1")
	rt.Phase(ReqPhaseAdmission, 1*time.Millisecond)
	rt.Phase(ReqPhaseOracle, 2*time.Millisecond)
	rt.Outcome(false, nil)
	clk.Advance(3 * time.Millisecond)
	tr.Finish(rt)

	line := logBuf.String()
	for _, want := range []string{
		"slow query", "req_id=slow-1", "type=route", "u=4", "v=8",
		"total_us=3000", "admission_us=1000", "oracle_us=2000", "cache_us=0",
	} {
		if !strings.Contains(line, want) {
			t.Fatalf("slow-query log missing %q:\n%s", want, line)
		}
	}
	if got := tr.slow.Value(); got != 1 {
		t.Fatalf("obs.req.slow = %d, want 1", got)
	}

	// Deterministic: an identical run produces the identical log line.
	var logBuf2 bytes.Buffer
	clk2 := newManualClock()
	tr2 := NewReqTracer(New(NewMemorySink()), ReqTracerConfig{
		SlowThreshold: 2 * time.Millisecond, Logger: testSlog(&logBuf2), Now: clk2.Now,
	})
	rt = tr2.Start("dist", 1, 2, "fast-1")
	clk2.Advance(500 * time.Microsecond)
	tr2.Finish(rt)
	rt = tr2.Start("route", 4, 8, "slow-1")
	rt.Phase(ReqPhaseAdmission, 1*time.Millisecond)
	rt.Phase(ReqPhaseOracle, 2*time.Millisecond)
	rt.Outcome(false, nil)
	clk2.Advance(3 * time.Millisecond)
	tr2.Finish(rt)
	if logBuf2.String() != line {
		t.Fatalf("slow-query log not deterministic:\n%q\nvs\n%q", logBuf2.String(), line)
	}
}

func TestReqTraceNilSafety(t *testing.T) {
	var tr *ReqTracer
	rt := tr.Start("dist", 1, 2, "x")
	if rt != nil {
		t.Fatal("nil tracer must return nil trace")
	}
	rt.Phase(ReqPhaseAdmission, time.Millisecond) // no panic
	rt.Outcome(true, nil)
	if rt.Sampled() {
		t.Fatal("nil trace cannot be sampled")
	}
	if d := tr.Finish(rt); d != 0 {
		t.Fatalf("nil finish = %v", d)
	}
}

func TestReqPhaseString(t *testing.T) {
	want := []string{"admission", "cache", "oracle"}
	for p := ReqPhase(0); p < NumReqPhases; p++ {
		if p.String() != want[p] {
			t.Fatalf("phase %d = %q, want %q", p, p.String(), want[p])
		}
	}
	if ReqPhase(200).String() != "invalid" {
		t.Fatal("out-of-range phase should stringify as invalid")
	}
}
