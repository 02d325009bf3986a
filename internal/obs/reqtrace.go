package obs

import (
	"log/slog"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped tracing for the serving stack. A ReqTracer hands out
// ReqTraces; the engine stamps per-phase durations into one as the request
// moves through admission, the cache and the oracle; Finish turns the
// timeline into the request's span tree plus a structured slow-query log
// line when over threshold. Traces exist for
// every caller-started request (HTTP handlers propagate ids and always
// trace) and for a 1-in-N Sample of engine-internal ones; for the
// unsampled majority the hot-path cost is a multiply and a compare — no
// shared write, no allocation, no clock read beyond the engine's own two.

// ReqPhase indexes one phase of a served request's lifecycle.
type ReqPhase uint8

const (
	// ReqPhaseAdmission covers everything before the cache lookup: type,
	// brownout and in-flight checks, the snapshot pin, and the deadline and
	// vertex checks.
	ReqPhaseAdmission ReqPhase = iota
	// ReqPhaseCache is the LRU lookup (and, on miss, the insert).
	ReqPhaseCache
	// ReqPhaseOracle is the actual evaluation: oracle query, spanner path
	// extraction or route computation.
	ReqPhaseOracle
	// NumReqPhases is the number of request phases.
	NumReqPhases
)

var reqPhaseNames = [NumReqPhases]string{"admission", "cache", "oracle"}

// reqPhaseSpanNames are the emitted span names ("serve." + phase),
// precomputed so the sampled-emission path does no string building.
var reqPhaseSpanNames = [NumReqPhases]string{
	"serve.admission", "serve.cache", "serve.oracle",
}

func (p ReqPhase) String() string {
	if p < NumReqPhases {
		return reqPhaseNames[p]
	}
	return "invalid"
}

// ReqTrace is one request's trace context: a propagated request ID plus the
// per-phase duration breakdown. A nil *ReqTrace is a valid no-op, so the
// engine threads it unconditionally. A ReqTrace is owned by one request at a
// time and must not be touched after Finish returns it to the pool.
type ReqTrace struct {
	// ID is the propagated request id (X-Request-Id or generated).
	ID string
	// Kind is the request's query type ("dist", "path", "route", "batch").
	Kind string
	// U, V are the request endpoints.
	U, V int32
	// Cached reports whether the reply came from the engine's LRU.
	Cached bool
	// Err is the terminal error string ("" on success).
	Err string
	// Transport labels the transport that carried the request ("json",
	// "wire"; "" for embedded callers). The engine stamps it from
	// Request.Transport so span trees and slow-query records attribute
	// latency to the delivering transport.
	Transport string
	// PhaseNS holds the per-phase durations in nanoseconds.
	PhaseNS [NumReqPhases]int64

	start   time.Time
	sampled bool
}

// Phase adds d to the trace's accounting for phase p. Nil-safe.
func (t *ReqTrace) Phase(p ReqPhase, d time.Duration) {
	if t == nil {
		return
	}
	t.PhaseNS[p] += d.Nanoseconds()
}

// Outcome stamps the request's terminal state. Nil-safe.
func (t *ReqTrace) Outcome(cached bool, err error) {
	if t == nil {
		return
	}
	t.Cached = cached
	if err != nil {
		t.Err = err.Error()
	}
}

// Sampled reports whether Finish will emit this request's span tree.
func (t *ReqTrace) Sampled() bool { return t != nil && t.sampled }

// ReqTracerConfig tunes a ReqTracer.
type ReqTracerConfig struct {
	// SampleEvery emits the full span tree for 1 in SampleEvery requests
	// (1 = every request, 0 = never). Start samples by a deterministic
	// counter, so a fixed workload always samples the same requests;
	// Sample, the engine's path for requests without a caller-owned trace,
	// draws by a hash of the request's start instant.
	SampleEvery int
	// SlowThreshold logs any request slower than this through Logger with
	// its full phase breakdown, independent of sampling (0 = disabled).
	SlowThreshold time.Duration
	// Logger receives slow-query records (nil disables the slow-query log
	// even with a threshold set).
	Logger *slog.Logger
	// Now overrides the clock (tests; nil = time.Now).
	Now func() time.Time
}

// ReqTracer creates and finishes request traces. A nil *ReqTracer disables
// request-scoped tracing at the cost of nil checks.
type ReqTracer struct {
	obs  *Observer
	cfg  ReqTracerConfig
	seq  atomic.Int64 // request-id generator
	tick atomic.Int64 // Start's sampling counter
	// sampleMax is Sample's threshold: a request is sampled when the hash
	// of its start instant does not exceed it.
	sampleMax uint64
	pool      sync.Pool

	traced *Counter // obs.req.traced
	slow   *Counter // obs.req.slow
}

// NewReqTracer returns a tracer emitting sampled span trees into o's trace
// and slow-query records into cfg.Logger.
func NewReqTracer(o *Observer, cfg ReqTracerConfig) *ReqTracer {
	t := &ReqTracer{obs: o, cfg: cfg}
	if cfg.SampleEvery > 0 {
		t.sampleMax = math.MaxUint64 / uint64(cfg.SampleEvery)
	}
	t.pool.New = func() any { return new(ReqTrace) }
	reg := o.Registry()
	t.traced = reg.Counter("obs.req.traced")
	t.slow = reg.Counter("obs.req.slow")
	return t
}

func (t *ReqTracer) now() time.Time {
	if t.cfg.Now != nil {
		return t.cfg.Now()
	}
	return time.Now()
}

// Start opens a trace for one request. id == "" generates a sequential
// r-<n> id. Returns nil (a valid no-op trace) on a nil tracer.
func (t *ReqTracer) Start(kind string, u, v int32, id string) *ReqTrace {
	if t == nil {
		return nil
	}
	rt := t.pool.Get().(*ReqTrace)
	*rt = ReqTrace{Kind: kind, U: u, V: v, ID: id, start: t.now()}
	if rt.ID == "" {
		rt.ID = "r-" + strconv.FormatInt(t.seq.Add(1), 10)
	}
	if n := int64(t.cfg.SampleEvery); n > 0 {
		rt.sampled = t.tick.Add(1)%n == 0
	}
	return rt
}

// Sample opens a trace, started at the caller's clock reading at, for
// about 1 in SampleEvery requests, chosen by a hash of at: the unsampled
// majority costs a multiply and a compare — no shared write, no
// allocation, no clock read. The serving engine uses this for requests
// without a caller-owned trace.
func (t *ReqTracer) Sample(kind string, u, v int32, at time.Time) (*ReqTrace, bool) {
	if t == nil || t.cfg.SampleEvery <= 0 || uint64(at.UnixNano())*0x9e3779b97f4a7c15 > t.sampleMax {
		return nil, false
	}
	rt := t.pool.Get().(*ReqTrace)
	*rt = ReqTrace{Kind: kind, U: u, V: v, start: at, sampled: true}
	rt.ID = "r-" + strconv.FormatInt(t.seq.Add(1), 10)
	return rt, true
}

// Finish closes the trace: emits the sampled span tree, writes the
// slow-query record if over threshold, and recycles rt (the caller must not
// use rt afterwards). Returns the request's total duration. Nil-safe on
// both receiver and argument.
func (t *ReqTracer) Finish(rt *ReqTrace) time.Duration {
	if t == nil || rt == nil {
		return 0
	}
	return t.FinishAt(rt, t.now())
}

// FinishAt is Finish with a caller-supplied end instant, for callers that
// already hold a fresh clock reading (the engine's completion timestamp).
func (t *ReqTracer) FinishAt(rt *ReqTrace, end time.Time) time.Duration {
	if t == nil || rt == nil {
		return 0
	}
	total := end.Sub(rt.start)
	if rt.sampled && t.obs != nil {
		t.traced.Inc()
		startAttrs := []Attr{S(AttrReqID, rt.ID), S("type", rt.Kind), I("u", int64(rt.U)), I("v", int64(rt.V))}
		if rt.Transport != "" {
			startAttrs = append(startAttrs, S("transport", rt.Transport))
		}
		cached := int64(0)
		if rt.Cached {
			cached = 1
		}
		endAttrs := []Attr{I("cached", cached), I(AttrDurNS, total.Nanoseconds())}
		if rt.Err != "" {
			endAttrs = append(endAttrs, S("err", rt.Err))
		}
		var children [NumReqPhases]SpanRec
		for p := ReqPhase(0); p < NumReqPhases; p++ {
			d := rt.PhaseNS[p]
			children[p] = SpanRec{Name: reqPhaseSpanNames[p], Dur: time.Duration(d),
				EndAttrs: []Attr{I(AttrDurNS, d)}}
		}
		t.obs.RecordSpanTree(
			SpanRec{Name: "serve.request", Dur: total, StartAttrs: startAttrs, EndAttrs: endAttrs},
			children[:])
	}
	if t.cfg.SlowThreshold > 0 && total >= t.cfg.SlowThreshold && t.cfg.Logger != nil {
		t.slow.Inc()
		t.cfg.Logger.Warn("slow query",
			"req_id", rt.ID,
			"type", rt.Kind,
			"transport", rt.Transport,
			"u", rt.U,
			"v", rt.V,
			"total_us", total.Microseconds(),
			"admission_us", rt.PhaseNS[ReqPhaseAdmission]/1000,
			"cache_us", rt.PhaseNS[ReqPhaseCache]/1000,
			"oracle_us", rt.PhaseNS[ReqPhaseOracle]/1000,
			"cached", rt.Cached,
			"err", rt.Err,
		)
	}
	t.pool.Put(rt)
	return total
}
