// Package serve is the query-serving subsystem: a concurrent query engine
// over a loaded build artifact. It is the consumption side of the
// build-once/query-many split the paper's applications motivate — the
// distributed builders produce a spanner, distance oracle and routing
// scheme once; this engine answers millions of Dist/Path/Route queries
// against the frozen result.
//
// Architecture. Query and QueryBatch evaluate on the caller's goroutine;
// the engine starts no goroutine of its own except the optional brownout
// controller. Admission control is one atomic in-flight counter checked
// against Config.MaxInFlight: a request arriving at the limit is refused
// with ErrOverloaded rather than waiting, and a batch entry whose deadline
// has passed when its turn comes is refused with ErrDeadline instead of
// wasting compute on an answer nobody is waiting for. QueryBatch answers
// its entries in order, one after another; parallelism across requests
// comes from the transports — a goroutine per wire connection, which
// answers its frames in order, and one per HTTP request. The per-query
// rules (priority range, AllowDegraded) are checked here too, so the
// transports only translate their encodings into Requests. Results are
// memoized in per-type LRU caches split into GOMAXPROCS partitions by
// endpoint pair, each guarded by a mutex held only for the lookup or the
// insert.
//
// Hot swap. The current Snapshot hangs off an atomic pointer. Swap installs
// a new generation in one store; each request pins the snapshot pointer
// once after admission, so in-flight queries finish on the generation they
// started with while new requests see the new one — no locks, no drain, no
// dropped or torn answers. Cache partitions are tagged with the generation
// they hold and reset on first use under a newer one; a request pinned to
// an older generation bypasses them.
//
// All counters and latency histograms flow through internal/obs; a nil
// Observer disables them at the cost of nil checks.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spanner/internal/artifact"
	"spanner/internal/graph"
	"spanner/internal/obs"
)

// QueryType selects which table a request consults.
type QueryType uint8

const (
	// QueryDist is an approximate distance from the Thorup–Zwick oracle
	// (stretch ≤ 2K−1, O(K) time).
	QueryDist QueryType = iota
	// QueryPath is an explicit shortest path inside the spanner subgraph.
	QueryPath
	// QueryRoute is the compact-routing path: the hop sequence a packet
	// takes using only per-vertex Õ(√n) tables and the destination address.
	QueryRoute
	numQueryTypes
)

var queryTypeNames = [numQueryTypes]string{"dist", "path", "route"}

func (t QueryType) String() string {
	if t < numQueryTypes {
		return queryTypeNames[t]
	}
	return "invalid"
}

// ParseQueryType parses "dist", "path" or "route".
func ParseQueryType(s string) (QueryType, error) {
	for i, name := range queryTypeNames {
		if s == name {
			return QueryType(i), nil
		}
	}
	return 0, ErrBadQuery
}

// Priority classifies a request for load shedding. The zero value is
// PriorityHigh, so callers that never think about priorities get the
// protected class.
type Priority uint8

const (
	// PriorityHigh is interactive traffic, served for as long as the engine
	// can serve anything.
	PriorityHigh Priority = iota
	// PriorityLow is batch/backfill traffic, the first thing shed when the
	// SLO monitor pages and the engine browns out.
	PriorityLow
)

// ParsePriority parses "high"/"" or "low".
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "high":
		return PriorityHigh, nil
	case "low":
		return PriorityLow, nil
	}
	return 0, errors.New("serve: unknown priority")
}

func (p Priority) String() string {
	if p == PriorityLow {
		return "low"
	}
	return "high"
}

// Typed rejection errors, matchable with errors.Is.
var (
	// ErrOverloaded reports a request refused at the in-flight limit
	// (admission control).
	ErrOverloaded = errors.New("serve: overloaded, in-flight limit reached")
	// ErrDeadline reports a request whose deadline had passed when its
	// evaluation was due to start.
	ErrDeadline = errors.New("serve: deadline exceeded before execution")
	// ErrClosed reports a request submitted after Close began.
	ErrClosed = errors.New("serve: engine closed")
	// ErrBadVertex reports an endpoint outside the snapshot's vertex range.
	ErrBadVertex = errors.New("serve: vertex out of range")
	// ErrBadQuery reports an unknown query type. A priority above
	// PriorityLow, or AllowDegraded on a non-distance query, is refused
	// with its own detail text that also matches ErrBadQuery.
	ErrBadQuery = errors.New("serve: unknown query type")
	// ErrNoRoute reports a routing failure (disconnected endpoints or a
	// corrupt header); wraps the routing package's error text.
	ErrNoRoute = errors.New("serve: no route")
	// ErrBrownout reports low-priority traffic shed while the engine is in
	// brownout (the SLO monitor paged). Retrying immediately will not help;
	// back off until the burn subsides.
	ErrBrownout = errors.New("serve: brownout, low-priority traffic shed")
	// ErrPartitioned reports a query type a partition member cannot serve:
	// route queries need the full graph's edges to validate hops, which a
	// part snapshot does not hold. Ask an unpartitioned engine (or the
	// router, which refuses it with the same error).
	ErrPartitioned = errors.New("serve: query not served by a partition member")

	errBadPriority     error = badQuery("bad priority")
	errDegradedNonDist error = badQuery("allowDegraded applies to dist queries only")
)

// badQuery is a malformed request with its own detail text; it matches
// ErrBadQuery under errors.Is, so transports map it like an unknown type.
type badQuery string

func (e badQuery) Error() string        { return string(e) }
func (e badQuery) Is(target error) bool { return target == ErrBadQuery }

// Request is one query.
type Request struct {
	Type QueryType
	U, V int32
	// Priority classifies the request for brownout shedding; the zero value
	// is PriorityHigh. A value above PriorityLow is refused as a bad query.
	Priority Priority
	// AllowDegraded asks for the snapshot's landmark-distance upper bound,
	// flagged Degraded, instead of the exact oracle estimate. It applies
	// to QueryDist only (any other type is refused as a bad query) and is
	// answered outside admission control, brownout shedding and Close —
	// the cluster router sets it when quorum is lost. See DegradedDist.
	AllowDegraded bool
	// Deadline, when non-zero, rejects the request if its evaluation has
	// not started by that instant (in a batch, earlier entries run first).
	// The zero value applies Config.DefaultDeadline.
	Deadline time.Time
	// Trace, when non-nil, is a caller-owned request trace (e.g. started by
	// an HTTP handler with a propagated request id). The engine stamps phase
	// durations and the outcome into it but never finishes it — the caller
	// does. When nil and Config.Tracer is set, the engine starts and
	// finishes its own trace for the request.
	Trace *obs.ReqTrace
	// Transport labels which transport delivered the request ("json",
	// "wire"; "" for embedded callers). Stamped into the request trace so
	// span trees and the slow-query log attribute latency to the transport
	// that carried it.
	Transport string
}

// Reply is one query's outcome.
type Reply struct {
	Type QueryType
	U, V int32
	// Dist is the oracle estimate (QueryDist) or the hop length of the
	// returned path (QueryPath/QueryRoute); graph.Unreachable when there is
	// no path.
	Dist int32
	// Path is the vertex sequence for QueryPath/QueryRoute (nil for
	// QueryDist or unreachable pairs).
	Path []int32
	// Bound is QueryRoute's cached-landmark-distance upper bound on the
	// landmark route, or — for Composed distance replies — the certified
	// lower bound max_t |d(u,t)−d(t,v)| ≤ dist(u,v) (graph.Unreachable when
	// undefined).
	Bound int32
	// Cached reports whether the answer came from the engine's LRU.
	Cached bool
	// Degraded reports a brownout fallback answer: a landmark-distance upper
	// bound instead of the exact oracle estimate, served at the in-flight
	// limit rather than failing the request. Always explicitly flagged,
	// never silently substituted.
	Degraded bool
	// Composed reports a cross-partition distance answer on a part snapshot:
	// Dist is the landmark-relay upper bound min_t(d(u,t)+d(t,v)) and Bound
	// carries the matching lower bound, because at least one endpoint's
	// oracle bunch lives in another partition. Always explicitly flagged.
	Composed bool
	// SnapshotID identifies the artifact generation that answered.
	SnapshotID int64
	// Err is nil on success or one of the typed errors above.
	Err error
}

// Config tunes an Engine. The zero value picks sensible defaults.
type Config struct {
	// MaxInFlight bounds the evaluations running at once across all
	// callers; a request arriving at the limit is refused with
	// ErrOverloaded (under brownout a distance query gets the Degraded
	// landmark bound instead). 0 means 1024·GOMAXPROCS.
	MaxInFlight int
	// CacheSize is each cache partition's per-query-type LRU capacity
	// (there are GOMAXPROCS partitions); 0 means 4096, negative disables
	// caching.
	CacheSize int
	// DefaultDeadline, when positive, is applied to batch entries with a
	// zero Deadline, counted from the start of the QueryBatch call.
	DefaultDeadline time.Duration
	// Obs receives serve.* counters and latency histograms (nil = off).
	Obs *obs.Observer
	// Tracer enables request-scoped tracing. Requests that arrive with a
	// caller-owned Trace (HTTP handlers always attach one) get full
	// per-phase timing, the slow-query log and — when sampled — a span
	// tree. About 1 in the tracer's SampleEvery admitted requests without
	// one are traced too; the unsampled majority runs at bare-engine cost.
	// Per-phase serve.phase_ns histograms are fed by every traced request
	// (nil = off).
	Tracer *obs.ReqTracer
	// SLO, when non-nil, receives one availability/latency observation per
	// request.
	SLO *obs.SLOMonitor
	// MaxBatch is the batch-size limit the engine advertises via MaxBatch();
	// 0 means 1024. The engine itself does not reject oversized QueryBatch
	// calls — the serving front end enforces the advertised limit, which
	// shrinks under brownout.
	MaxBatch int
	// BrownoutPoll, when positive and SLO is set, starts the brownout
	// controller: a goroutine polling the SLO monitor every BrownoutPoll
	// that enters brownout when the burn-rate status pages and leaves it
	// after the burn has been back to "ok" for BrownoutHold.
	BrownoutPoll time.Duration
	// BrownoutHold is the minimum time after the last page before brownout
	// lifts; 0 means 10×BrownoutPoll.
	BrownoutHold time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 1024 * runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.BrownoutHold <= 0 {
		c.BrownoutHold = 10 * c.BrownoutPoll
	}
	return c
}

// rejectReason labels one serve.rejects series.
type rejectReason uint8

const (
	rejectOverload rejectReason = iota
	rejectDeadline
	rejectVertex
	rejectType
	rejectClosed
	rejectBrownout
	rejectPartition
	numRejectReasons
)

var rejectReasonNames = [numRejectReasons]string{"overload", "deadline", "vertex", "type", "closed", "brownout", "partition"}

// Engine is the query engine. Create with New, stop with Close.
type Engine struct {
	cfg  Config
	snap atomic.Pointer[Snapshot]
	// installMu orders generation ids with their publication: snapSeq is
	// advanced and the snapshot stored under it, so concurrent swaps can
	// never publish an older generation over a newer one.
	installMu sync.Mutex
	snapSeq   int64

	// inflight counts admitted evaluations. Once closed is set, admission
	// refuses everything and the evaluation that brings inflight to zero
	// closes drained, which Close waits on.
	inflight  atomic.Int64
	closed    atomic.Bool
	closeOnce sync.Once
	drainOnce sync.Once
	drained   chan struct{}

	// parts are the result-cache partitions (nil when caching is off);
	// scratch pools path-query search state (*graph.PathScratch).
	parts   []cachePart
	scratch sync.Pool

	// brownout is the load-shedding flag: set by the controller goroutine
	// when the SLO monitor pages (or by SetBrownout), read once per request.
	brownout atomic.Bool
	// stop ends the brownout controller on Close (nil when no controller).
	stop chan struct{}
	wg   sync.WaitGroup

	// testHook, when non-nil, runs at the start of each admitted
	// evaluation, after the snapshot is pinned; tests use it to hold
	// evaluations in flight deterministically.
	testHook func()

	// Request-scoped observability (nil-safe; tracer and SLO are in cfg).
	phaseNS [obs.NumReqPhases]*obs.Histogram
	// timed reports whether anything consumes per-request clock readings.
	timed bool

	// Metrics (nil-safe no-ops without an Observer).
	queries   [numQueryTypes]*obs.Counter
	hits      [numQueryTypes]*obs.Counter
	misses    [numQueryTypes]*obs.Counter
	latency   [numQueryTypes]*obs.Histogram
	rejects   [numRejectReasons]*obs.Counter
	degraded  *obs.Counter
	composed  *obs.Counter
	brownouts *obs.Counter
	swaps     *obs.Counter
	batches   *obs.Histogram
	routeHops *obs.Histogram
	routeGain *obs.Histogram

	// updateMu serializes ApplyDelta calls: each delta binds to a specific
	// base generation, so concurrent applies must observe each other.
	updateMu sync.Mutex
	// applyHook, when non-nil, runs in ApplyDelta between patching the
	// base and installing the result; tests use it to land a Swap there.
	applyHook   func()
	updates     *obs.Counter
	updateErrs  *obs.Counter
	updateUS    *obs.Histogram
	updAdmitted *obs.Counter
	updFiltered *obs.Counter
	updRepaired *obs.Counter
	updRebuilds *obs.Counter
}

// New builds an engine over the artifact.
func New(a *artifact.Artifact, cfg Config) (*Engine, error) {
	if a == nil || a.Graph == nil || a.Spanner == nil || a.Oracle == nil || a.Routing == nil {
		return nil, errors.New("serve: incomplete artifact")
	}
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg, drained: make(chan struct{})}
	reg := cfg.Obs.Registry()
	for t := QueryType(0); t < numQueryTypes; t++ {
		lbl := obs.Label{Key: "type", Value: t.String()}
		e.queries[t] = reg.Counter("serve.queries", lbl)
		e.hits[t] = reg.Counter("serve.cache.hits", lbl)
		e.misses[t] = reg.Counter("serve.cache.misses", lbl)
		e.latency[t] = reg.Histogram("serve.latency_us", lbl)
	}
	for r, name := range rejectReasonNames {
		e.rejects[r] = reg.Counter("serve.rejects", obs.Label{Key: "reason", Value: name})
	}
	e.degraded = reg.Counter("serve.degraded")
	e.composed = reg.Counter("serve.composed")
	e.brownouts = reg.Counter("serve.brownouts")
	e.swaps = reg.Counter("serve.swaps")
	e.updates = reg.Counter("serve.updates")
	e.updateErrs = reg.Counter("serve.update.errors")
	e.updateUS = reg.Histogram("serve.update.latency_us")
	e.updAdmitted = reg.Counter("serve.update.admitted")
	e.updFiltered = reg.Counter("serve.update.filtered")
	e.updRepaired = reg.Counter("serve.update.repaired")
	e.updRebuilds = reg.Counter("serve.update.rebuilds")
	e.batches = reg.Histogram("serve.batch_size")
	e.routeHops = reg.Histogram("serve.route.hops")
	e.routeGain = reg.Histogram("serve.route.bound_minus_hops")
	e.timed = cfg.Obs != nil || cfg.SLO != nil || cfg.Tracer != nil
	for p := obs.ReqPhase(0); p < obs.NumReqPhases; p++ {
		e.phaseNS[p] = reg.Histogram("serve.phase_ns", obs.Label{Key: "phase", Value: p.String()})
	}
	if cfg.CacheSize > 0 {
		e.parts = make([]cachePart, runtime.GOMAXPROCS(0))
		for i := range e.parts {
			for t := range e.parts[i].lru {
				e.parts[i].lru[t] = newLRU(cfg.CacheSize)
			}
		}
	}
	e.scratch.New = func() any { return new(graph.PathScratch) }

	snap := newSnapshot(a)
	snap.ID, e.snapSeq = 1, 1
	e.snap.Store(snap)
	if cfg.SLO != nil && cfg.BrownoutPoll > 0 {
		e.stop = make(chan struct{})
		e.wg.Add(1)
		go e.brownoutLoop()
	}
	return e, nil
}

// brownoutLoop is the brownout controller: enter brownout when the SLO
// monitor's multi-window burn rate pages, leave once it has read "ok" for
// BrownoutHold past the last page. "warn" holds the current state — the
// hysteresis that keeps the engine from flapping between full service and
// shedding at the page threshold.
func (e *Engine) brownoutLoop() {
	defer e.wg.Done()
	tick := time.NewTicker(e.cfg.BrownoutPoll)
	defer tick.Stop()
	var lastPage time.Time
	for {
		select {
		case <-e.stop:
			return
		case now := <-tick.C:
			switch e.cfg.SLO.Report().Status {
			case "page":
				lastPage = now
				if !e.brownout.Load() {
					e.brownout.Store(true)
					e.brownouts.Inc()
				}
			case "ok":
				if e.brownout.Load() && !lastPage.IsZero() && now.Sub(lastPage) >= e.cfg.BrownoutHold {
					e.brownout.Store(false)
				}
			}
		}
	}
}

// Brownout reports whether the engine is currently shedding load.
func (e *Engine) Brownout() bool { return e.brownout.Load() }

// SetBrownout forces the brownout state — the operator override (and the
// test hook). A running controller may later flip it again: it re-enters
// brownout on the next page, and lifts a forced brownout only after a page
// has occurred and cleared.
func (e *Engine) SetBrownout(on bool) {
	if on && !e.brownout.Swap(true) {
		e.brownouts.Inc()
		return
	}
	if !on {
		e.brownout.Store(false)
	}
}

// MaxBatch returns the batch-size limit the serving front end should
// enforce right now: Config.MaxBatch normally, a quarter of it under
// brownout (large batches are the cheapest demand to refuse — one rejection
// sheds hundreds of queries without touching interactive traffic).
func (e *Engine) MaxBatch() int {
	max := e.cfg.MaxBatch
	if e.brownout.Load() {
		if max /= 4; max < 1 {
			max = 1
		}
	}
	return max
}

// SetTestHook installs h to run at the start of every admitted
// evaluation, after the snapshot is pinned: tests in other packages use it
// to hold evaluations in flight deterministically. nil removes it. Call it
// only while no query is running.
func (e *Engine) SetTestHook(h func()) { e.testHook = h }

// InFlight reports the number of evaluations currently admitted; spannerd
// exports it as the serve.inflight gauge.
func (e *Engine) InFlight() int { return int(e.inflight.Load()) }

// Snapshot returns the current serving generation.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// SnapshotID returns the current generation number.
func (e *Engine) SnapshotID() int64 { return e.snap.Load().ID }

// Swap atomically installs a new artifact under live traffic and returns
// the new generation id. Evaluations already running finish on the old
// snapshot; evaluations starting afterwards see the new one. The old
// snapshot is garbage once its last in-flight query completes.
func (e *Engine) Swap(a *artifact.Artifact) (int64, error) {
	if a == nil || a.Graph == nil || a.Spanner == nil || a.Oracle == nil || a.Routing == nil {
		return 0, errors.New("serve: incomplete artifact")
	}
	id, _ := e.install(newSnapshot(a), nil)
	return id, nil
}

// install publishes snap as the next generation, counts the swap and
// returns its id. The snapshot is built before the call, outside the lock.
// A non-nil base makes the install conditional: if another install
// replaced base in the meantime, nothing is published and the error wraps
// artifact.ErrBaseMismatch.
func (e *Engine) install(snap, base *Snapshot) (int64, error) {
	e.installMu.Lock()
	defer e.installMu.Unlock()
	if cur := e.snap.Load(); base != nil && cur != base {
		return 0, fmt.Errorf("%w: generation %d replaced by %d during the apply",
			artifact.ErrBaseMismatch, base.ID, cur.ID)
	}
	e.snapSeq++
	snap.ID = e.snapSeq
	e.snap.Store(snap)
	e.swaps.Inc()
	return snap.ID, nil
}

// NewPart builds an engine serving one partition of a split artifact:
// distance queries between covered vertices are bit-identical to the
// unpartitioned oracle, distance queries with an uncovered endpoint come
// back as flagged Composed landmark brackets, path queries stay exact
// everywhere (every part carries the full spanner), and route queries are
// refused with ErrPartitioned.
func NewPart(p *artifact.Part, cfg Config) (*Engine, error) {
	if p == nil || p.Art == nil {
		return nil, errors.New("serve: nil part")
	}
	e, err := New(p.Art, cfg)
	if err != nil {
		return nil, err
	}
	// Reinstall the initial snapshot with the part metadata attached — no
	// queries have run yet, so reusing the generation id is safe.
	snap := newPartSnapshot(p)
	snap.ID = e.snap.Load().ID
	e.snap.Store(snap)
	return e, nil
}

// SwapPart atomically installs a new partition generation under live
// traffic, the part-snapshot counterpart of Swap.
func (e *Engine) SwapPart(p *artifact.Part) (int64, error) {
	if p == nil || p.Art == nil || p.Art.Graph == nil || p.Art.Spanner == nil || p.Art.Oracle == nil || p.Art.Routing == nil {
		return 0, errors.New("serve: incomplete part")
	}
	id, _ := e.install(newPartSnapshot(p), nil)
	return id, nil
}

// part hashes an endpoint pair to a cache partition, so repeated queries
// for the same pair land on the same LRU.
func (e *Engine) part(u, v int32) *cachePart {
	h := uint32(u)*2654435761 ^ uint32(v)*0x85ebca6b
	h ^= h >> 16
	return &e.parts[h%uint32(len(e.parts))]
}

// sloFailed reports whether a reply counts against the availability
// objective. ErrNoRoute is a valid answer about the graph, and
// ErrPartitioned a correct refusal of a query type this member does not
// serve — neither is an availability failure.
func sloFailed(err error) bool {
	return err != nil && !errors.Is(err, ErrNoRoute) && !errors.Is(err, ErrPartitioned)
}

// call is one request's observability context while it is answered.
type call struct {
	rt    *obs.ReqTrace
	owned bool      // engine started rt and must finish it
	t0    time.Time // request start, read only for traced requests
}

// finish closes out a request's observability: outcome into the trace, an
// owned trace finished, and the SLO observation. start is the request's
// first clock reading and end its completion instant; either is zero when
// the request was refused before the engine read the clock.
func (e *Engine) finish(c *call, r *Reply, start, end time.Time) {
	if c.rt == nil && e.cfg.SLO == nil {
		return
	}
	if end.IsZero() {
		end = time.Now()
	}
	if c.rt != nil {
		c.rt.Outcome(r.Cached, r.Err)
		if c.owned {
			e.cfg.Tracer.FinishAt(c.rt, end)
		}
	}
	if e.cfg.SLO != nil {
		var lat time.Duration
		if !start.IsZero() {
			lat = end.Sub(start)
		}
		e.cfg.SLO.RecordAt(sloFailed(r.Err), lat, end)
	}
}

// phase stamps a traced request's phase duration into the trace and the
// serve.phase_ns histogram.
func (e *Engine) phase(c *call, p obs.ReqPhase, d time.Duration) {
	c.rt.Phase(p, d)
	e.phaseNS[p].Observe(d.Nanoseconds())
}

// admit takes an in-flight slot, or reports why none is available. A
// successful admit must be paired with release.
func (e *Engine) admit() error {
	n := e.inflight.Add(1)
	if e.closed.Load() {
		e.release()
		return ErrClosed
	}
	if n > int64(e.cfg.MaxInFlight) {
		e.release()
		return ErrOverloaded
	}
	return nil
}

// release returns an in-flight slot; the last one out after Close wakes it.
func (e *Engine) release() {
	if e.inflight.Add(-1) == 0 && e.closed.Load() {
		e.drainOnce.Do(func() { close(e.drained) })
	}
}

// query answers one request on the calling goroutine. deadline applies
// when req carries none.
//
// Observability cost discipline: a request is traced when the caller
// supplied a Trace (HTTP handlers always do) or when the tracer's 1-in-N
// sampler fires on an admitted request. Only traced requests read the
// clock beyond the two readings the latency histogram takes; the
// unsampled majority pays the sampler's hash of the first one, keeping
// full observability within a few percent of a bare engine (asserted by
// TestObservabilityOverhead).
func (e *Engine) query(req Request, deadline time.Time) (r Reply) {
	r = Reply{Type: req.Type, U: req.U, V: req.V}
	c := call{rt: req.Trace}
	if c.rt != nil {
		c.t0 = time.Now()
		if req.Transport != "" {
			c.rt.Transport = req.Transport
		}
	}
	if req.Type >= numQueryTypes {
		return e.refuse(&c, r, ErrBadQuery, rejectType, c.t0)
	}
	if req.Priority > PriorityLow {
		return e.refuse(&c, r, errBadPriority, rejectType, c.t0)
	}
	if req.AllowDegraded {
		if req.Type != QueryDist {
			return e.refuse(&c, r, errDegradedNonDist, rejectType, c.t0)
		}
		r = e.DegradedDist(req.U, req.V)
		e.finish(&c, &r, c.t0, c.t0)
		return r
	}
	// Brownout shedding: one atomic load on the no-fault path (asserted
	// within the resilience-overhead budget by TestResilienceOverhead).
	if req.Priority == PriorityLow && e.brownout.Load() {
		return e.refuse(&c, r, ErrBrownout, rejectBrownout, c.t0)
	}
	if err := e.admit(); err == ErrClosed {
		return e.refuse(&c, r, err, rejectClosed, c.t0)
	} else if err != nil && (req.Type != QueryDist || !e.brownout.Load()) {
		return e.refuse(&c, r, err, rejectOverload, c.t0)
	} else if err != nil {
		// Brownout fallback: over the in-flight limit, a distance query
		// gets the snapshot's landmark bound — an upper bound, flagged
		// Degraded — instead of a 503.
		r = e.DegradedDist(req.U, req.V)
		e.finish(&c, &r, c.t0, c.t0)
		return r
	}
	defer e.release()

	snap := e.snap.Load()
	r.SnapshotID = snap.ID
	if h := e.testHook; h != nil {
		h()
	}
	if req.Deadline.IsZero() {
		req.Deadline = deadline
	}
	start := c.t0
	if start.IsZero() && (e.timed || !req.Deadline.IsZero()) {
		start = time.Now()
		if rt, ok := e.cfg.Tracer.Sample(req.Type.String(), req.U, req.V, start); ok {
			c.rt, c.owned, c.t0 = rt, true, start
			rt.Transport = req.Transport
		}
	}
	if !req.Deadline.IsZero() && start.After(req.Deadline) {
		return e.refuse(&c, r, ErrDeadline, rejectDeadline, start)
	}
	if n := int32(snap.N()); req.U < 0 || req.U >= n || req.V < 0 || req.V >= n {
		return e.refuse(&c, r, ErrBadVertex, rejectVertex, start)
	}
	// Admission: everything before the cache lookup. A traced request
	// marks its phase boundaries as offsets from start, which read only the
	// monotonic clock.
	var lookup time.Duration
	if c.rt != nil {
		lookup = time.Since(start)
		e.phase(&c, obs.ReqPhaseAdmission, lookup)
	}

	var p *cachePart
	var cv cacheVal
	key := cacheKey(req.U, req.V)
	if e.parts != nil {
		p = e.part(req.U, req.V)
		if cv, r.Cached = p.get(req.Type, snap.ID, key); r.Cached {
			e.hits[req.Type].Inc()
		} else {
			e.misses[req.Type].Inc()
		}
	}
	eval, evaluated := lookup, lookup
	if !r.Cached {
		if c.rt != nil {
			eval = time.Since(start)
		}
		cv = e.evaluate(snap, req)
		if evaluated = eval; c.rt != nil {
			evaluated = time.Since(start)
			e.phase(&c, obs.ReqPhaseOracle, evaluated-eval)
		}
		if p != nil {
			p.put(req.Type, snap.ID, key, cv)
		}
	}
	r.Dist, r.Bound, r.Path, r.Err, r.Composed = cv.dist, cv.bound, cv.path, cv.err, cv.composed
	e.queries[req.Type].Inc()
	var end time.Time
	if !start.IsZero() {
		end = time.Now()
	}
	if c.rt != nil {
		// Cache time is the lookup plus, on a miss, the insert.
		e.phase(&c, obs.ReqPhaseCache, eval-lookup+end.Sub(start)-evaluated)
	}
	e.latency[req.Type].Observe(end.Sub(start).Microseconds())
	e.finish(&c, &r, start, end)
	return r
}

// refuse answers r with err, counting the rejection under why; at is the
// latest clock reading the request has (zero if none).
func (e *Engine) refuse(c *call, r Reply, err error, why rejectReason, at time.Time) Reply {
	r.Err = err
	e.rejects[why].Inc()
	e.finish(c, &r, at, at)
	return r
}

// evaluate computes req's answer against snap.
func (e *Engine) evaluate(snap *Snapshot, req Request) cacheVal {
	cv := cacheVal{bound: graph.Unreachable}
	switch req.Type {
	case QueryDist:
		if req.U != req.V && (!snap.Covered(req.U) || !snap.Covered(req.V)) {
			// Part snapshot, endpoint bunch pruned away: the exact oracle
			// walk is not available here, so answer the landmark-relay
			// bracket, explicitly flagged Composed with its lower-bound
			// certificate in Bound.
			cv.dist, cv.bound = snap.ComposeDist(req.U, req.V)
			cv.composed = true
			e.composed.Inc()
		} else {
			cv.dist = snap.Art.Oracle.Query(req.U, req.V)
		}
	case QueryPath:
		ps := e.scratch.Get().(*graph.PathScratch)
		cv.path = snap.spanner.ShortestPath(req.U, req.V, ps)
		e.scratch.Put(ps)
		if cv.path == nil {
			cv.dist = graph.Unreachable
		} else {
			cv.dist = int32(len(cv.path) - 1)
		}
	case QueryRoute:
		if snap.part != nil {
			// The part graph lacks foreign edges, so the routing tables'
			// hop validation would fail spuriously; refuse instead of
			// producing unusable routes.
			cv.dist = graph.Unreachable
			cv.err = ErrPartitioned
			e.rejects[rejectPartition].Inc()
			break
		}
		path, err := snap.Art.Routing.Route(req.U, req.V)
		cv.bound = snap.RouteBound(req.U, req.V)
		if err != nil {
			cv.dist = graph.Unreachable
			cv.err = errors.Join(ErrNoRoute, err)
		} else {
			cv.path = path
			cv.dist = int32(len(path) - 1)
			e.routeHops.Observe(int64(len(path) - 1))
			if cv.bound != graph.Unreachable {
				e.routeGain.Observe(int64(cv.bound) - int64(len(path)-1))
			}
		}
	}
	return cv
}

// DegradedDist answers a distance query from the snapshot's cached
// landmark arrays: an upper bound on the true distance, flagged Degraded,
// outside admission control. This is the same estimator the brownout
// over-limit fallback serves, and what a Request with AllowDegraded gets;
// the cluster router asks for it when quorum is lost and an exact
// committed-generation answer cannot be guaranteed.
func (e *Engine) DegradedDist(u, v int32) Reply {
	snap := e.snap.Load()
	r := Reply{Type: QueryDist, U: u, V: v, SnapshotID: snap.ID}
	if n := int32(snap.N()); u < 0 || u >= n || v < 0 || v >= n {
		r.Err = ErrBadVertex
		e.rejects[rejectVertex].Inc()
		return r
	}
	r.Dist = snap.ApproxDist(u, v)
	r.Degraded = true
	e.degraded.Inc()
	e.queries[QueryDist].Inc()
	return r
}

// Query answers one request on the calling goroutine.
func (e *Engine) Query(req Request) Reply { return e.query(req, time.Time{}) }

// QueryBatch answers a batch in input order on the calling goroutine.
// Each entry is admitted on its own, so rejections surface as per-reply
// errors, never as lost entries; DefaultDeadline counts from the call.
func (e *Engine) QueryBatch(reqs []Request) []Reply {
	var deadline time.Time
	if e.cfg.DefaultDeadline > 0 {
		deadline = time.Now().Add(e.cfg.DefaultDeadline)
	}
	replies := make([]Reply, len(reqs))
	for i := range reqs {
		replies[i] = e.query(reqs[i], deadline)
	}
	e.batches.Observe(int64(len(reqs)))
	return replies
}

// Dist answers a distance query.
func (e *Engine) Dist(u, v int32) (int32, error) {
	r := e.Query(Request{Type: QueryDist, U: u, V: v})
	return r.Dist, r.Err
}

// Path answers a spanner-path query.
func (e *Engine) Path(u, v int32) ([]int32, error) {
	r := e.Query(Request{Type: QueryPath, U: u, V: v})
	return r.Path, r.Err
}

// Route answers a compact-routing query.
func (e *Engine) Route(u, v int32) ([]int32, error) {
	r := e.Query(Request{Type: QueryRoute, U: u, V: v})
	return r.Path, r.Err
}

// Close stops admission, waits for the evaluations already in flight and
// stops the brownout controller; later requests get ErrClosed. Safe to
// call twice.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		if e.inflight.Load() > 0 {
			<-e.drained
		}
		if e.stop != nil {
			close(e.stop)
		}
		e.wg.Wait()
	})
}

func cacheKey(u, v int32) int64 { return int64(u)<<32 | int64(uint32(v)) }
