// Package serve is the query-serving subsystem: a concurrent, sharded
// query engine over a loaded build artifact. It is the consumption side of
// the build-once/query-many split the paper's applications motivate — the
// distributed builders produce a spanner, distance oracle and routing
// scheme once; this engine answers millions of Dist/Path/Route queries
// against the frozen result.
//
// Architecture. An Engine owns a fixed set of shards. Each shard is one
// worker goroutine with a bounded request queue and private LRU result
// caches (one per query type), so the hot path touches no locks: requests
// hash to a shard by endpoint pair (concentrating repeats on the same
// cache), the worker answers from cache or computes against the current
// Snapshot, and replies flow back through per-request WaitGroups. Admission
// control is at enqueue time — a full queue rejects with ErrOverloaded
// rather than building unbounded backlog — and requests whose deadline
// passed while queued are rejected with ErrDeadline instead of wasting
// compute on answers nobody is waiting for.
//
// Hot swap. The current Snapshot hangs off an atomic pointer. Swap installs
// a new generation in one store; each request pins the snapshot pointer
// once at execution start, so in-flight queries finish on the generation
// they started with while new requests see the new one — no locks, no
// drain, no dropped or torn answers. Shard caches are keyed to the snapshot
// generation and self-invalidate on first use after a swap.
//
// All counters and latency histograms flow through internal/obs; a nil
// Observer disables them at the cost of nil checks.
package serve

import (
	"errors"
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
	// ErrOverloaded reports a full shard queue (admission control).
	ErrOverloaded = errors.New("serve: overloaded, shard queue full")
	// ErrDeadline reports a request whose deadline expired while queued.
	ErrDeadline = errors.New("serve: deadline exceeded before execution")
	// ErrClosed reports a request submitted after Close began.
	ErrClosed = errors.New("serve: engine closed")
	// ErrBadVertex reports an endpoint outside the snapshot's vertex range.
	ErrBadVertex = errors.New("serve: vertex out of range")
	// ErrBadQuery reports an unknown query type.
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
)

// Request is one query.
type Request struct {
	Type QueryType
	U, V int32
	// Priority classifies the request for brownout shedding; the zero value
	// is PriorityHigh.
	Priority Priority
	// Deadline, when non-zero, rejects the request if it is still queued at
	// that instant. The zero value applies Config.DefaultDeadline.
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
	// Cached reports whether the answer came from the shard's LRU.
	Cached bool
	// Degraded reports a brownout fallback answer: a landmark-distance upper
	// bound computed inline instead of the exact oracle estimate, served when
	// the shard queue is full rather than failing the request. Always
	// explicitly flagged, never silently substituted.
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
	// Shards is the number of worker goroutines (and cache partitions);
	// 0 means GOMAXPROCS.
	Shards int
	// QueueDepth is each shard's bounded queue length; 0 means 1024.
	QueueDepth int
	// CacheSize is each shard's per-query-type LRU capacity; 0 means 4096,
	// negative disables caching.
	CacheSize int
	// DefaultDeadline, when positive, is applied to requests with a zero
	// Deadline.
	DefaultDeadline time.Duration
	// Obs receives serve.* counters and latency histograms (nil = off).
	Obs *obs.Observer
	// Tracer enables request-scoped tracing. Requests that arrive with a
	// caller-owned Trace (HTTP handlers always attach one) get full
	// per-phase timing, the slow-query log and — when sampled — a span
	// tree. Requests without one are traced for a deterministic 1-in-N
	// sample per the tracer's config; the unsampled majority runs at
	// bare-engine cost. Per-phase serve.phase_ns histograms are fed by
	// every traced request (nil = off).
	Tracer *obs.ReqTracer
	// SLO, when non-nil, receives one availability/latency observation per
	// engine-owned request (requests carrying a caller-owned Trace are the
	// caller's to record, with the caller's notion of total latency).
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
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
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

// task is one queued unit of work: the request, where to write the reply,
// and the WaitGroup to release when done. When tracing or SLO recording is
// on, it also carries the request's trace context and submit/enqueue
// instants so the worker can attribute queue wait.
type task struct {
	req   Request
	reply *Reply
	wg    *sync.WaitGroup

	rt    *obs.ReqTrace
	owned bool      // engine started rt and must finish it
	t0    time.Time // submit entry (request start for engine-owned timing)
	enq   time.Time // enqueue instant (queue wait = dequeue - enq)
}

type shard struct {
	ch     chan task
	caches [numQueryTypes]*lruCache
	// epoch is the snapshot generation the caches hold answers for; a
	// mismatch on dequeue resets them (hot-swap invalidation).
	epoch   int64
	scratch pathScratch
}

// Engine is the sharded query engine. Create with New, stop with Close.
type Engine struct {
	cfg  Config
	snap atomic.Pointer[Snapshot]
	// installMu orders generation ids with their publication: snapSeq is
	// advanced and the snapshot stored under it, so concurrent swaps can
	// never publish an older generation over a newer one.
	installMu sync.Mutex
	snapSeq   int64
	shards    []*shard
	wg        sync.WaitGroup

	// mu guards closed against concurrent submits racing channel close.
	mu     sync.RWMutex
	closed bool

	// brownout is the load-shedding flag: set by the controller goroutine
	// when the SLO monitor pages (or by SetBrownout), read once per submit.
	brownout atomic.Bool
	// stop ends the brownout controller on Close (nil when no controller).
	stop chan struct{}

	// testHook, when non-nil, runs at the start of each task execution;
	// tests use it to hold a worker busy and back up a queue
	// deterministically.
	testHook func()

	// Request-scoped observability (all nil-safe).
	tracer  *obs.ReqTracer
	slo     *obs.SLOMonitor
	phaseNS [obs.NumReqPhases]*obs.Histogram

	// Metrics (nil-safe no-ops without an Observer).
	queries   [numQueryTypes]*obs.Counter
	hits      [numQueryTypes]*obs.Counter
	misses    [numQueryTypes]*obs.Counter
	latency   [numQueryTypes]*obs.Histogram
	rejects   map[string]*obs.Counter
	degraded  *obs.Counter
	composed  *obs.Counter
	brownouts *obs.Counter
	swaps     *obs.Counter
	batches   *obs.Histogram
	routeHops *obs.Histogram
	routeGain *obs.Histogram

	// updateMu serializes ApplyDelta calls: each delta binds to a specific
	// base generation, so concurrent applies must observe each other.
	updateMu    sync.Mutex
	updates     *obs.Counter
	updateErrs  *obs.Counter
	updateUS    *obs.Histogram
	updAdmitted *obs.Counter
	updFiltered *obs.Counter
	updRepaired *obs.Counter
	updRebuilds *obs.Counter
}

// New builds an engine over the artifact and starts its shard workers.
func New(a *artifact.Artifact, cfg Config) (*Engine, error) {
	if a == nil || a.Graph == nil || a.Spanner == nil || a.Oracle == nil || a.Routing == nil {
		return nil, errors.New("serve: incomplete artifact")
	}
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg, rejects: make(map[string]*obs.Counter)}
	reg := cfg.Obs.Registry()
	for t := QueryType(0); t < numQueryTypes; t++ {
		lbl := obs.Label{Key: "type", Value: t.String()}
		e.queries[t] = reg.Counter("serve.queries", lbl)
		e.hits[t] = reg.Counter("serve.cache.hits", lbl)
		e.misses[t] = reg.Counter("serve.cache.misses", lbl)
		e.latency[t] = reg.Histogram("serve.latency_us", lbl)
	}
	for _, reason := range []string{"overload", "deadline", "vertex", "type", "closed", "brownout", "partition"} {
		e.rejects[reason] = reg.Counter("serve.rejects", obs.Label{Key: "reason", Value: reason})
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
	e.tracer = cfg.Tracer
	e.slo = cfg.SLO
	for p := obs.ReqPhase(0); p < obs.NumReqPhases; p++ {
		e.phaseNS[p] = reg.Histogram("serve.phase_ns", obs.Label{Key: "phase", Value: p.String()})
	}

	e.install(newSnapshot(a))
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		s := &shard{ch: make(chan task, cfg.QueueDepth)}
		if cfg.CacheSize > 0 {
			for t := range s.caches {
				s.caches[t] = newLRU(cfg.CacheSize)
			}
		}
		e.shards[i] = s
		e.wg.Add(1)
		go e.worker(s)
	}
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
			switch e.slo.Report().Status {
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

// Snapshot returns the current serving generation.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// SnapshotID returns the current generation number.
func (e *Engine) SnapshotID() int64 { return e.snap.Load().ID }

// Swap atomically installs a new artifact under live traffic and returns
// the new generation id. Requests already executing finish on the old
// snapshot; requests dequeued afterwards see the new one. The old snapshot
// is garbage once its last in-flight query completes.
func (e *Engine) Swap(a *artifact.Artifact) (int64, error) {
	if a == nil || a.Graph == nil || a.Spanner == nil || a.Oracle == nil || a.Routing == nil {
		return 0, errors.New("serve: incomplete artifact")
	}
	id := e.install(newSnapshot(a))
	e.swaps.Inc()
	return id, nil
}

// install publishes snap as the next generation and returns its id. The
// snapshot is built before the call, outside the lock.
func (e *Engine) install(snap *Snapshot) int64 {
	e.installMu.Lock()
	defer e.installMu.Unlock()
	e.snapSeq++
	snap.ID = e.snapSeq
	e.snap.Store(snap)
	return snap.ID
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
	id := e.install(newPartSnapshot(p))
	e.swaps.Inc()
	return id, nil
}

// shardFor hashes an endpoint pair to a shard, so repeated queries for the
// same pair land on the same cache.
func (e *Engine) shardFor(u, v int32) *shard {
	h := uint32(u)*2654435761 ^ uint32(v)*0x85ebca6b
	h ^= h >> 16
	return e.shards[h%uint32(len(e.shards))]
}

// sloFailed reports whether a reply counts against the availability
// objective. ErrNoRoute is a valid answer about the graph, and
// ErrPartitioned a correct refusal of a query type this member does not
// serve — neither is an availability failure.
func sloFailed(err error) bool {
	return err != nil && !errors.Is(err, ErrNoRoute) && !errors.Is(err, ErrPartitioned)
}

// reject finishes a request answered (or refused) at admission time:
// outcome into the trace, the owned trace closed, and the SLO observation.
// A rejection records an availability miss; a degraded inline answer
// (Err == nil) records a success — that is the point of serving it.
// Admission completions are off the hot path, so the clock read is fine.
func (e *Engine) reject(t *task) {
	t.rt.Outcome(false, t.reply.Err)
	if t.owned {
		e.tracer.Finish(t.rt)
	}
	if e.slo != nil {
		now := time.Now()
		var lat time.Duration
		if !t.t0.IsZero() {
			lat = now.Sub(t.t0)
		}
		e.slo.RecordAt(sloFailed(t.reply.Err), lat, now)
	}
}

// submit enqueues a request. On rejection it fills the reply and returns
// false without touching wg; on success the worker will Done wg.
//
// Observability cost discipline: a request is traced when the caller
// supplied a Trace (HTTP handlers always do) or when the tracer's 1-in-N
// sampler fires. Only traced requests read the clock here; the unsampled
// majority pays one atomic add and reuses the two clock reads the worker
// makes anyway, keeping full observability within a few percent of a bare
// engine (asserted by TestObservabilityOverhead).
func (e *Engine) submit(req Request, r *Reply, wg *sync.WaitGroup) bool {
	t := task{req: req, reply: r, wg: wg, rt: req.Trace}
	if t.rt != nil {
		t.t0 = time.Now()
	} else if rt, ok := e.tracer.Sample(req.Type.String(), req.U, req.V); ok {
		t.rt = rt
		t.owned = true
		t.t0 = rt.Start()
	}
	if t.rt != nil && req.Transport != "" {
		t.rt.Transport = req.Transport
	}
	if req.Type >= numQueryTypes {
		*r = Reply{Type: req.Type, U: req.U, V: req.V, Err: ErrBadQuery}
		e.rejects["type"].Inc()
		e.reject(&t)
		return false
	}
	// Brownout shedding: one atomic load on the no-fault path (asserted
	// within the resilience-overhead budget by TestResilienceOverhead).
	if req.Priority == PriorityLow && e.brownout.Load() {
		*r = Reply{Type: req.Type, U: req.U, V: req.V, Err: ErrBrownout}
		e.rejects["brownout"].Inc()
		e.reject(&t)
		return false
	}
	if req.Deadline.IsZero() && e.cfg.DefaultDeadline > 0 {
		req.Deadline = time.Now().Add(e.cfg.DefaultDeadline)
		t.req.Deadline = req.Deadline
	}
	s := e.shardFor(req.U, req.V)
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		*r = Reply{Type: req.Type, U: req.U, V: req.V, Err: ErrClosed}
		e.rejects["closed"].Inc()
		e.reject(&t)
		return false
	}
	if t.rt != nil {
		// Admission covers type/deadline checks and shard hashing up to the
		// enqueue attempt.
		t.enq = time.Now()
		d := t.enq.Sub(t.t0)
		t.rt.Phase(obs.ReqPhaseAdmission, d)
		e.phaseNS[obs.ReqPhaseAdmission].Observe(d.Nanoseconds())
	}
	select {
	case s.ch <- t:
		e.mu.RUnlock()
		return true
	default:
		e.mu.RUnlock()
		if e.brownout.Load() && req.Type == QueryDist {
			// Brownout fallback: a full queue answers distance queries
			// inline on the caller's goroutine from the snapshot's cached
			// landmark arrays — an upper bound, flagged Degraded, instead
			// of a 503. Worker compute stays reserved for exact answers.
			e.degradedDist(&t)
			return false
		}
		*r = Reply{Type: req.Type, U: req.U, V: req.V, Err: ErrOverloaded}
		e.rejects["overload"].Inc()
		e.reject(&t)
		return false
	}
}

// degradedDist fills t.reply with the landmark-approximate distance, the
// brownout fallback for QueryDist when the shard queue is full. The reply
// has Err == nil and Degraded == true; bad vertices still reject.
func (e *Engine) degradedDist(t *task) {
	req := t.req
	snap := e.snap.Load()
	*t.reply = Reply{Type: req.Type, U: req.U, V: req.V, SnapshotID: snap.ID}
	if n := int32(snap.N()); req.U < 0 || req.U >= n || req.V < 0 || req.V >= n {
		t.reply.Err = ErrBadVertex
		e.rejects["vertex"].Inc()
		e.reject(t)
		return
	}
	t.reply.Dist = snap.ApproxDist(req.U, req.V)
	t.reply.Degraded = true
	e.degraded.Inc()
	e.queries[req.Type].Inc()
	e.reject(t)
}

// DegradedDist answers a distance query inline on the caller's goroutine
// from the snapshot's cached landmark arrays: an upper bound on the true
// distance, flagged Degraded, never queued. This is the same estimator the
// brownout queue-full fallback serves; the cluster router calls it (via the
// daemon's allowDegraded request flag) when quorum is lost and an exact
// committed-generation answer cannot be guaranteed.
func (e *Engine) DegradedDist(u, v int32) Reply {
	snap := e.snap.Load()
	r := Reply{Type: QueryDist, U: u, V: v, SnapshotID: snap.ID}
	if n := int32(snap.N()); u < 0 || u >= n || v < 0 || v >= n {
		r.Err = ErrBadVertex
		e.rejects["vertex"].Inc()
		return r
	}
	r.Dist = snap.ApproxDist(u, v)
	r.Degraded = true
	e.degraded.Inc()
	e.queries[QueryDist].Inc()
	return r
}

// Query answers one request, blocking until it completes or is rejected.
func (e *Engine) Query(req Request) Reply {
	var r Reply
	var wg sync.WaitGroup
	wg.Add(1)
	if e.submit(req, &r, &wg) {
		wg.Wait()
	}
	return r
}

// QueryBatch answers a batch, fanning the requests across shards and
// gathering all replies (order matches the input). Rejections surface as
// per-reply errors, never as lost entries.
func (e *Engine) QueryBatch(reqs []Request) []Reply {
	replies := make([]Reply, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		if !e.submit(reqs[i], &replies[i], &wg) {
			wg.Done()
		}
	}
	wg.Wait()
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

// Close stops admission and drains: queued requests are still answered,
// then the workers exit. Safe to call twice.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	if e.stop != nil {
		close(e.stop)
	}
	for _, s := range e.shards {
		close(s.ch)
	}
	e.mu.Unlock()
	e.wg.Wait()
}

func (e *Engine) worker(s *shard) {
	defer e.wg.Done()
	for t := range s.ch {
		e.process(s, t)
	}
}

func cacheKey(u, v int32) int64 { return int64(u)<<32 | int64(uint32(v)) }

// finish closes out a completed (not rejected-at-admission) task's
// observability: outcome into the trace, the owned trace finished, and the
// SLO observation. Traced requests report full submit-to-completion
// latency; untraced ones report the worker's dequeue-to-completion span —
// the same two clock reads the engine makes regardless of observability.
func (e *Engine) finish(t *task, start, end time.Time) {
	t.rt.Outcome(t.reply.Cached, t.reply.Err)
	if t.owned {
		e.tracer.FinishAt(t.rt, end)
	}
	if e.slo != nil {
		lat := end.Sub(start)
		if !t.t0.IsZero() {
			lat = end.Sub(t.t0)
		}
		e.slo.RecordAt(sloFailed(t.reply.Err), lat, end)
	}
}

func (e *Engine) process(s *shard, t task) {
	defer t.wg.Done()
	if h := e.testHook; h != nil {
		h()
	}
	start := time.Now()
	traced := t.rt != nil
	if traced {
		d := start.Sub(t.enq)
		t.rt.Phase(obs.ReqPhaseQueue, d)
		e.phaseNS[obs.ReqPhaseQueue].Observe(d.Nanoseconds())
	}
	req := t.req
	r := t.reply
	*r = Reply{Type: req.Type, U: req.U, V: req.V}
	if !req.Deadline.IsZero() && start.After(req.Deadline) {
		r.Err = ErrDeadline
		e.rejects["deadline"].Inc()
		e.finish(&t, start, start)
		return
	}
	snap := e.snap.Load()
	r.SnapshotID = snap.ID
	if s.epoch != snap.ID {
		for _, c := range s.caches {
			if c != nil {
				c.reset()
			}
		}
		s.epoch = snap.ID
	}
	badVertex := false
	if n := int32(snap.N()); req.U < 0 || req.U >= n || req.V < 0 || req.V >= n {
		badVertex = true
	}
	// Shard dispatch: epoch check, cache invalidation, vertex validation.
	afterShard := start
	if traced {
		afterShard = time.Now()
		d := afterShard.Sub(start)
		t.rt.Phase(obs.ReqPhaseShard, d)
		e.phaseNS[obs.ReqPhaseShard].Observe(d.Nanoseconds())
	}
	if badVertex {
		r.Err = ErrBadVertex
		e.rejects["vertex"].Inc()
		e.finish(&t, start, afterShard)
		return
	}
	key := cacheKey(req.U, req.V)
	if c := s.caches[req.Type]; c != nil {
		if cv, ok := c.get(key); ok {
			r.Dist, r.Bound, r.Path, r.Err = cv.dist, cv.bound, cv.path, cv.err
			r.Composed = cv.composed
			r.Cached = true
			e.hits[req.Type].Inc()
			e.queries[req.Type].Inc()
			end := time.Now()
			if traced {
				d := end.Sub(afterShard)
				t.rt.Phase(obs.ReqPhaseCache, d)
				e.phaseNS[obs.ReqPhaseCache].Observe(d.Nanoseconds())
			}
			e.latency[req.Type].Observe(end.Sub(start).Microseconds())
			e.finish(&t, start, end)
			return
		}
		e.misses[req.Type].Inc()
	}
	afterLookup := afterShard
	if traced {
		afterLookup = time.Now()
		t.rt.Phase(obs.ReqPhaseCache, afterLookup.Sub(afterShard))
	}

	var cv cacheVal
	cv.bound = graph.Unreachable
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
		cv.path = snap.spannerPath(req.U, req.V, &s.scratch)
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
			e.rejects["partition"].Inc()
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
	afterOracle := afterLookup
	if traced {
		afterOracle = time.Now()
		d := afterOracle.Sub(afterLookup)
		t.rt.Phase(obs.ReqPhaseOracle, d)
		e.phaseNS[obs.ReqPhaseOracle].Observe(d.Nanoseconds())
	}
	if c := s.caches[req.Type]; c != nil {
		c.put(key, cv)
	}
	r.Dist, r.Bound, r.Path, r.Err = cv.dist, cv.bound, cv.path, cv.err
	r.Composed = cv.composed
	e.queries[req.Type].Inc()
	end := time.Now()
	if traced {
		// The miss-path cache phase is lookup + insert: add the insert tail.
		d := end.Sub(afterOracle)
		t.rt.Phase(obs.ReqPhaseCache, d)
		e.phaseNS[obs.ReqPhaseCache].Observe(afterLookup.Sub(afterShard).Nanoseconds() + d.Nanoseconds())
	}
	e.latency[req.Type].Observe(end.Sub(start).Microseconds())
	e.finish(&t, start, end)
}

// QueueDepths reports each shard's current queued-request count; index i is
// shard i. Spannertop renders these as the shard backlog gauge.
func (e *Engine) QueueDepths() []int {
	d := make([]int, len(e.shards))
	for i, s := range e.shards {
		d[i] = len(s.ch)
	}
	return d
}
