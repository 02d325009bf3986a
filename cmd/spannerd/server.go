package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"spanner/client"
	"spanner/internal/artifact"
	"spanner/internal/clusterserve"
	"spanner/internal/graph"
	"spanner/internal/obs"
	"spanner/internal/serve"
)

// serverOpts carries the optional observability plumbing: the request
// tracer (shared with the engine), the SLO monitor (shared with the engine,
// which does the recording) and the structured logger. cluster, when
// non-nil, makes this daemon a cluster replica: the /cluster control plane
// is installed, replies are stamped with cluster generations, and direct
// /swap + /update are refused (generation changes must go through the
// router's two-phase commit, or replicas would silently diverge).
type serverOpts struct {
	tracer  *obs.ReqTracer
	slo     *obs.SLOMonitor
	logger  *slog.Logger
	cluster *clusterserve.Replica
}

// server wires the engine into HTTP handlers. All responses are JSON
// (except /metricz?format=prom).
type server struct {
	eng *serve.Engine
	ob  *obs.Observer
	serverOpts
}

func newServer(eng *serve.Engine, ob *obs.Observer, opts serverOpts) *server {
	if opts.logger == nil {
		opts.logger = slog.New(discardHandler{})
	}
	return &server{eng: eng, ob: ob, serverOpts: opts}
}

// discardHandler is a no-op slog handler so s.logger is never nil.
type discardHandler struct{}

func (discardHandler) Enabled(_ context.Context, _ slog.Level) bool  { return false }
func (discardHandler) Handle(_ context.Context, _ slog.Record) error { return nil }
func (d discardHandler) WithAttrs(_ []slog.Attr) slog.Handler        { return d }
func (d discardHandler) WithGroup(_ string) slog.Handler             { return d }

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/swap", s.handleSwap)
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metricz", s.handleMetricz)
	mux.HandleFunc("/slo", s.handleSLO)
	if s.cluster != nil {
		s.cluster.Register(mux)
	}
	return mux
}

// retryAfterHint is the Retry-After delay (seconds) sent with every 429:
// brownouts lift on the SLO monitor's poll cadence (~seconds), so "come
// back in 1s" is honest pacing, and well-behaved clients (see client's
// RejectedError) use it instead of guessing.
const retryAfterHint = "1"

// toWire converts an engine reply into its JSON wire form. Requests (POST
// /query and /batch entries) and replies travel as the client package's
// Query and Reply, so the server and its Go callers share one schema.
func toWire(r serve.Reply) client.Reply {
	w := client.Reply{
		Type:     r.Type.String(),
		U:        r.U,
		V:        r.V,
		Dist:     r.Dist,
		Path:     r.Path,
		Cached:   r.Cached,
		Degraded: r.Degraded,
		Composed: r.Composed,
		Snapshot: r.SnapshotID,
	}
	if (r.Type == serve.QueryRoute && r.Bound != graph.Unreachable) || r.Composed {
		b := r.Bound
		w.Bound = &b
	}
	if r.Err != nil {
		w.Err = r.Err.Error()
	}
	return w
}

// wire converts a reply and, on a cluster replica, stamps the cluster
// generation of the snapshot that answered. The replica records the
// snapshot→generation mapping under the same lock that publishes a
// commit, so a query that finished on the old snapshot during a cut-over
// is stamped with the old generation — never mislabeled with the new one.
func (s *server) wire(r serve.Reply) client.Reply {
	w := toWire(r)
	if s.cluster != nil {
		w.Gen = s.cluster.GenOf(r.SnapshotID)
	}
	return w
}

// statusFor maps typed engine errors to HTTP status codes. ErrNoRoute is a
// valid answer about the graph, not a server failure, so it stays 200.
func statusFor(err error) int {
	switch {
	case err == nil, errors.Is(err, serve.ErrNoRoute):
		return http.StatusOK
	case errors.Is(err, serve.ErrBadVertex), errors.Is(err, serve.ErrBadQuery):
		return http.StatusBadRequest
	case errors.Is(err, serve.ErrBrownout):
		// Deliberate shed, not an outage: 429 tells well-behaved clients to
		// back off without tripping their circuit breakers.
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrDeadline):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"err": msg})
}

func toRequest(q client.Query) (serve.Request, error) {
	typ, err := serve.ParseQueryType(q.Type)
	if err != nil {
		return serve.Request{}, fmt.Errorf("%w: %q", err, q.Type)
	}
	prio, err := serve.ParsePriority(q.Priority)
	if err != nil {
		return serve.Request{}, fmt.Errorf("bad priority %q", q.Priority)
	}
	// Every request built here arrived over the HTTP/JSON transport; the
	// engine stamps the label into the request trace so span trees and the
	// slow-query log can tell the transports apart.
	req := serve.Request{Type: typ, U: q.U, V: q.V, Priority: prio,
		AllowDegraded: q.AllowDegraded, Transport: "json"}
	if q.DeadlineMS > 0 {
		req.Deadline = time.Now().Add(time.Duration(q.DeadlineMS) * time.Millisecond)
	}
	return req, nil
}

// handleQuery answers one query. GET takes ?type=dist&u=3&v=77
// (&deadlineMs=50); POST takes the same fields as JSON.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var q client.Query
	switch r.Method {
	case http.MethodGet:
		q.Type = r.URL.Query().Get("type")
		u, errU := strconv.ParseInt(r.URL.Query().Get("u"), 10, 32)
		v, errV := strconv.ParseInt(r.URL.Query().Get("v"), 10, 32)
		if errU != nil || errV != nil {
			writeError(w, http.StatusBadRequest, "u and v must be int32")
			return
		}
		q.U, q.V = int32(u), int32(v)
		q.Priority = r.URL.Query().Get("priority")
		q.AllowDegraded = r.URL.Query().Get("allowDegraded") == "1"
		if d := r.URL.Query().Get("deadlineMs"); d != "" {
			ms, err := strconv.ParseInt(d, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad deadlineMs")
				return
			}
			q.DeadlineMS = ms
		}
	case http.MethodPost:
		if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
			writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
			return
		}
	default:
		writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	req, err := toRequest(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Request-scoped trace with a propagated (or generated) request id. The
	// engine stamps phases and the outcome; the handler owns start/finish,
	// so the id flows from the HTTP layer into the engine.
	var rt *obs.ReqTrace
	if s.tracer != nil {
		rt = s.tracer.Start(req.Type.String(), req.U, req.V, r.Header.Get("X-Request-Id"))
		w.Header().Set("X-Request-Id", rt.ID)
		req.Trace = rt
	}
	reply := s.eng.Query(req)
	s.tracer.Finish(rt)
	status := statusFor(reply.Err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", retryAfterHint)
	}
	writeJSON(w, status, s.wire(reply))
}

// handleBatch answers a JSON array of queries in one round trip; replies
// come back in input order. The HTTP status reflects parse errors only —
// per-query failures are per-reply err fields.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var qs []client.Query
	if err := json.NewDecoder(r.Body).Decode(&qs); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	// The advertised batch limit shrinks under brownout: refusing one large
	// batch sheds hundreds of queries without touching interactive traffic.
	if max := s.eng.MaxBatch(); len(qs) > max {
		w.Header().Set("Retry-After", retryAfterHint)
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("batch of %d exceeds the current limit of %d", len(qs), max))
		return
	}
	// Entries whose strings do not parse fail in their own slot; the rest
	// go to the engine as one batch.
	replies := make([]client.Reply, len(qs))
	idx := make([]int, 0, len(qs))
	reqs := make([]serve.Request, 0, len(qs))
	for i, q := range qs {
		req, err := toRequest(q)
		if err != nil {
			replies[i] = client.Reply{Type: q.Type, U: q.U, V: q.V, Err: err.Error()}
			continue
		}
		idx = append(idx, i)
		reqs = append(reqs, req)
	}
	for j, rep := range s.eng.QueryBatch(reqs) {
		replies[idx[j]] = s.wire(rep)
	}
	writeJSON(w, http.StatusOK, replies)
}

// handleSwap loads a new artifact from disk and hot-swaps it under live
// traffic. POST {"artifact": "path"}.
func (s *server) handleSwap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.cluster != nil {
		// A direct swap on one replica would fork it from the cluster
		// generation history — exactly the divergence the two-phase commit
		// exists to prevent.
		writeError(w, http.StatusConflict, "cluster-managed replica: swap through the router")
		return
	}
	var body struct {
		Artifact string `json:"artifact"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.Artifact == "" {
		writeError(w, http.StatusBadRequest, `want {"artifact":"path"}`)
		return
	}
	art, err := artifact.Load(body.Artifact)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "loading artifact: "+err.Error())
		return
	}
	gen, err := s.eng.Swap(art)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	s.logger.Info("artifact swapped", "snapshot", gen, "algo", art.Algo,
		"n", art.Graph.N(), "spanner", art.Spanner.Len())
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshot": gen,
		"algo":     art.Algo,
		"n":        art.Graph.N(),
		"spanner":  art.Spanner.Len(),
	})
}

// handleUpdate loads a delta from disk and applies it to the live snapshot
// — the same zero-dropped-query hot swap as /swap, but patch-sized on the
// wire. POST {"delta": "path"}. A delta bound to a generation that is no
// longer live answers 409 so a retrying updater knows to re-diff.
func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.cluster != nil {
		writeError(w, http.StatusConflict, "cluster-managed replica: update through the router")
		return
	}
	var body struct {
		Delta string `json:"delta"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.Delta == "" {
		writeError(w, http.StatusBadRequest, `want {"delta":"path"}`)
		return
	}
	d, err := artifact.LoadDelta(body.Delta)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "loading delta: "+err.Error())
		return
	}
	gen, err := s.eng.ApplyDelta(d)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, artifact.ErrBaseMismatch) {
			status = http.StatusConflict
		}
		writeError(w, status, err.Error())
		return
	}
	snap := s.eng.Snapshot()
	s.logger.Info("delta applied", "snapshot", gen, "segments", len(d.Segments),
		"updates", d.Updates(), "spanner", snap.Art.Spanner.Len())
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshot": gen,
		"segments": len(d.Segments),
		"updates":  d.Updates(),
		"m":        snap.Art.Graph.M(),
		"spanner":  snap.Art.Spanner.Len(),
	})
}

// handleHealthz is pure liveness: 200 whenever the process can answer at
// all. SLO degradation, brownout and swap state belong to /readyz — a
// supervisor restarting on liveness must not kill a replica that is merely
// shedding load (that restart would turn a brownout into an outage).
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.eng.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"slo":      s.slo.Report().Status,
		"brownout": s.eng.Brownout(),
		"snapshot": snap.ID,
		"algo":     snap.Art.Algo,
		"n":        snap.N(),
	})
}

// handleReadyz is readiness: whether this replica should receive routed
// traffic right now. Not-ready (503) while a cluster swap prepare is
// staged (the replica may cut over or roll back at any instant) and while
// the SLO monitor pages (load balancers shed before users notice). The
// startup recovery scan is covered too: until the scan finishes the
// listener answers through the starting handler, whose /readyz is 503
// "recovering".
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	sloStatus := s.slo.Report().Status
	ready, reason := true, ""
	if s.cluster != nil {
		ready, reason = s.cluster.Ready()
	}
	if ready && sloStatus == "page" {
		ready, reason = false, "slo-page"
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ready":    ready,
		"reason":   reason,
		"slo":      sloStatus,
		"snapshot": s.eng.SnapshotID(),
		"gen":      genOf(s.cluster),
	})
}

// genOf is the nil-safe committed-generation read for status bodies.
func genOf(c *clusterserve.Replica) int64 {
	if c == nil {
		return 0
	}
	return c.Gen()
}

// handleSLO serves the full multi-window burn-rate report.
func (s *server) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.slo.Report())
}

// metricJSON is one /metricz JSON entry. Histogram series carry the full
// mergeable snapshot (hist) so pollers like spannertop can diff scrapes and
// compute interval quantiles, plus convenience percentiles.
type metricJSON struct {
	Kind   string            `json:"kind"`
	Series string            `json:"series"`
	Value  float64           `json:"value"`
	Count  int64             `json:"count,omitempty"`
	Min    float64           `json:"min,omitempty"`
	Max    float64           `json:"max,omitempty"`
	P50    int64             `json:"p50,omitempty"`
	P95    int64             `json:"p95,omitempty"`
	P99    int64             `json:"p99,omitempty"`
	Hist   *obs.HistSnapshot `json:"hist,omitempty"`
}

// scrape refreshes the point-in-time serve.inflight gauge and snapshots the
// registry.
func (s *server) scrape() []obs.MetricValue {
	reg := s.ob.Registry()
	reg.Gauge("serve.inflight").Set(int64(s.eng.InFlight()))
	return reg.Snapshot()
}

// handleMetricz dumps the observer registry: every serve.* counter, gauge
// and latency histogram. Default is JSON (with full histogram snapshots);
// ?format=prom answers the Prometheus text exposition format.
func (s *server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	snap := s.scrape()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WritePrometheus(w, snap); err != nil {
			s.logger.Error("metricz exposition failed", "err", err)
		}
		return
	}
	out := make([]metricJSON, len(snap))
	for i, m := range snap {
		out[i] = metricJSON{Kind: m.Kind, Series: m.Key(), Value: m.Value, Count: m.Count, Min: m.Min, Max: m.Max}
		if m.Hist != nil && m.Count > 0 {
			out[i].P50 = m.Hist.Quantile(0.50)
			out[i].P95 = m.Hist.Quantile(0.95)
			out[i].P99 = m.Hist.Quantile(0.99)
			out[i].Hist = m.Hist
		}
	}
	writeJSON(w, http.StatusOK, out)
}
