package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"

	"spanner/client"
	"spanner/internal/clusterserve"
)

// routerServer wires the router into HTTP handlers, with or without a
// partition map. The query surface is wire-compatible with spannerd's — a
// spannerd client pointed at the router sees the same API, plus cluster
// generations in replies and cluster-level behavior behind it (failover,
// hedging, degraded quorum loss, and with a map, Composed cross-partition
// distances).
type routerServer struct {
	rt     *clusterserve.Router
	logger *slog.Logger
}

func newRouterServer(rt *clusterserve.Router, logger *slog.Logger) *routerServer {
	return &routerServer{rt: rt, logger: logger}
}

func (s *routerServer) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/swap", s.handleSwap)
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/join", s.handleJoin)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"err": msg})
}

// statusFor maps routed-query errors onto the status codes a spannerd
// client already understands: quorum loss and exhausted replicas are 503
// (the cluster, not the request, is the problem), per-replica rejections
// pass through as 429, timeouts as 504.
func statusFor(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, client.ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, client.ErrConflict):
		return http.StatusConflict
	case errors.Is(err, client.ErrRejected):
		return http.StatusTooManyRequests
	case errors.Is(err, client.ErrTimeout):
		return http.StatusGatewayTimeout
	case errors.Is(err, clusterserve.ErrNoQuorum), errors.Is(err, clusterserve.ErrNoReplicas):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadGateway
	}
}

// handleQuery routes one query. Same GET/POST wire forms as spannerd; the
// answering replica and any failover/hedge activity come back in
// X-Served-By / X-Failovers headers so chaos suites and the loadgen can
// attribute answers without scraping /statusz.
func (s *routerServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, ok := decodeQuery(w, r)
	if !ok {
		return
	}
	rep, tr, err := s.rt.QueryTraced(r.Context(), q)
	if tr.Replica != "" {
		w.Header().Set("X-Served-By", tr.Replica)
	}
	if tr.Failovers > 0 {
		w.Header().Set("X-Failovers", strconv.Itoa(tr.Failovers))
	}
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *routerServer) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var qs []client.Query
	if err := json.NewDecoder(r.Body).Decode(&qs); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	rs, err := s.rt.Batch(r.Context(), qs)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, rs)
}

// handleSwap drives the cluster-wide two-phase commit. Without a map:
// POST {"artifact": "path"} — a path every replica can read. With one:
// POST {"map": "path"} — a partition map every replica can read, with part
// paths resolvable relative to it; all K partitions commit as one composed
// generation.
func (s *routerServer) handleSwap(w http.ResponseWriter, r *http.Request) {
	if s.rt.Map() != nil {
		s.handleMutation(w, r, "map", func(ctx context.Context, path string) (any, error) {
			return s.rt.SwapMap(ctx, path)
		})
		return
	}
	s.handleMutation(w, r, "artifact", func(ctx context.Context, path string) (any, error) {
		return s.rt.Swap(ctx, path)
	})
}

// handleUpdate drives a cluster-wide two-phase delta apply.
// POST {"delta": "path"}. A partitioned router refuses it (400): it
// advances by map swap only.
func (s *routerServer) handleUpdate(w http.ResponseWriter, r *http.Request) {
	s.handleMutation(w, r, "delta", func(ctx context.Context, path string) (any, error) {
		return s.rt.Update(ctx, path)
	})
}

func (s *routerServer) handleMutation(w http.ResponseWriter, r *http.Request, field string,
	run func(ctx context.Context, path string) (any, error)) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var body map[string]string
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body[field] == "" {
		writeError(w, http.StatusBadRequest, fmt.Sprintf(`want {%q:"path"}`, field))
		return
	}
	res, err := run(r.Context(), body[field])
	if err != nil {
		status := http.StatusUnprocessableEntity
		switch {
		case errors.Is(err, client.ErrBadRequest):
			status = http.StatusBadRequest
		case errors.Is(err, clusterserve.ErrNoQuorum):
			status = http.StatusServiceUnavailable
		case errors.Is(err, clusterserve.ErrConflictPrepare):
			// A delta bound to a base generation the cluster no longer
			// serves: same 409 contract as a single spannerd, so updaters
			// re-diff rather than retry.
			status = http.StatusConflict
		}
		writeError(w, status, err.Error())
		return
	}
	s.logger.Info("cluster mutation committed", "kind", field, "gen", s.rt.Gen())
	writeJSON(w, http.StatusOK, res)
}

// handleJoin registers a replica (spannerd -join posts here). Idempotent.
func (s *routerServer) handleJoin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var body struct {
		URL string `json:"url"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.URL == "" {
		writeError(w, http.StatusBadRequest, `want {"url":"http://replica:port"}`)
		return
	}
	s.rt.Add(body.URL)
	writeJSON(w, http.StatusOK, map[string]string{"status": "joined"})
}

// handleHealthz is router liveness.
func (s *routerServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "gen": s.rt.Gen()})
}

// handleReadyz reports whether the cluster can serve exact answers: every
// group meets its quorum. Not-ready (503) under quorum loss — traffic still
// gets degraded (or, with one partition's group down, composed) distance
// answers, but load balancers should prefer a healthy cell if they have
// one.
func (s *routerServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready, reason := s.rt.Ready()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ready": ready, "reason": reason, "gen": s.rt.Gen()})
}

// handleStatusz dumps the cluster view: generation, members, routing
// counters — flat without a map, one row per partition group with one.
func (s *routerServer) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if s.rt.Map() != nil {
		writeJSON(w, http.StatusOK, s.rt.PartitionedStatus())
		return
	}
	writeJSON(w, http.StatusOK, s.rt.Status())
}

// decodeQuery parses the shared GET/POST query wire forms; it writes the
// error response itself when the request is malformed.
func decodeQuery(w http.ResponseWriter, r *http.Request) (client.Query, bool) {
	var q client.Query
	switch r.Method {
	case http.MethodGet:
		q.Type = r.URL.Query().Get("type")
		u, errU := strconv.ParseInt(r.URL.Query().Get("u"), 10, 32)
		v, errV := strconv.ParseInt(r.URL.Query().Get("v"), 10, 32)
		if errU != nil || errV != nil {
			writeError(w, http.StatusBadRequest, "u and v must be int32")
			return q, false
		}
		q.U, q.V = int32(u), int32(v)
		q.Priority = r.URL.Query().Get("priority")
		q.AllowDegraded = r.URL.Query().Get("allowDegraded") == "1"
		if d := r.URL.Query().Get("deadlineMs"); d != "" {
			ms, err := strconv.ParseInt(d, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad deadlineMs")
				return q, false
			}
			q.DeadlineMS = ms
		}
	case http.MethodPost:
		if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
			writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
			return q, false
		}
	default:
		writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return q, false
	}
	return q, true
}
