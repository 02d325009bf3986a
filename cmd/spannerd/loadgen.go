package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spanner/client"
	"spanner/internal/artifact"
	"spanner/internal/dynamic"
	"spanner/internal/obs"
	"spanner/internal/serve"
)

// loadConfig parameterizes one load-generator run.
type loadConfig struct {
	Mode     string        // "closed" | "open"
	Conc     int           // closed-loop worker count
	Rate     float64       // open-loop arrivals per second
	Duration time.Duration // run length
	Mix      [3]int        // weights per query type (dist, path, route)
	Seed     int64
	SwapEach time.Duration // hot-swap interval (0 = never)
	Artifact string        // artifact path, reloaded for swaps

	// ChurnEach applies one dynamic update batch at this interval (0 =
	// never); Churn parameterizes the generated stream, seeded by Seed so
	// churn runs are byte-reproducible like the query workload.
	ChurnEach time.Duration
	Churn     dynamic.StreamConfig

	// Targets, when non-empty, points the workload at remote serving
	// endpoints over HTTP instead of the embedded engine: one spannerrouter
	// URL (-router) or a replica set balanced client-side (-replicas).
	// Remote runs report failover events (the router's X-Failovers header)
	// per query type; -swap-every and -churn-every need the embedded engine
	// and are rejected.
	Targets []string

	// Wire, when non-empty, drives a spannerd binary wire-protocol listener
	// (-wire-addr) instead of the embedded engine or an HTTP target. Like
	// Targets it is a remote run: single-attempt issues, no client-side
	// retries, and -swap-every/-churn-every are rejected.
	Wire string
}

// issuer abstracts where queries go: the embedded engine (the historical
// loadgen) or a remote router / replica set over HTTP. Both return the
// reply plus the number of failover events behind it, so the report's
// taxonomy stays identical across local and remote runs.
type issuer interface {
	vertices() int32
	issue(req serve.Request) (serve.Reply, int)
}

type engineIssuer struct{ eng *serve.Engine }

func (e engineIssuer) vertices() int32 { return int32(e.eng.Snapshot().N()) }
func (e engineIssuer) issue(req serve.Request) (serve.Reply, int) {
	return e.eng.Query(req), 0
}

// httpIssuer drives one or more serving endpoints. Each call picks the
// next target round-robin (with one router URL this is just that router;
// with -replicas it is client-side balancing) and issues a single
// attempt — no client-side retries, so the report shows the serving
// path's own resilience (router failover, hedging) rather than the load
// generator's.
type httpIssuer struct {
	targets []string
	hc      *http.Client
	rr      atomic.Int64
	n       int32
}

func newHTTPIssuer(targets []string) (*httpIssuer, error) {
	iss := &httpIssuer{targets: targets, hc: &http.Client{Timeout: 10 * time.Second}}
	// Size the workload from whichever endpoint answers: a router's
	// /statusz or a replica's /healthz both carry the vertex count.
	for _, t := range targets {
		for _, path := range []string{"/statusz", "/healthz"} {
			resp, err := iss.hc.Get(t + path)
			if err != nil {
				continue
			}
			var body struct {
				N int32 `json:"n"`
			}
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK && body.N > 0 {
				iss.n = body.N
				return iss, nil
			}
		}
	}
	return nil, fmt.Errorf("loadgen: no target of %d answered /statusz or /healthz with a vertex count", len(targets))
}

func (h *httpIssuer) vertices() int32 { return h.n }

func (h *httpIssuer) issue(req serve.Request) (serve.Reply, int) {
	target := h.targets[int(h.rr.Add(1)-1)%len(h.targets)]
	url := fmt.Sprintf("%s/query?type=%s&u=%d&v=%d", target, req.Type, req.U, req.V)
	resp, err := h.hc.Get(url)
	if err != nil {
		return serve.Reply{U: req.U, V: req.V, Err: err}, 0
	}
	defer resp.Body.Close()
	failovers, _ := strconv.Atoi(resp.Header.Get("X-Failovers"))
	var wire client.Reply
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil && resp.StatusCode == http.StatusOK {
		return serve.Reply{U: req.U, V: req.V, Err: err}, failovers
	}
	rep := fromClient(wire)
	if rep.Err != nil {
		return rep, failovers
	}
	// Fold HTTP statuses back into the engine's error taxonomy so the
	// report buckets match a local run: 429 is shedding, 504 a deadline,
	// anything else non-OK a transport-class fault.
	switch {
	case resp.StatusCode == http.StatusOK && wire.Err == "":
	case resp.StatusCode == http.StatusOK && strings.Contains(wire.Err, "no route"):
		rep.Err = serve.ErrNoRoute
	case resp.StatusCode == http.StatusTooManyRequests:
		rep.Err = serve.ErrBrownout
	case resp.StatusCode == http.StatusGatewayTimeout:
		rep.Err = serve.ErrDeadline
	default:
		rep.Err = fmt.Errorf("status %d: %s", resp.StatusCode, wire.Err)
	}
	return rep, failovers
}

// fromClient converts a reply as either transport's client decodes it into
// the engine's form. A composed (cross-partition) answer carries a
// [Bound, Dist] bracket on the true distance; an inverted bracket is a
// wrong answer, not a transport hiccup, so it comes back as the reply's
// error. Folding the reply's own error string is left to the caller.
func fromClient(r client.Reply) serve.Reply {
	rep := serve.Reply{
		U: r.U, V: r.V, Dist: r.Dist, Path: r.Path,
		Cached: r.Cached, Degraded: r.Degraded, Composed: r.Composed,
		SnapshotID: r.Snapshot,
	}
	if r.Bound != nil {
		rep.Bound = *r.Bound
		if r.Composed && rep.Bound > r.Dist {
			rep.Err = fmt.Errorf("composed bound violation: lower %d > upper %d for (%d,%d)",
				rep.Bound, r.Dist, r.U, r.V)
		}
	}
	return rep
}

// wireIssuer drives a spannerd binary wire-protocol listener through the
// pooled client. Retries are disabled for the same reason the HTTP issuer
// issues single attempts: the report should show the serving path's
// behavior, not the load generator's persistence. Replies and errors are
// folded back into the engine's taxonomy so the report buckets match a
// local run.
type wireIssuer struct {
	wc *client.WireClient
	n  int32
}

func newWireIssuer(addr string) (*wireIssuer, error) {
	wc, err := client.NewWire(client.WireConfig{Addr: addr, MaxRetries: -1, Timeout: 10 * time.Second})
	if err != nil {
		return nil, err
	}
	h, err := wc.Healthz(context.Background())
	if err != nil {
		wc.Close()
		return nil, fmt.Errorf("loadgen: wire target %s: %w", addr, err)
	}
	if h.N <= 0 {
		wc.Close()
		return nil, fmt.Errorf("loadgen: wire target %s reported %d vertices", addr, h.N)
	}
	return &wireIssuer{wc: wc, n: int32(h.N)}, nil
}

func (wi *wireIssuer) vertices() int32 { return wi.n }
func (wi *wireIssuer) close()          { wi.wc.Close() }

func (wi *wireIssuer) issue(req serve.Request) (serve.Reply, int) {
	r, err := wi.wc.Query(context.Background(), client.Query{Type: req.Type.String(), U: req.U, V: req.V})
	if err != nil {
		rep := serve.Reply{U: req.U, V: req.V}
		switch {
		case errors.Is(err, client.ErrTimeout):
			rep.Err = serve.ErrDeadline
		case errors.Is(err, client.ErrRejected):
			rep.Err = serve.ErrBrownout
		default:
			rep.Err = err
		}
		return rep, 0
	}
	rep := fromClient(r)
	if rep.Err == nil && r.Err != "" {
		if strings.Contains(r.Err, "no route") {
			rep.Err = serve.ErrNoRoute
		} else {
			rep.Err = errors.New(r.Err)
		}
	}
	return rep, 0
}

// parseMix parses "dist=8,path=1,route=1" into per-type weights. Omitted
// types get weight 0; at least one weight must be positive.
func parseMix(s string) ([3]int, error) {
	var mix [3]int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return mix, fmt.Errorf("bad mix entry %q (want type=weight)", part)
		}
		typ, err := serve.ParseQueryType(strings.TrimSpace(name))
		if err != nil {
			return mix, fmt.Errorf("bad mix type %q", name)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 0 {
			return mix, fmt.Errorf("bad mix weight %q", val)
		}
		mix[typ] = w
	}
	if mix[0]+mix[1]+mix[2] <= 0 {
		return mix, errors.New("mix has no positive weight")
	}
	return mix, nil
}

// typeStats accumulates one query type's outcomes. Latencies go into a
// log-bucketed histogram (nanoseconds, answered queries only) instead of an
// unbounded sample slice, so percentiles cost O(buckets) and long runs stay
// flat on memory.
//
// Failures are split by the error taxonomy the resilience layer acts on:
// timeout (deadline expired before evaluation), rejected (admission control —
// overload, brownout shed, engine closed) and transport (everything else:
// faults that are neither the client's pacing nor the server's shedding;
// printed as the "faults" column now that a "transport" column labels
// which transport — engine, json or wire — carried the run).
// Degraded counts successful answers served as landmark upper bounds under
// brownout — they are in ok and in the latency histogram, flagged here so a
// sweep can see how much of its "availability" was approximate.
type typeStats struct {
	lat      *obs.Histogram
	ok       int64
	cached   int64
	degraded int64
	// composed counts answers relayed across partitions (flagged upper
	// bounds from a partitioned cluster); like degraded they are in ok and
	// the latency histogram.
	composed  int64
	noroute   int64
	timeout   int64
	rejected  int64
	transport int64
	// failover counts failover events behind answered queries (remote
	// runs only: the router's X-Failovers attribution header). A non-zero
	// column under chaos with zero transport errors is the resilience
	// story in one line: replicas died, callers never saw it.
	failover int64
}

// loadReport is the printable outcome of a run.
type loadReport struct {
	cfg     loadConfig
	elapsed time.Duration
	stats   [3]typeStats
	swaps   int

	// transport labels every row of the table with how the queries
	// traveled: "engine" (embedded), "json" (HTTP) or "wire" (binary).
	transport string

	// Churn accounting (ChurnEach > 0 only).
	updates    int
	updateErrs int
	admitted   int64
	filtered   int64
	repaired   int64
	rebuilds   int64
	updateLat  *obs.Histogram
}

func newLoadReport(cfg loadConfig) *loadReport {
	rep := &loadReport{cfg: cfg, updateLat: obs.NewHistogram()}
	for i := range rep.stats {
		rep.stats[i].lat = obs.NewHistogram()
	}
	return rep
}

// workload deterministically generates the query stream: pair selection is
// Zipf-flavored (a small hot set plus a uniform tail) so caches see realistic
// skew, and the type follows the configured mix.
type workload struct {
	rng *rand.Rand
	n   int32
	mix [3]int
	tot int
	hot [][2]int32
}

func newWorkload(n int32, mix [3]int, seed int64) *workload {
	rng := rand.New(rand.NewSource(seed))
	hot := make([][2]int32, 256)
	for i := range hot {
		hot[i] = [2]int32{rng.Int31n(n), rng.Int31n(n)}
	}
	return &workload{rng: rng, n: n, mix: mix, tot: mix[0] + mix[1] + mix[2], hot: hot}
}

func (w *workload) next() serve.Request {
	r := w.rng.Intn(w.tot)
	var typ serve.QueryType
	switch {
	case r < w.mix[0]:
		typ = serve.QueryDist
	case r < w.mix[0]+w.mix[1]:
		typ = serve.QueryPath
	default:
		typ = serve.QueryRoute
	}
	var u, v int32
	if w.rng.Intn(4) == 0 { // 25% of traffic hits the hot set
		p := w.hot[w.rng.Intn(len(w.hot))]
		u, v = p[0], p[1]
	} else {
		u, v = w.rng.Int31n(w.n), w.rng.Int31n(w.n)
	}
	return serve.Request{Type: typ, U: u, V: v}
}

// runLoad drives the engine and gathers stats. Closed loop: Conc workers
// each issuing back-to-back queries. Open loop: arrivals on a fixed-rate
// clock, each served on its own goroutine (late completions still count).
func runLoad(eng *serve.Engine, cfg loadConfig) (*loadReport, error) {
	if cfg.Mode != "closed" && cfg.Mode != "open" {
		return nil, fmt.Errorf("unknown loadgen mode %q", cfg.Mode)
	}
	var iss issuer
	transport := "engine"
	switch {
	case cfg.Wire != "":
		if len(cfg.Targets) > 0 {
			return nil, errors.New("loadgen: -wire is exclusive with -router/-replicas (one transport per run keeps the table comparable)")
		}
		if cfg.SwapEach > 0 || cfg.ChurnEach > 0 {
			return nil, errors.New("loadgen: -swap-every/-churn-every drive the embedded engine and cannot combine with -wire")
		}
		wi, err := newWireIssuer(cfg.Wire)
		if err != nil {
			return nil, err
		}
		defer wi.close()
		iss = wi
		transport = "wire"
	case len(cfg.Targets) > 0:
		if cfg.SwapEach > 0 || cfg.ChurnEach > 0 {
			return nil, errors.New("loadgen: -swap-every/-churn-every drive the embedded engine and cannot combine with -router/-replicas (swap through the router instead)")
		}
		remote, err := newHTTPIssuer(cfg.Targets)
		if err != nil {
			return nil, err
		}
		iss = remote
		transport = "json"
	default:
		iss = engineIssuer{eng}
	}
	snapN := iss.vertices()
	rep := newLoadReport(cfg)
	rep.transport = transport

	stop := make(chan struct{})
	var swapWG sync.WaitGroup
	if cfg.SwapEach > 0 {
		swapWG.Add(1)
		go func() {
			defer swapWG.Done()
			tick := time.NewTicker(cfg.SwapEach)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					a, err := artifact.Load(cfg.Artifact)
					if err != nil {
						continue
					}
					if _, err := eng.Swap(a); err == nil {
						rep.swaps++
					}
				}
			}
		}()
	}

	var churnWG sync.WaitGroup
	if cfg.ChurnEach > 0 {
		// Build the maintainer and the full seeded stream up front so the
		// churn applied under load is byte-reproducible from cfg.Seed alone.
		base := eng.Snapshot().Art
		m, err := dynamic.NewMaintainer(base.Graph, base.Spanner, dynamic.Config{})
		if err != nil {
			return nil, fmt.Errorf("loadgen churn: %w", err)
		}
		streamCfg := cfg.Churn
		streamCfg.Seed = cfg.Seed
		batches, err := dynamic.GenerateStream(base.Graph, streamCfg)
		if err != nil {
			return nil, fmt.Errorf("loadgen churn: %w", err)
		}
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			tick := time.NewTicker(cfg.ChurnEach)
			defer tick.Stop()
			for _, b := range batches {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				batchRep, err := m.ApplyBatch(b)
				if err != nil {
					rep.updateErrs++
					continue
				}
				d := &artifact.Delta{
					BaseSum:  eng.Snapshot().Art.Checksum(),
					Segments: []artifact.DeltaSegment{batchRep.Segment()},
				}
				t0 := time.Now()
				if _, err := eng.ApplyDelta(d); err != nil {
					// A concurrent -swap-every reload moves the base from
					// under the maintainer; surface it rather than hide it.
					rep.updateErrs++
					continue
				}
				rep.updates++
				rep.updateLat.Observe(time.Since(t0).Nanoseconds())
				rep.admitted += int64(batchRep.Admitted)
				rep.filtered += int64(batchRep.Filtered)
				rep.repaired += int64(batchRep.RepairedEdges)
				if batchRep.Rebuilt {
					rep.rebuilds++
				}
			}
		}()
	}

	type sample struct {
		typ       serve.QueryType
		lat       time.Duration
		rep       serve.Reply
		failovers int
	}
	results := make(chan sample, 4096)
	var collectWG sync.WaitGroup
	collectWG.Add(1)
	go func() {
		defer collectWG.Done()
		for s := range results {
			st := &rep.stats[s.typ]
			switch {
			case s.rep.Err == nil:
				st.ok++
				st.lat.Observe(s.lat.Nanoseconds())
				if s.rep.Cached {
					st.cached++
				}
				if s.rep.Degraded {
					st.degraded++
				}
				if s.rep.Composed {
					st.composed++
				}
				st.failover += int64(s.failovers)
			case errors.Is(s.rep.Err, serve.ErrNoRoute):
				st.noroute++
				st.lat.Observe(s.lat.Nanoseconds())
			case errors.Is(s.rep.Err, serve.ErrDeadline):
				st.timeout++
			case errors.Is(s.rep.Err, serve.ErrOverloaded),
				errors.Is(s.rep.Err, serve.ErrBrownout),
				errors.Is(s.rep.Err, serve.ErrClosed):
				st.rejected++
			default:
				st.transport++
			}
		}
	}()

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var genWG sync.WaitGroup
	switch cfg.Mode {
	case "closed":
		for i := 0; i < cfg.Conc; i++ {
			genWG.Add(1)
			go func(id int) {
				defer genWG.Done()
				w := newWorkload(snapN, cfg.Mix, cfg.Seed+int64(id))
				for time.Now().Before(deadline) {
					req := w.next()
					t0 := time.Now()
					r, fo := iss.issue(req)
					results <- sample{req.Type, time.Since(t0), r, fo}
				}
			}(i)
		}
	case "open":
		w := newWorkload(snapN, cfg.Mix, cfg.Seed)
		interval := time.Duration(float64(time.Second) / cfg.Rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		var inflight sync.WaitGroup
		for time.Now().Before(deadline) {
			<-tick.C
			req := w.next()
			inflight.Add(1)
			go func() {
				defer inflight.Done()
				t0 := time.Now()
				r, fo := iss.issue(req)
				results <- sample{req.Type, time.Since(t0), r, fo}
			}()
		}
		inflight.Wait()
	}
	genWG.Wait()
	close(stop)
	swapWG.Wait()
	churnWG.Wait()
	close(results)
	collectWG.Wait()
	rep.elapsed = time.Since(start)
	return rep, nil
}

// pct reads the p-th percentile out of a latency histogram snapshot.
func pct(s *obs.HistSnapshot, p float64) time.Duration {
	return time.Duration(s.Quantile(p))
}

// write prints the per-type latency table and the run summary.
func (r *loadReport) write(w io.Writer) {
	fmt.Fprintf(w, "loadgen: mode=%s duration=%v mix=dist:%d,path:%d,route:%d",
		r.cfg.Mode, r.elapsed.Round(time.Millisecond), r.cfg.Mix[0], r.cfg.Mix[1], r.cfg.Mix[2])
	if r.cfg.Mode == "closed" {
		fmt.Fprintf(w, " conc=%d", r.cfg.Conc)
	} else {
		fmt.Fprintf(w, " rate=%.0f/s", r.cfg.Rate)
	}
	if r.swaps > 0 {
		fmt.Fprintf(w, " swaps=%d", r.swaps)
	}
	if len(r.cfg.Targets) > 0 {
		fmt.Fprintf(w, " targets=%d", len(r.cfg.Targets))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-9s %-6s %10s %8s %8s %8s %8s %8s %8s %9s %8s %10s %10s %10s %12s\n",
		"transport", "type", "queries", "cached", "degraded", "composed", "noroute", "timeout", "rejected", "faults", "failover", "p50", "p95", "p99", "qps")
	var total int64
	for t := serve.QueryType(0); t < 3; t++ {
		st := &r.stats[t]
		snap := st.lat.Snapshot()
		n := snap.Count + st.timeout + st.rejected + st.transport
		if n == 0 {
			continue
		}
		total += n
		qps := float64(snap.Count) / r.elapsed.Seconds()
		fmt.Fprintf(w, "%-9s %-6s %10d %8d %8d %8d %8d %8d %8d %9d %8d %10v %10v %10v %12.0f\n",
			r.transport, t, n, st.cached, st.degraded, st.composed, st.noroute, st.timeout, st.rejected, st.transport, st.failover,
			pct(snap, 0.50).Round(time.Microsecond),
			pct(snap, 0.95).Round(time.Microsecond),
			pct(snap, 0.99).Round(time.Microsecond),
			qps)
	}
	fmt.Fprintf(w, "total: %d queries in %v (%.0f qps)\n",
		total, r.elapsed.Round(time.Millisecond), float64(total)/r.elapsed.Seconds())
	if r.updates > 0 || r.updateErrs > 0 {
		uSnap := r.updateLat.Snapshot()
		fmt.Fprintf(w, "updates: %d applied, %d failed; admitted=%d filtered=%d repaired=%d rebuilds=%d; apply p50=%v p99=%v\n",
			r.updates, r.updateErrs, r.admitted, r.filtered, r.repaired, r.rebuilds,
			pct(uSnap, 0.50).Round(time.Microsecond), pct(uSnap, 0.99).Round(time.Microsecond))
	}
}
