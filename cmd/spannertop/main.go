// Command spannertop is a live terminal dashboard for a running spannerd:
// it polls /metricz (and /slo) and renders queries/sec, per-phase request
// latency, cache hit rates, in-flight evaluations and update/churn activity,
// refreshing in place like top(1).
//
// Interval statistics come from differencing consecutive scrapes: counters
// subtract directly, and histogram series carry full mergeable snapshots in
// the /metricz JSON, so interval percentiles (not since-boot percentiles)
// fall out of HistSnapshot.Sub.
//
//	spannertop -addr http://localhost:8080 -interval 2s
//	spannertop -addr http://localhost:8080 -once      # one cumulative frame
//
// With -router the address is a spannerrouter instead: the dashboard walks
// the router's /statusz topology (flat or partitioned) and scrapes every
// member's /metricz, rendering per-member — and for a partitioned cluster
// per-partition — interval QPS and latency percentiles:
//
//	spannertop -router -addr http://localhost:8090
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"spanner/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spannertop:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "spannerd base URL")
		interval = flag.Duration("interval", 2*time.Second, "poll interval")
		once     = flag.Bool("once", false, "print one cumulative frame and exit (no screen clearing)")
		frames   = flag.Int("frames", 0, "stop after this many frames (0 = run until interrupted)")
		router   = flag.Bool("router", false, "treat -addr as a spannerrouter: render per-member (and, partitioned, per-partition) interval stats from its /statusz plus each replica's /metricz")
	)
	flag.Parse()

	if *router {
		return runRouter(*addr, *interval, *once, *frames)
	}

	cl := &client{base: strings.TrimRight(*addr, "/"), http: &http.Client{Timeout: 5 * time.Second}}
	cur, err := cl.fetch()
	if err != nil {
		return err
	}
	if *once {
		render(os.Stdout, nil, cur)
		return nil
	}
	var prev *frame
	for n := 0; *frames == 0 || n < *frames; n++ {
		fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		render(os.Stdout, prev, cur)
		time.Sleep(*interval)
		prev = cur
		if cur, err = cl.fetch(); err != nil {
			return err
		}
	}
	return nil
}

// metric mirrors spannerd's /metricz JSON entries.
type metric struct {
	Kind   string            `json:"kind"`
	Series string            `json:"series"`
	Value  float64           `json:"value"`
	Count  int64             `json:"count"`
	P50    int64             `json:"p50"`
	P95    int64             `json:"p95"`
	P99    int64             `json:"p99"`
	Hist   *obs.HistSnapshot `json:"hist"`
}

// frame is one scrape: metrics keyed by series, plus the SLO report.
type frame struct {
	at      time.Time
	metrics map[string]metric
	slo     obs.SLOReport
	sloOK   bool
}

type client struct {
	base string
	http *http.Client
}

func (c *client) fetch() (*frame, error) {
	resp, err := c.http.Get(c.base + "/metricz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var ms []metric
	if err := json.NewDecoder(resp.Body).Decode(&ms); err != nil {
		return nil, fmt.Errorf("decoding /metricz: %w", err)
	}
	f := &frame{at: time.Now(), metrics: make(map[string]metric, len(ms))}
	for _, m := range ms {
		f.metrics[m.Series] = m
	}
	// /slo is optional (older daemons); the dashboard degrades gracefully.
	if resp, err := c.http.Get(c.base + "/slo"); err == nil {
		if json.NewDecoder(resp.Body).Decode(&f.slo) == nil {
			f.sloOK = true
		}
		resp.Body.Close()
	}
	return f, nil
}

// splitSeries parses a registry series key "name{k=v}{k2=v2}" into name and
// label lookup.
func splitSeries(series string) (string, map[string]string) {
	name, rest, ok := strings.Cut(series, "{")
	if !ok {
		return series, nil
	}
	labels := map[string]string{}
	for _, part := range strings.Split("{"+rest, "{") {
		part = strings.TrimSuffix(part, "}")
		if k, v, ok := strings.Cut(part, "="); ok {
			labels[k] = v
		}
	}
	return name, labels
}

// counterDelta returns the counter's increase between frames (its absolute
// value in cumulative mode).
func counterDelta(prev, cur *frame, series string) float64 {
	d := cur.metrics[series].Value
	if prev != nil {
		d -= prev.metrics[series].Value
	}
	return d
}

// histDelta returns the interval histogram for a series (cumulative
// snapshot when prev is nil, empty snapshot when the series is absent).
func histDelta(prev, cur *frame, series string) *obs.HistSnapshot {
	m, ok := cur.metrics[series]
	if !ok || m.Hist == nil {
		return &obs.HistSnapshot{}
	}
	if prev == nil {
		return m.Hist
	}
	var base *obs.HistSnapshot
	if pm, ok := prev.metrics[series]; ok {
		base = pm.Hist
	}
	return m.Hist.Sub(base)
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// render draws one dashboard frame. prev == nil renders cumulative
// since-boot statistics; otherwise everything is interval-scoped.
func render(w io.Writer, prev, cur *frame) {
	secs := 1.0
	scope := "cumulative"
	if prev != nil {
		secs = cur.at.Sub(prev.at).Seconds()
		if secs <= 0 {
			secs = 1
		}
		scope = fmt.Sprintf("last %.1fs", secs)
	}
	fmt.Fprintf(w, "spannertop — %s — %s\n\n", scope, cur.at.Format("15:04:05"))

	// Per-type traffic: QPS, cache hit rate, interval latency percentiles.
	fmt.Fprintf(w, "%-6s %10s %8s %10s %10s %10s %9s\n",
		"type", "qps", "hit%", "p50 us", "p95 us", "p99 us", "rejects")
	var rejects float64
	for _, m := range cur.metrics {
		if name, _ := splitSeries(m.Series); name == "serve.rejects" {
			rejects += counterDelta(prev, cur, m.Series)
		}
	}
	for _, typ := range []string{"dist", "path", "route"} {
		q := counterDelta(prev, cur, "serve.queries{type="+typ+"}")
		if q == 0 && prev != nil {
			continue
		}
		hits := counterDelta(prev, cur, "serve.cache.hits{type="+typ+"}")
		misses := counterDelta(prev, cur, "serve.cache.misses{type="+typ+"}")
		hitRate := 0.0
		if hits+misses > 0 {
			hitRate = 100 * hits / (hits + misses)
		}
		lat := histDelta(prev, cur, "serve.latency_us{type="+typ+"}")
		fmt.Fprintf(w, "%-6s %10.0f %8.1f %10d %10d %10d %9.0f\n",
			typ, q/secs, hitRate,
			lat.Quantile(0.50), lat.Quantile(0.95), lat.Quantile(0.99), rejects)
		rejects = 0 // print the total once, on the first row
	}

	// Per-phase breakdown from the request-scoped tracing histograms.
	fmt.Fprintf(w, "\n%-10s %10s %10s %12s %12s\n", "phase", "count", "avg us", "p95 us", "p99 us")
	for p := obs.ReqPhase(0); p < obs.NumReqPhases; p++ {
		phase := p.String()
		h := histDelta(prev, cur, "serve.phase_ns{phase="+phase+"}")
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "%-10s %10d %10.1f %12.1f %12.1f\n",
			phase, h.Count, us(int64(h.Mean())), us(h.Quantile(0.95)), us(h.Quantile(0.99)))
	}

	// Evaluations in flight (a point-in-time gauge).
	for _, m := range cur.metrics {
		if m.Series == "serve.inflight" {
			fmt.Fprintf(w, "\ninflight: %.0f\n", m.Value)
		}
	}

	// Update/churn activity.
	swaps := counterDelta(prev, cur, "serve.swaps")
	updates := counterDelta(prev, cur, "serve.updates")
	updErrs := counterDelta(prev, cur, "serve.update.errors")
	if swaps > 0 || updates > 0 || updErrs > 0 || prev == nil {
		upLat := histDelta(prev, cur, "serve.update.latency_us")
		fmt.Fprintf(w, "updates: applied=%.0f errors=%.0f swaps=%.0f apply_p99=%dus\n",
			updates, updErrs, swaps, upLat.Quantile(0.99))
	}

	// Tracing + SLO posture.
	fmt.Fprintf(w, "traced: %.0f spans, %.0f slow queries\n",
		counterDelta(prev, cur, "obs.req.traced"), counterDelta(prev, cur, "obs.req.slow"))
	if cur.sloOK {
		fmt.Fprintf(w, "slo: %s  avail=%.4f (burn %.1f)  latency=%.4f (burn %.1f) [%s window]\n",
			cur.slo.Status,
			cur.slo.Long.Availability, cur.slo.Long.AvailabilityBurn,
			cur.slo.Long.LatencyCompliance, cur.slo.Long.LatencyBurn,
			cur.slo.Long.Window)
	}
}
