// Command spannerd serves distance, path and route queries over a saved
// build artifact (see cmd/spanner -save-artifact) through an HTTP/JSON API,
// or — with -loadgen — drives the embedded engine with a closed- or
// open-loop workload and prints latency/throughput tables.
//
// Serve:
//
//	spannerd -artifact build.spanart -addr :8080 -max-inflight 4096
//	curl 'localhost:8080/query?type=dist&u=3&v=77'
//	curl -X POST localhost:8080/swap -d '{"artifact":"next.spanart"}'
//
// Crash-safe serving from a directory (startup integrity scan, corrupt
// files quarantined, newest intact generation served, verified deltas
// replayed, restarts budgeted):
//
//	spannerd -artifact-dir /var/lib/spanner -supervise 3
//
// Serve one shard of a partitioned cluster (see spanner -partition-out and
// spannerrouter -partition-map; cross-partition distances come back flagged
// Composed with a bound):
//
//	spannerd -partition part-0.spanpart -addr :8081 -cluster
//
// Fault injection on the serve path (deterministic, seeded):
//
//	spannerd -artifact build.spanart -chaos 'reset=0.01,err5xx=0.02,truncate=0.01,seed=7'
//
// Load harness:
//
//	spannerd -artifact build.spanart -loadgen -mode closed -conc 32 -duration 10s
//	spannerd -artifact build.spanart -loadgen -mode open -rate 5000 -mix dist=8,path=1,route=1
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"spanner/internal/artifact"
	"spanner/internal/clusterserve"
	"spanner/internal/dynamic"
	"spanner/internal/httpchaos"
	"spanner/internal/obs"
	"spanner/internal/recovery"
	"spanner/internal/serve"
	"spanner/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spannerd:", err)
		os.Exit(1)
	}
}

// daemonConfig is the resolved flag set the serving path runs from; one
// value per supervised attempt keeps restart behavior identical to a cold
// start.
type daemonConfig struct {
	artPath, artDir string
	// partPath serves one partition of a split instead of a whole-graph
	// artifact (spannerd -partition; see spanner -partition-out).
	partPath string
	addr     string
	// wireAddr, when non-empty, adds a binary wire-protocol listener
	// (internal/wire) next to the HTTP one, serving the same engine.
	wireAddr     string
	chaos        *httpchaos.Plan
	drainTimeout time.Duration

	// cluster enables the replica control plane (/cluster/*; direct /swap
	// and /update refused); joinURL, when set, announces this replica to a
	// router at startup; advertise overrides the self-URL announced.
	cluster   bool
	joinURL   string
	advertise string

	engine engineFlags
	logger *slog.Logger
}

// engineFlags carries the engine + observability tuning shared by the
// serving and loadgen paths.
type engineFlags struct {
	maxInFlight, cache int
	deadline           time.Duration
	maxBatch           int
	brownoutPoll       time.Duration

	traceSample int
	slowQuery   time.Duration
	sloWindow   time.Duration
	sloAvail    float64
	sloLatObj   float64
	sloLatTh    time.Duration
}

// buildEngine assembles the observability stack and the engine over an
// artifact, or — when part is non-nil — over one partition of a split
// (spannerd -partition).
func (ef engineFlags) buildEngine(art *artifact.Artifact, part *artifact.Part, logger *slog.Logger) (*serve.Engine, *obs.Observer, *obs.ReqTracer, *obs.SLOMonitor, error) {
	ob := obs.New()
	var tracer *obs.ReqTracer
	if ef.traceSample > 0 || ef.slowQuery > 0 {
		tracer = obs.NewReqTracer(ob, obs.ReqTracerConfig{
			SampleEvery:   ef.traceSample,
			SlowThreshold: ef.slowQuery,
			Logger:        logger,
		})
	}
	slo := obs.NewSLOMonitor(obs.SLOConfig{
		Availability:     ef.sloAvail,
		LatencyObjective: ef.sloLatObj,
		LatencyThreshold: ef.sloLatTh,
		Window:           ef.sloWindow,
	})
	cfg := serve.Config{
		MaxInFlight:     ef.maxInFlight,
		CacheSize:       ef.cache,
		DefaultDeadline: ef.deadline,
		MaxBatch:        ef.maxBatch,
		BrownoutPoll:    ef.brownoutPoll,
		Obs:             ob,
		Tracer:          tracer,
		SLO:             slo,
	}
	var eng *serve.Engine
	var err error
	if part != nil {
		eng, err = serve.NewPart(part, cfg)
	} else {
		eng, err = serve.New(art, cfg)
	}
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return eng, ob, tracer, slo, nil
}

func run() error {
	var (
		artPath  = flag.String("artifact", "", "saved build artifact to serve")
		artDir   = flag.String("artifact-dir", "", "serve from a directory: integrity-scan it, quarantine corrupt files, resume the newest intact generation")
		partPath = flag.String("partition", "", "saved partition part (.spanpart, see spanner -partition-out) to serve as one shard of a partitioned cluster")
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		wireAddr = flag.String("wire-addr", "", "binary wire-protocol listen address (empty = disabled), e.g. :9090")

		supervise = flag.Int("supervise", 0, "restart budget after server crashes (requires -artifact-dir; each restart rescans and resumes the last verified generation)")
		cluster   = flag.Bool("cluster", false, "run as a cluster replica: install the /cluster control plane and refuse direct /swap and /update (generation changes go through spannerrouter's two-phase commit)")
		join      = flag.String("join", "", "spannerrouter URL to register with at startup (implies -cluster)")
		advertise = flag.String("advertise", "", "self URL announced to the router (default derived from -addr)")
		chaosSpec = flag.String("chaos", "", "inject seeded serve-path faults, e.g. reset=0.01,err5xx=0.02,truncate=0.01,seed=7 (see internal/httpchaos)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful shutdown budget for in-flight requests")

		maxInFlight  = flag.Int("max-inflight", 0, "evaluations admitted at once; more are refused with 503 (0 = 1024*GOMAXPROCS)")
		cache        = flag.Int("cache", 0, "per-partition per-type LRU size (0 = default, <0 disables)")
		deadline     = flag.Duration("deadline", 0, "default per-query deadline (0 = none)")
		maxBatch     = flag.Int("max-batch", 0, "largest accepted /batch size (0 = default 1024; shrinks to a quarter under brownout)")
		brownoutPoll = flag.Duration("brownout-poll", time.Second, "SLO brownout controller poll interval (0 = controller off)")

		traceSample = flag.Int("trace-sample", 64, "emit a span tree for 1 in N requests (0 = off)")
		slowQuery   = flag.Duration("slow-query", 25*time.Millisecond, "log any request slower than this with its phase breakdown (0 = off)")
		sloWindow   = flag.Duration("slo-window", time.Hour, "SLO long observation window (fast window = 1/12th)")
		sloAvail    = flag.Float64("slo-availability", 0.999, "SLO availability objective (fraction of requests that must not fail)")
		sloLatObj   = flag.Float64("slo-latency-objective", 0.99, "SLO latency objective (fraction of requests under -slo-latency-threshold)")
		sloLatTh    = flag.Duration("slo-latency-threshold", 50*time.Millisecond, "SLO latency objective threshold")

		loadgen   = flag.Bool("loadgen", false, "run the load generator instead of the HTTP server")
		mode      = flag.String("mode", "closed", "loadgen mode: closed (fixed concurrency) | open (fixed arrival rate)")
		conc      = flag.Int("conc", 16, "loadgen closed-loop concurrency")
		rate      = flag.Float64("rate", 1000, "loadgen open-loop arrival rate (queries/sec)")
		duration  = flag.Duration("duration", 5*time.Second, "loadgen run length")
		mix       = flag.String("mix", "dist=8,path=1,route=1", "loadgen query mix weights")
		seed      = flag.Int64("seed", 1, "loadgen workload and churn seed (byte-reproducible streams)")
		swapEach  = flag.Duration("swap-every", 0, "loadgen: hot-swap the artifact at this interval (0 = never)")
		churnEach = flag.Duration("churn-every", 0, "loadgen: apply a dynamic update batch at this interval (0 = never)")
		churnSpec = flag.String("churn", "", "loadgen churn stream spec, e.g. batches=16,size=32,insert=0.5 (seeded by -seed)")
		router    = flag.String("router", "", "loadgen: drive a spannerrouter URL over HTTP instead of the embedded engine")
		replicas  = flag.String("replicas", "", "loadgen: drive a comma-separated replica set directly, balanced client-side")
		wireDst   = flag.String("wire", "", "loadgen: drive a spannerd binary wire-protocol address (host:port, see -wire-addr) instead of the embedded engine")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	ef := engineFlags{
		maxInFlight: *maxInFlight, cache: *cache, deadline: *deadline,
		maxBatch: *maxBatch, brownoutPoll: *brownoutPoll,
		traceSample: *traceSample, slowQuery: *slowQuery,
		sloWindow: *sloWindow, sloAvail: *sloAvail, sloLatObj: *sloLatObj, sloLatTh: *sloLatTh,
	}

	if *loadgen {
		var targets []string
		if *router != "" {
			targets = append(targets, strings.TrimRight(*router, "/"))
		}
		for _, u := range strings.Split(*replicas, ",") {
			if u = strings.TrimSpace(u); u != "" {
				targets = append(targets, strings.TrimRight(u, "/"))
			}
		}
		var eng *serve.Engine
		var err error
		if len(targets) == 0 && *wireDst == "" {
			if *artPath == "" {
				return errors.New("-artifact is required for -loadgen (or point it at a cluster with -router/-replicas, or a binary listener with -wire)")
			}
			art, err := artifact.Load(*artPath)
			if err != nil {
				return fmt.Errorf("loading artifact: %w", err)
			}
			eng, _, _, _, err = ef.buildEngine(art, nil, logger)
			if err != nil {
				return err
			}
			defer eng.Close()
		}
		cfg := loadConfig{
			Targets:   targets,
			Wire:      *wireDst,
			Mode:      *mode,
			Conc:      *conc,
			Rate:      *rate,
			Duration:  *duration,
			Seed:      *seed,
			SwapEach:  *swapEach,
			ChurnEach: *churnEach,
			Artifact:  *artPath,
		}
		if cfg.Mix, err = parseMix(*mix); err != nil {
			return err
		}
		if cfg.Churn, err = dynamic.ParseStreamSpec(*churnSpec); err != nil {
			return err
		}
		if *churnSpec != "" && cfg.ChurnEach == 0 {
			cfg.ChurnEach = time.Second
		}
		rep, err := runLoad(eng, cfg)
		if err != nil {
			return err
		}
		rep.write(os.Stdout)
		return nil
	}

	if *artPath == "" && *artDir == "" && *partPath == "" {
		return errors.New("-artifact, -artifact-dir or -partition is required")
	}
	if *partPath != "" && (*artPath != "" || *artDir != "") {
		return errors.New("-partition is exclusive with -artifact/-artifact-dir (a replica serves either a whole graph or one shard)")
	}
	if *supervise > 0 && *artDir == "" {
		return errors.New("-supervise requires -artifact-dir (restarts resume from the scanned directory)")
	}
	var chaosPlan *httpchaos.Plan
	if *chaosSpec != "" {
		p, err := httpchaos.Parse(*chaosSpec)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		chaosPlan = p
		logger.Warn("serve-path chaos injection enabled", "spec", *chaosSpec)
	}
	cfg := daemonConfig{
		artPath: *artPath, artDir: *artDir, partPath: *partPath, addr: *addr,
		wireAddr: *wireAddr,
		chaos:    chaosPlan, drainTimeout: *drain,
		cluster: *cluster || *join != "", joinURL: *join, advertise: *advertise,
		engine: ef, logger: logger,
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	// The supervised serve loop: a clean drain (signal) exits; a crashed
	// server restarts within the budget, rescanning the artifact directory
	// so each attempt resumes from the last generation that verifies.
	for attempt := 0; ; attempt++ {
		err := serveOnce(cfg, sigc)
		if err == nil {
			return nil
		}
		if attempt >= *supervise {
			return err
		}
		logger.Error("server died; restarting from last verified generation",
			"err", err, "attempt", attempt+1, "budget", *supervise)
	}
}

// loadServingArtifact resolves what to serve: -artifact loads one file;
// -artifact-dir runs the crash-recovery scan — corrupt artifacts and
// deltas are quarantined, a damaged update log is repaired to its
// replayable prefix, and the newest intact generation wins.
func loadServingArtifact(cfg daemonConfig) (*artifact.Artifact, *recovery.Report, error) {
	if cfg.artDir == "" {
		a, err := artifact.Load(cfg.artPath)
		if err != nil {
			return nil, nil, fmt.Errorf("loading artifact: %w", err)
		}
		return a, nil, nil
	}
	rep, err := recovery.Scan(cfg.artDir, true)
	if err != nil {
		return nil, nil, err
	}
	for _, q := range rep.Quarantined {
		cfg.logger.Warn("quarantined corrupt serving file", "path", q.Path, "to", q.To, "cause", q.Err)
	}
	if rep.Log != nil && rep.Log.Damaged {
		cfg.logger.Warn("update log repaired", "report", rep.Log.String())
	}
	lg := rep.LastGood()
	if lg == nil {
		return nil, nil, fmt.Errorf("no intact artifact in %s (%d quarantined)", cfg.artDir, len(rep.Quarantined))
	}
	cfg.logger.Info("recovery scan complete", "summary", rep.String(), "serving", lg.Path)
	return lg.Art, rep, nil
}

// applyRecoveredDeltas chains the scan's verified deltas onto the running
// engine: whichever delta binds to the current generation's checksum is
// applied, then the chain continues from the new generation. Bounded by the
// delta count — a delta either advances the generation or is skipped.
func applyRecoveredDeltas(eng *serve.Engine, rep *recovery.Report, logger *slog.Logger) {
	if rep == nil {
		return
	}
	for range rep.Deltas {
		applied := false
		for _, d := range rep.DeltasFor(eng.Snapshot().Art.Checksum()) {
			gen, err := eng.ApplyDelta(d.Delta)
			if err != nil {
				logger.Warn("recovered delta rejected", "path", d.Path, "err", err)
				continue
			}
			logger.Info("recovered delta replayed", "path", d.Path, "snapshot", gen)
			applied = true
			break
		}
		if !applied {
			return
		}
	}
}

// switchHandler is an atomically swappable http.Handler: the listener
// binds (and answers liveness/readiness) before the recovery scan runs,
// then the real routes swap in without dropping a connection.
type switchHandler struct{ v atomic.Value }

type handlerBox struct{ h http.Handler }

func (s *switchHandler) Set(h http.Handler) { s.v.Store(handlerBox{h}) }
func (s *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.v.Load().(handlerBox).h.ServeHTTP(w, r)
}

// startingHandler answers while the startup recovery scan runs: the
// process is alive (/healthz 200) but must not receive routed traffic
// (/readyz 503 "recovering", everything else 503). Binding before the scan
// lets supervisors and the cluster router tell "starting" from "dead" —
// connection-refused means restart, not-ready means wait.
func startingHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "starting"})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready": false, "reason": "recovering",
		})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusServiceUnavailable, "starting: recovery scan in progress")
	})
	return mux
}

// advertiseURL resolves the self URL announced to the router: the explicit
// -advertise, or one derived from the bound listener (unspecified bind
// addresses advertise loopback — the single-host default).
func advertiseURL(advertise string, ln net.Listener) string {
	if advertise != "" {
		return advertise
	}
	host := "127.0.0.1"
	port := 0
	if ta, ok := ln.Addr().(*net.TCPAddr); ok {
		port = ta.Port
		if !ta.IP.IsUnspecified() {
			host = ta.IP.String()
		}
	}
	return "http://" + net.JoinHostPort(host, strconv.Itoa(port))
}

// announceJoin registers this replica with the router. Registration is
// idempotent and the router probes from then on, so one success is enough;
// retries are bounded so a dead router does not leak the goroutine forever.
func announceJoin(router, self string, logger *slog.Logger) {
	body, _ := json.Marshal(map[string]string{"url": self})
	for attempt := 0; attempt < 30; attempt++ {
		resp, err := http.Post(router+"/join", "application/json", bytes.NewReader(body))
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code < 300 {
				logger.Info("registered with router", "router", router, "self", self)
				return
			}
			err = fmt.Errorf("HTTP %d", code)
		}
		logger.Warn("join announcement failed; retrying", "router", router, "err", err)
		time.Sleep(2 * time.Second)
	}
	logger.Error("giving up on join announcements", "router", router)
}

// serveOnce runs one full server lifetime: bind the listener (answering
// alive-but-not-ready), load (or recover) the artifact, build the engine,
// swap the real routes in, serve until a shutdown signal or a server
// error, drain. Returns nil on a clean drain.
func serveOnce(cfg daemonConfig, sigc <-chan os.Signal) error {
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	sw := &switchHandler{}
	sw.Set(startingHandler())
	srv := &http.Server{Handler: sw}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	var art *artifact.Artifact
	var part *artifact.Part
	var rep *recovery.Report
	if cfg.partPath != "" {
		part, err = artifact.LoadPart(cfg.partPath)
		if err != nil {
			srv.Close()
			return fmt.Errorf("loading partition: %w", err)
		}
	} else if art, rep, err = loadServingArtifact(cfg); err != nil {
		srv.Close()
		return err
	}
	eng, ob, tracer, slo, err := cfg.engine.buildEngine(art, part, cfg.logger)
	if err != nil {
		srv.Close()
		return err
	}
	applyRecoveredDeltas(eng, rep, cfg.logger)
	if part != nil {
		owned := 0
		for _, o := range part.Owned {
			if o {
				owned++
			}
		}
		cfg.logger.Info("partition loaded", "partition", part.ID, "of", part.K,
			"split_id", part.SplitID, "owned", owned, "generation", eng.SnapshotID())
	} else {
		cfg.logger.Info("artifact loaded", "algo", art.Algo,
			"n", art.Graph.N(), "spanner", art.Spanner.Len(), "generation", eng.SnapshotID())
	}

	var replica *clusterserve.Replica
	if cfg.cluster {
		replica = clusterserve.NewReplica(eng, cfg.logger)
	}
	var handler http.Handler = newServer(eng, ob, serverOpts{
		tracer: tracer, slo: slo, logger: cfg.logger, cluster: replica,
	}).routes()
	if cfg.chaos != nil {
		handler = cfg.chaos.Middleware(handler)
	}
	sw.Set(handler)
	cfg.logger.Info("serving", "addr", ln.Addr().String(), "cluster", cfg.cluster)

	// The binary wire listener shares the engine (and with it admission
	// control, brownout and tracing); its metrics land under the same
	// observer labeled transport=wire.
	var wsrv *wire.Server
	if cfg.wireAddr != "" {
		wcfg := wire.ServerConfig{Engine: eng, Obs: ob, Logger: cfg.logger}
		if replica != nil {
			wcfg.GenOf = replica.GenOf
		}
		if slo != nil {
			wcfg.SLOStatus = func() string { return slo.Report().Status }
		}
		ws, err := wire.NewServer(wcfg)
		if err != nil {
			srv.Close()
			eng.Close()
			return err
		}
		wln, err := net.Listen("tcp", cfg.wireAddr)
		if err != nil {
			srv.Close()
			eng.Close()
			return fmt.Errorf("wire listener: %w", err)
		}
		wsrv = ws
		go func() {
			if err := ws.Serve(wln); err != nil {
				cfg.logger.Error("wire listener died", "err", err)
			}
		}()
		cfg.logger.Info("serving wire protocol", "addr", wln.Addr().String())
	}

	if cfg.joinURL != "" {
		go announceJoin(cfg.joinURL, advertiseURL(cfg.advertise, ln), cfg.logger)
	}
	return serveUntilSignal(srv, wsrv, errc, eng, sigc, cfg.drainTimeout, cfg.logger)
}

// serveUntilSignal waits out one server lifetime (errc carries the
// srv.Serve result), then drains in the only safe order: both listeners
// stop accepting and every in-flight request runs to completion
// (srv.Shutdown, then wsrv.Shutdown) BEFORE the engine closes. Closing the
// engine first would answer "engine closed" to exactly the requests a
// graceful drain exists to finish — the regression
// TestDrainCompletesInflightBatch pins down.
func serveUntilSignal(srv *http.Server, wsrv *wire.Server, errc <-chan error, eng *serve.Engine, sigc <-chan os.Signal, drain time.Duration, logger *slog.Logger) error {
	shutdownWire := func(ctx context.Context) {
		if wsrv == nil {
			return
		}
		if err := wsrv.Shutdown(ctx); err != nil {
			logger.Warn("wire drain incomplete", "err", err)
		}
	}
	select {
	case err := <-errc:
		// The HTTP listener died on its own; stop the wire listener too,
		// then draining the engine is safe and lets in-flight evaluations
		// finish.
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		shutdownWire(ctx)
		eng.Close()
		return err
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		err := srv.Shutdown(ctx)
		shutdownWire(ctx)
		// Only now — with no request left in flight — drain the workers.
		eng.Close()
		return err
	}
}
