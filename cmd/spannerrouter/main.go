// Command spannerrouter is the cluster coordinator: one router in front of
// spannerd replicas (started with -cluster/-join), whole-graph or
// partitioned. It probes their health, routes queries with failover and
// hedging, and drives cluster-wide generation changes through a two-phase
// commit so replicas never diverge.
//
// Start three replicas and a router:
//
//	spannerd -artifact build.spanart -addr :8081 -cluster &
//	spannerd -artifact build.spanart -addr :8082 -cluster &
//	spannerd -artifact build.spanart -addr :8083 -cluster &
//	spannerrouter -addr :8090 -replicas http://localhost:8081,http://localhost:8082,http://localhost:8083
//
//	curl 'localhost:8090/query?type=dist&u=3&v=77'
//	curl -X POST localhost:8090/swap -d '{"artifact":"next.spanart"}'
//	curl localhost:8090/statusz
//
// Replicas may also join dynamically (spannerd -join http://router:8090);
// either way the router adopts them at the committed generation — or
// replays recorded swap/update steps to catch them up — before routing to
// them. Losing quorum does not turn into 503s: distance queries degrade to
// explicitly flagged landmark upper bounds until quorum returns.
//
// -partition-map supplies a partition map: the graph is then sharded
// across K replica groups (spanner -partition-out K, spannerd -partition
// part-i.spanpart), replicas are assigned to groups by the partition they
// report, queries go to the owning group and fall over to foreign groups
// with flagged Composed bounds, route queries are refused, and /swap takes
// {"map": path} to commit all K partitions as one composed generation
// (/update, a whole-graph delta, is a 400). Without a map the router is
// the same coordinator over one group that owns every vertex.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spanner/internal/clusterserve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spannerrouter:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8090", "HTTP listen address")
		replicas = flag.String("replicas", "", "comma-separated replica base URLs (more can -join at runtime)")

		probeEvery   = flag.Duration("probe-interval", 500*time.Millisecond, "health probe cadence")
		probeTimeout = flag.Duration("probe-timeout", time.Second, "per-probe timeout")
		ejectAfter   = flag.Int("eject-after", 3, "consecutive failures before a replica is ejected")
		rejoinAfter  = flag.Int("rejoin-after", 2, "consecutive healthy probes before an ejected replica rejoins")
		quorum       = flag.Int("quorum", 0, "ready replicas required for exact answers and mutations (0 = majority)")
		hedge        = flag.Duration("hedge", 0, "fire a second replica if the first has not answered within this delay (0 = off)")
		queryTimeout = flag.Duration("query-timeout", 2*time.Second, "per-replica query attempt timeout")
		ctrlTimeout  = flag.Duration("control-timeout", 5*time.Second, "control-plane call timeout (probes, prepare/commit)")
		seed         = flag.Int64("seed", 1, "per-replica client jitter seed")

		partitionMap = flag.String("partition-map", "", "partition map (.spanmap): shard the graph across its K replica groups")
	)
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		return errors.New("-replicas is required (or start replicas with -join and pass at least one seed URL)")
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	rt, err := clusterserve.NewRouter(clusterserve.Config{
		Replicas:       urls,
		MapPath:        *partitionMap,
		ProbeInterval:  *probeEvery,
		ProbeTimeout:   *probeTimeout,
		EjectAfter:     *ejectAfter,
		RejoinAfter:    *rejoinAfter,
		Quorum:         *quorum,
		Hedge:          *hedge,
		QueryTimeout:   *queryTimeout,
		ControlTimeout: *ctrlTimeout,
		Seed:           *seed,
		Logger:         logger,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("router listening", "addr", ln.Addr().String(),
		"replicas", len(urls), "partitioned", *partitionMap != "")
	srv := &http.Server{Handler: newRouterServer(rt, logger).routes()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		logger.Info("shutting down", "signal", sig.String())
		return srv.Close()
	}
}
