package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"time"

	"spanner"
	"spanner/client"
)

const (
	// oracleK is the artifact's oracle stretch parameter (stretch 2k−1).
	oracleK = 3
	// avgDegree is the G(n,p) graph's expected degree.
	avgDegree = 16
	// skeletonD is the skeleton's density parameter (SkeletonOptions'
	// default), which SkeletonSizeBound takes.
	skeletonD = 4
	// chainLen is the number of generations in the delta chain after the
	// base; chainBatch is the number of edge updates behind each.
	chainLen   = 2
	chainBatch = 32
	// wireConns is the wire client's connection pool size.
	wireConns = 2
)

// stack is one served artifact: the inputs it was built from, the delta
// chain the updates replay, and the engine, wire server and wire client
// serving it over loopback TCP.
type stack struct {
	g    *spanner.Graph
	skel *spanner.SkeletonDistributedResult
	art  *spanner.Artifact
	// sg is the spanner as a graph, which path answers are checked on.
	sg *spanner.Graph

	// gens holds the base artifact and then each later generation of the
	// chain, built independently with BuildArtifact; deltas[i] turns
	// gens[i] into gens[i+1], and sums are their checksums.
	gens   []*spanner.Artifact
	deltas []*spanner.ArtifactDelta
	sums   []int64
	// blob is the base artifact encoded: what a swap decodes.
	blob []byte
	// batchNS holds DynamicMaintainer.ApplyBatch times from the chain build.
	batchNS []int64

	eng    *spanner.ServeEngine
	srv    *spanner.WireServer
	cl     *client.WireClient
	served chan error

	// checks counts the set-up checks: the skeleton's size bound and the
	// first reply.
	checks tally
}

// deployment is spannerd's default observability around an engine: an
// Observer, a 1-in-64 request tracer with a 25 ms slow-query log, and an
// SLO monitor polled every second by the brownout controller.
func deployment() (spanner.ServeConfig, *spanner.Observer, *spanner.SLOMonitor) {
	ob := spanner.NewObserver()
	tracer := spanner.NewRequestTracer(ob, spanner.RequestTracerConfig{
		SampleEvery:   64,
		SlowThreshold: 25 * time.Millisecond,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	slo := spanner.NewSLOMonitor(spanner.SLOConfig{
		Availability:     0.999,
		LatencyObjective: 0.99,
		LatencyThreshold: 50 * time.Millisecond,
		Window:           time.Hour,
	})
	return spanner.ServeConfig{BrownoutPoll: time.Second, Obs: ob, Tracer: tracer, SLO: slo}, ob, slo
}

// setUp builds the graph, the skeleton and the artifact from seed, the
// delta chain when withChain is set, and starts the served stack; it
// returns once the client has its first reply. Phases are recorded as
// spans under parent when sp is non-nil.
func setUp(n int, seed int64, withChain bool, sp *spanLog, parent int32) (*stack, error) {
	s := &stack{}
	end := sp.begin("graph.gen", parent)
	g, err := spanner.MakeWorkload("gnp", n, avgDegree, spanner.NewRand(seed))
	end()
	if err != nil {
		return nil, err
	}
	s.g = g
	end = sp.begin("core.skeleton", parent)
	s.skel, err = spanner.BuildSkeletonDistributed(g, spanner.SkeletonOptions{Seed: seed})
	end()
	if err != nil {
		return nil, fmt.Errorf("skeleton: %w", err)
	}
	s.checks.check(float64(s.skel.Spanner.Len()) <= spanner.SkeletonSizeBound(g.N(), skeletonD))
	end = sp.begin("artifact.build", parent)
	s.art, err = spanner.BuildArtifact(g, s.skel.Spanner, "skeleton-dist", oracleK, seed)
	end()
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	s.sg = s.art.Spanner.ToGraph(g.N())
	s.gens = []*spanner.Artifact{s.art}
	if withChain {
		if err := s.buildChain(seed, sp, parent); err != nil {
			return nil, err
		}
	}
	if err := s.start(sp, parent); err != nil {
		return nil, err
	}
	return s, nil
}

// buildChain derives the delta chain: a seeded update stream applied batch
// by batch with DynamicMaintainer.ApplyBatch, each generation rebuilt with
// BuildArtifact and diffed against the one before. It also encodes the
// base for swaps and records the checksums the updates are checked by.
func (s *stack) buildChain(seed int64, sp *spanLog, parent int32) error {
	end := sp.begin("dynamic.maintainer", parent)
	m, err := spanner.NewDynamicMaintainer(s.g, s.skel.Spanner, spanner.DynamicConfig{})
	end()
	if err != nil {
		return fmt.Errorf("maintainer: %w", err)
	}
	stream, err := spanner.GenerateUpdateStream(s.g, spanner.UpdateStreamConfig{Seed: seed + 1, Batches: chainLen, BatchSize: chainBatch})
	if err != nil {
		return fmt.Errorf("update stream: %w", err)
	}
	prev := s.art
	for _, b := range stream {
		end = sp.begin("dynamic.batch", parent)
		t0 := time.Now()
		_, err := m.ApplyBatch(b)
		s.batchNS = append(s.batchNS, time.Since(t0).Nanoseconds())
		end()
		if err != nil {
			return fmt.Errorf("apply batch: %w", err)
		}
		// The maintainer keeps mutating its live spanner, so the
		// generation gets its own copy.
		end = sp.begin("artifact.build", parent)
		next, err := spanner.BuildArtifact(m.Graph(), m.Spanner().Clone(), "skeleton-dist", oracleK, seed)
		end()
		if err != nil {
			return fmt.Errorf("artifact: %w", err)
		}
		end = sp.begin("artifact.diff", parent)
		d, err := spanner.DiffArtifacts(prev, next)
		end()
		if err != nil {
			return fmt.Errorf("diff: %w", err)
		}
		s.gens = append(s.gens, next)
		s.deltas = append(s.deltas, d)
		prev = next
	}
	end = sp.begin("artifact.encode", parent)
	s.blob = spanner.MarshalArtifact(s.art)
	end()
	for _, a := range s.gens {
		s.sums = append(s.sums, a.Checksum())
	}
	return nil
}

// start brings up the engine with spannerd's observability, the wire
// server on a loopback listener and the wire client, and waits for the
// client's first reply.
func (s *stack) start(sp *spanLog, parent int32) error {
	cfg, ob, slo := deployment()
	end := sp.begin("serve.new", parent)
	eng, err := spanner.NewServeEngine(s.art, cfg)
	end()
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	srv, err := spanner.NewWireServer(spanner.WireServerConfig{
		Engine:    eng,
		Obs:       ob,
		SLOStatus: func() string { return slo.Report().Status },
	})
	if err != nil {
		eng.Close()
		return fmt.Errorf("wire server: %w", err)
	}
	end = sp.begin("wire.listen", parent)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	end()
	if err != nil {
		eng.Close()
		return fmt.Errorf("listen: %w", err)
	}
	s.eng, s.srv = eng, srv
	s.served = make(chan error, 1)
	go func() { s.served <- srv.Serve(ln) }()
	// Retries are off so that every failure is counted, not absorbed.
	s.cl, err = client.NewWire(client.WireConfig{Addr: ln.Addr().String(), Conns: wireConns, MaxRetries: -1})
	if err != nil {
		s.close()
		return fmt.Errorf("wire client: %w", err)
	}
	end = sp.begin("wire.first_reply", parent)
	r, err := s.cl.Dist(context.Background(), 0, 1)
	end()
	if err != nil {
		s.close()
		return fmt.Errorf("first reply: %w", err)
	}
	s.checks.check(r.Err == "" && r.Dist == s.art.Oracle.Query(0, 1))
	return nil
}

// close stops the client, drains the wire server and closes the engine.
func (s *stack) close() {
	if s.cl != nil {
		s.cl.Close()
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.srv.Shutdown(ctx) // past the drain budget it force-closes; nothing to report
		cancel()
		<-s.served
	}
	if s.eng != nil {
		s.eng.Close()
	}
}

// release drops everything but the serving stack, so that the heap
// measured afterwards is what serving holds.
func (s *stack) release() {
	s.g, s.skel, s.art, s.sg = nil, nil, nil, nil
	s.gens, s.deltas, s.blob, s.batchNS = nil, nil, nil, nil
}
