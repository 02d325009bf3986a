package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spanner/internal/artifact"
	"spanner/internal/graph"
	"spanner/internal/obs"
	"spanner/internal/serve"
	"spanner/internal/wire"
)

func wireTestArtifact(t testing.TB, n int, seed int64) *artifact.Artifact {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.ConnectedGnp(n, 8/float64(n), rng)
	sp := graph.NewEdgeSet(g.N())
	_, parent := g.BFSWithParents(0)
	for v := int32(0); int(v) < g.N(); v++ {
		if parent[v] != graph.Unreachable && parent[v] != v {
			sp.Add(v, parent[v])
		}
	}
	a, err := artifact.Build(g, sp, "test", 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// startWireServer boots an engine plus wire server and returns its address
// and the observer carrying the server-side metrics.
func startWireServer(t testing.TB, scfg serve.Config) (string, *serve.Engine, *obs.Observer) {
	t.Helper()
	ob := obs.New()
	if scfg.Obs == nil {
		scfg.Obs = ob
	}
	a := wireTestArtifact(t, 80, 1)
	eng, err := serve.New(a, scfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := wire.NewServer(wire.ServerConfig{Engine: eng, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
		eng.Close()
	})
	return ln.Addr().String(), eng, ob
}

// fastWireCfg keeps retry chains inside test time and turns the scavenger
// off (tests that want it set their own period).
func fastWireCfg(addr string) WireConfig {
	return WireConfig{
		Addr:          addr,
		Timeout:       2 * time.Second,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    4 * time.Millisecond,
		Seed:          7,
		ScavengeEvery: -1,
	}
}

func newWireClient(t testing.TB, cfg WireConfig) *WireClient {
	t.Helper()
	cl, err := NewWire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestWireQueryMatchesEngine(t *testing.T) {
	addr, eng, _ := startWireServer(t, serve.Config{CacheSize: 64})
	cl := newWireClient(t, fastWireCfg(addr))
	n := int32(eng.Snapshot().N())
	types := []string{"dist", "path", "route"}
	for i := 0; i < 60; i++ {
		u, v := int32(i)%n, (int32(i)*13+5)%n
		q := Query{Type: types[i%3], U: u, V: v}
		got, err := cl.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want := eng.Query(serve.Request{Type: serve.QueryType(i % 3), U: u, V: v})
		if got.Dist != want.Dist || got.U != u || got.V != v || got.Type != q.Type {
			t.Fatalf("query %d: got %+v engine %+v", i, got, want)
		}
		if len(got.Path) != len(want.Path) {
			t.Fatalf("query %d: path %v want %v", i, got.Path, want.Path)
		}
	}
}

func TestWireDist(t *testing.T) {
	addr, eng, _ := startWireServer(t, serve.Config{})
	cl := newWireClient(t, fastWireCfg(addr))
	got, err := cl.Dist(context.Background(), 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := eng.Query(serve.Request{Type: serve.QueryDist, U: 3, V: 42})
	if got.Dist != want.Dist || got.Type != "dist" || got.Snapshot != want.SnapshotID {
		t.Fatalf("got %+v want dist %d", got, want.Dist)
	}
}

func TestWireNoRouteSurfacesAsReplyErr(t *testing.T) {
	addr, _, _ := startWireServer(t, serve.Config{})
	cl := newWireClient(t, fastWireCfg(addr))
	// Vertex out of range is a bad request; an unreachable pair inside
	// range is a no-route reply. The test graph is connected, so force the
	// no-route shape through a route query to itself being fine — instead
	// use the engine's bad-vertex answer for the typed-error path:
	_, err := cl.Dist(context.Background(), 0, 9999)
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("out-of-range vertex: %v, want ErrBadRequest", err)
	}
}

func TestWireBatch(t *testing.T) {
	addr, eng, _ := startWireServer(t, serve.Config{CacheSize: 64})
	cl := newWireClient(t, fastWireCfg(addr))
	qs := []Query{
		{Type: "dist", U: 1, V: 2},
		{Type: "nonsense", U: 3, V: 4},
		{Type: "path", U: 5, V: 6},
		{Type: "dist", U: 7, V: 8, Priority: "low"},
	}
	rs, err := cl.Batch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(qs) {
		t.Fatalf("len = %d", len(rs))
	}
	if rs[1].Err == "" || !strings.Contains(rs[1].Err, "unknown query type") {
		t.Fatalf("invalid entry err = %q", rs[1].Err)
	}
	for _, i := range []int{0, 3} {
		want := eng.Query(serve.Request{Type: serve.QueryDist, U: qs[i].U, V: qs[i].V})
		if rs[i].Dist != want.Dist || rs[i].Err != "" {
			t.Fatalf("entry %d: %+v want dist %d", i, rs[i], want.Dist)
		}
	}
	want := eng.Query(serve.Request{Type: serve.QueryPath, U: 5, V: 6})
	if len(rs[2].Path) != len(want.Path) {
		t.Fatalf("path entry: %v want %v", rs[2].Path, want.Path)
	}
}

func TestWireHealthz(t *testing.T) {
	addr, eng, _ := startWireServer(t, serve.Config{})
	cl := newWireClient(t, fastWireCfg(addr))
	h, err := cl.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.N != eng.Snapshot().N() || h.Snapshot != eng.SnapshotID() {
		t.Fatalf("healthz = %+v", h)
	}
}

func TestWireBrownoutIsRejectedWithHint(t *testing.T) {
	addr, eng, _ := startWireServer(t, serve.Config{})
	eng.SetBrownout(true)
	cfg := fastWireCfg(addr)
	cfg.MaxRetries = -1 // surface the rejection, don't ride the hint
	cl := newWireClient(t, cfg)
	_, err := cl.Query(context.Background(), Query{Type: "dist", U: 1, V: 2, Priority: "low"})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	var re *RejectedError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T, want *RejectedError", err)
	}
	// HTTP parity: spannerd answers brownout with Retry-After: 1.
	if re.After != time.Second {
		t.Fatalf("After = %v, want 1s", re.After)
	}
	// High-priority traffic still succeeds.
	if _, err := cl.Dist(context.Background(), 1, 2); err != nil {
		t.Fatalf("high priority under brownout: %v", err)
	}
}

func TestWireBatchOverLimitRejected(t *testing.T) {
	addr, _, _ := startWireServer(t, serve.Config{MaxBatch: 2})
	cfg := fastWireCfg(addr)
	cfg.MaxRetries = -1
	cl := newWireClient(t, cfg)
	qs := make([]Query, 6)
	for i := range qs {
		qs[i] = Query{Type: "dist", U: 1, V: 2}
	}
	_, err := cl.Batch(context.Background(), qs)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	var re *RejectedError
	if !errors.As(err, &re) || re.After != time.Second {
		t.Fatalf("err = %v, want 1s Retry-After hint", err)
	}
	if !strings.Contains(re.Detail, "exceeds the current limit") {
		t.Fatalf("detail = %q", re.Detail)
	}
}

func TestWireLocalValidation(t *testing.T) {
	cl := newWireClient(t, fastWireCfg("127.0.0.1:1"))
	if _, err := cl.Query(context.Background(), Query{Type: "bogus", U: 1, V: 2}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad type: %v", err)
	}
	if _, err := cl.Query(context.Background(), Query{Type: "dist", Priority: "urgent"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad priority: %v", err)
	}
	if _, err := NewWire(WireConfig{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty addr: %v", err)
	}
}

// silentWireServer handshakes and then swallows every frame, never
// answering — the shape of a wedged server. The returned counter tallies
// swallowed post-handshake frames across all connections.
func silentWireServer(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var frames atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				fr := wire.NewReader(c, 0)
				hdr, _, err := fr.Next()
				if err != nil || hdr.Type != wire.MsgHello {
					return
				}
				ack := wire.AppendHelloAckFrame(nil, wire.HelloAck{Version: wire.Version, Features: wire.Features})
				if _, err := c.Write(ack); err != nil {
					return
				}
				for {
					if _, _, err := fr.Next(); err != nil {
						return
					}
					frames.Add(1)
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String(), &frames
}

func TestWireTimeoutRetriesThenFails(t *testing.T) {
	addr, frames := silentWireServer(t)
	cfg := fastWireCfg(addr)
	cfg.Timeout = 40 * time.Millisecond
	cfg.MaxRetries = 2
	cl := newWireClient(t, cfg)
	start := time.Now()
	_, err := cl.Dist(context.Background(), 1, 2)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry chain took %v", elapsed)
	}
	// All three attempts reached the server as frames.
	if n := frames.Load(); n != 3 {
		t.Fatalf("server swallowed %d query frames, want 3", n)
	}
}

func TestWireBreakerOpens(t *testing.T) {
	// Dial a dead port: every attempt is a breaker-counted failure.
	cfg := fastWireCfg("127.0.0.1:1")
	cfg.MaxRetries = 1
	cfg.BreakerThreshold = 2
	cfg.DialTimeout = 100 * time.Millisecond
	cl := newWireClient(t, cfg)
	if _, err := cl.Dist(context.Background(), 1, 2); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("first call: %v", err)
	}
	if cl.Stats().Breaker != "open" {
		t.Fatalf("breaker = %q after threshold failures", cl.Stats().Breaker)
	}
	_, err := cl.Dist(context.Background(), 1, 2)
	if err == nil || !strings.Contains(err.Error(), "circuit breaker open") {
		t.Fatalf("second call: %v", err)
	}
}

func TestWirePipeliningConcurrent(t *testing.T) {
	addr, eng, _ := startWireServer(t, serve.Config{CacheSize: 64})
	cfg := fastWireCfg(addr)
	cfg.Conns = 1 // everything pipelines over one connection
	cl := newWireClient(t, cfg)
	n := int32(eng.Snapshot().N())
	const workers = 16
	const perWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				u := int32(w*perWorker+i) % n
				v := (u*7 + 3) % n
				got, err := cl.Dist(context.Background(), u, v)
				if err != nil {
					errs <- err
					return
				}
				want := eng.Query(serve.Request{Type: serve.QueryDist, U: u, V: v})
				if got.Dist != want.Dist {
					errs <- errors.New("distance mismatch under pipelining")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestWireConnectionReuse(t *testing.T) {
	addr, _, ob := startWireServer(t, serve.Config{})
	cfg := fastWireCfg(addr)
	cfg.Conns = 1
	cl := newWireClient(t, cfg)
	for i := 0; i < 20; i++ {
		if _, err := cl.Dist(context.Background(), 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range ob.Registry().Snapshot() {
		if m.Name == "wire.handshakes" && m.Value != 1 {
			t.Fatalf("%d handshakes for 20 sequential queries, want 1 (pooled conn reuse)", int(m.Value))
		}
	}
}

// TestWireCoalescing drives the caller-flusher write path deterministically
// over a synchronous net.Pipe: while the flusher is blocked writing the
// first query, three more point queries pile up, and the next flush must
// carry them as one MsgBatch frame whose members are delivered
// individually.
func TestWireCoalescing(t *testing.T) {
	cl := newWireClient(t, fastWireCfg("unused:1"))
	ours, theirs := net.Pipe()
	cn := &wconn{cl: cl, c: ours, pending: make(map[uint64]*wcall)}
	go cn.readLoop(wire.NewReader(ours, 0))
	defer theirs.Close()

	type result struct {
		rep Reply
		err error
	}
	results := make(chan result, 4)
	issue := func(u, v int32, degraded bool) {
		call := cl.getCall()
		call.kind = ckQuery
		call.q = wire.Query{Type: wire.TypeDist, U: u, V: v, AllowDegraded: degraded}
		if err := cn.enqueue(call); err != nil {
			results <- result{err: err}
			return
		}
		delivered, ae := cl.await(cn, call, 5*time.Second, context.Background())
		switch {
		case !delivered:
			results <- result{err: ae.err}
		case ae != nil:
			results <- result{err: ae.err}
		default:
			results <- result{rep: wireToReply(&call.rep)}
			cl.putCall(call)
		}
	}

	go issue(1, 2, false) // becomes the flusher, blocks in the pipe write
	waitFor := func(cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatal("condition never held")
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(func() bool {
		cn.mu.Lock()
		defer cn.mu.Unlock()
		return cn.flushing && len(cn.queue) == 0
	})
	// One of the piled-up queries asks for the degraded landmark bound: it
	// must be coalesced like any other point query, flag intact (the server
	// batch path serves it via DegradedDist, same as a lone query).
	go issue(3, 4, false)
	go issue(5, 6, true)
	go issue(7, 8, false)
	waitFor(func() bool {
		cn.mu.Lock()
		defer cn.mu.Unlock()
		return len(cn.queue) == 3
	})

	fr := wire.NewReader(theirs, 0)
	hdr, payload, err := fr.Next()
	if err != nil || hdr.Type != wire.MsgQuery {
		t.Fatalf("first frame: type %d err %v", hdr.Type, err)
	}
	var q wire.Query
	if err := wire.DecodeQuery(payload, &q); err != nil {
		t.Fatal(err)
	}
	firstCorr := hdr.Corr

	hdr, payload, err = fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Type != wire.MsgBatch {
		t.Fatalf("piled-up point queries flushed as frame type %d, want MsgBatch", hdr.Type)
	}
	qs, err := wire.DecodeBatch(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 3 {
		t.Fatalf("coalesced %d queries, want 3", len(qs))
	}
	degraded := 0
	for _, bq := range qs {
		if bq.AllowDegraded {
			degraded++
		}
	}
	if degraded != 1 {
		t.Fatalf("%d coalesced queries carry AllowDegraded, want 1", degraded)
	}

	// Answer both frames: echo U+V as the distance so each caller can be
	// checked against its own query.
	var out []byte
	rep := wire.Reply{Type: wire.TypeDist, U: q.U, V: q.V, Dist: q.U + q.V}
	out = wire.AppendReplyFrame(out, firstCorr, &rep)
	batchReps := make([]wire.Reply, len(qs))
	for i, bq := range qs {
		batchReps[i] = wire.Reply{Type: wire.TypeDist, U: bq.U, V: bq.V, Dist: bq.U + bq.V}
	}
	out = wire.AppendBatchReplyFrame(out, hdr.Corr, batchReps)
	if _, err := theirs.Write(out); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("caller %d: %v", i, r.err)
		}
		if r.rep.Dist != r.rep.U+r.rep.V {
			t.Fatalf("caller %d: reply %+v not matched to its query", i, r.rep)
		}
	}
}

// TestWireConcurrentDegraded fires concurrent AllowDegraded dist queries —
// the exact traffic the cluster router emits during quorum loss — through a
// single pooled connection, so runs of them are coalesced into MsgBatch
// frames. Every answer must be the same flagged landmark bound a lone query
// gets, whether or not it rode in a batch.
func TestWireConcurrentDegraded(t *testing.T) {
	addr, eng, _ := startWireServer(t, serve.Config{CacheSize: 64})
	cfg := fastWireCfg(addr)
	cfg.Conns = 1
	cl := newWireClient(t, cfg)
	n := int32(eng.Snapshot().N())

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				u, v := int32(g*25+i)%n, (int32(g)*7+int32(i)*3+1)%n
				rep, err := cl.Query(context.Background(),
					Query{Type: "dist", U: u, V: v, AllowDegraded: true})
				if err != nil {
					errs <- fmt.Errorf("degraded dist(%d,%d): %v", u, v, err)
					return
				}
				if !rep.Degraded || rep.Err != "" {
					errs <- fmt.Errorf("degraded dist(%d,%d) not flagged: %+v", u, v, rep)
					return
				}
				if want := eng.DegradedDist(u, v); rep.Dist != want.Dist {
					errs <- fmt.Errorf("degraded dist(%d,%d) = %d, engine says %d",
						u, v, rep.Dist, want.Dist)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

func TestWireScavengerDropsDeadConns(t *testing.T) {
	a := wireTestArtifact(t, 40, 1)
	eng, err := serve.New(a, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := wire.NewServer(wire.ServerConfig{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	cfg := fastWireCfg(ln.Addr().String())
	cfg.Conns = 1
	cfg.ScavengeEvery = 20 * time.Millisecond
	cfg.MaxRetries = -1
	cl := newWireClient(t, cfg)
	if _, err := cl.Dist(context.Background(), 1, 2); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	<-done

	deadline := time.Now().Add(3 * time.Second)
	for {
		cl.mu.Lock()
		empty := cl.slots[0] == nil
		cl.mu.Unlock()
		if empty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scavenger never dropped the dead connection")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestWireRequireExact(t *testing.T) {
	addr, _, _ := startWireServer(t, serve.Config{})
	cfg := fastWireCfg(addr)
	cfg.RequireExact = true
	cl := newWireClient(t, cfg)
	rep, err := cl.Query(context.Background(), Query{Type: "dist", U: 1, V: 5, AllowDegraded: true})
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded", err)
	}
	if !rep.Degraded {
		t.Fatalf("reply = %+v, want Degraded set", rep)
	}
}

// echoWireServer handshakes and then answers every point query with a
// fixed-shape reply, reusing its buffers so the responder itself performs
// zero steady-state allocations. Allocation assertions against it measure
// the client request path plus the wire codec — exactly the two layers the
// zero-alloc criterion covers — without the serving engine's own
// per-request allocations (reply tasks, WaitGroups) muddying the global
// malloc counter AllocsPerRun reads.
func echoWireServer(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				fr := wire.NewReader(c, 0)
				hdr, _, err := fr.Next()
				if err != nil || hdr.Type != wire.MsgHello {
					return
				}
				ack := wire.AppendHelloAckFrame(nil, wire.HelloAck{Version: wire.Version, Features: wire.Features, N: 100})
				if _, err := c.Write(ack); err != nil {
					return
				}
				var (
					q   wire.Query
					rep wire.Reply
					buf []byte
				)
				for {
					hdr, payload, err := fr.Next()
					if err != nil || hdr.Type != wire.MsgQuery {
						return
					}
					if err := wire.DecodeQuery(payload, &q); err != nil {
						return
					}
					rep = wire.Reply{Type: q.Type, U: q.U, V: q.V, Dist: q.U + q.V, Snapshot: 1}
					buf = wire.AppendReplyFrame(buf[:0], hdr.Corr, &rep)
					if _, err := c.Write(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// TestWireDistZeroAlloc is the acceptance-criteria assertion: a warmed-up
// steady-state point query allocates nothing on the client request path.
func TestWireDistZeroAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are inflated under -race instrumentation")
	}
	cfg := fastWireCfg(echoWireServer(t))
	cfg.Conns = 1
	cl := newWireClient(t, cfg)
	ctx := context.Background()
	for i := 0; i < 50; i++ { // warm the conn, call pool and timer
		if _, err := cl.Dist(ctx, 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := cl.Dist(ctx, 1, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Dist allocates %.2f objects/op, want 0", allocs)
	}
}

// TestWireDistZeroAllocRealServer holds the same bar end to end: a warmed
// Dist against the real wire server and engine (cache off, so every query
// is evaluated) allocates nothing in the client, the server or the engine.
func TestWireDistZeroAllocRealServer(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are inflated under -race instrumentation")
	}
	addr, _, _ := startWireServer(t, serve.Config{CacheSize: -1})
	cfg := fastWireCfg(addr)
	cfg.Conns = 1
	cl := newWireClient(t, cfg)
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if _, err := cl.Dist(ctx, 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := cl.Dist(ctx, 1, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Dist through the real server allocates %.2f objects/op, want 0", allocs)
	}
}

// BenchmarkWireClientDistAllocs is the benchmark-asserted form of the
// zero-alloc criterion: allocs/op must report 0 against the zero-alloc
// echo responder.
func BenchmarkWireClientDistAllocs(b *testing.B) {
	cfg := fastWireCfg(echoWireServer(b))
	cfg.Conns = 1
	cl, err := NewWire(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if _, err := cl.Dist(ctx, 1, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Dist(ctx, 1, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireClientDist measures the full engine-backed round trip
// (allocs/op here includes the serving engine's own work).
func BenchmarkWireClientDist(b *testing.B) {
	addr, _, _ := startWireServer(b, serve.Config{CacheSize: 256})
	cfg := fastWireCfg(addr)
	cfg.Conns = 1
	cl, err := NewWire(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if _, err := cl.Dist(ctx, 1, 2); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Dist(ctx, 1, 2); err != nil {
			b.Fatal(err)
		}
	}
}
