package wire

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"spanner/internal/artifact"
	"spanner/internal/graph"
	"spanner/internal/obs"
	"spanner/internal/serve"
)

func testArtifact(t testing.TB, n int, seed int64) *artifact.Artifact {
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

// startWire boots an engine plus a wire server on a loopback listener and
// returns the address.
func startWire(t *testing.T, scfg serve.Config, wcfg ServerConfig) (string, *serve.Engine) {
	t.Helper()
	a := testArtifact(t, 80, 1)
	eng, err := serve.New(a, scfg)
	if err != nil {
		t.Fatal(err)
	}
	wcfg.Engine = eng
	srv, err := NewServer(wcfg)
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
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		eng.Close()
	})
	return ln.Addr().String(), eng
}

// rawConn is a hand-rolled protocol client for exercising the server
// frame by frame.
type rawConn struct {
	t  *testing.T
	c  net.Conn
	fr *Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawConn{t: t, c: c, fr: NewReader(c, 0)}
}

func (rc *rawConn) send(frame []byte) {
	rc.t.Helper()
	if _, err := rc.c.Write(frame); err != nil {
		rc.t.Fatalf("write: %v", err)
	}
}

func (rc *rawConn) recv() (Header, []byte) {
	rc.t.Helper()
	hdr, payload, err := rc.fr.Next()
	if err != nil {
		rc.t.Fatalf("read frame: %v", err)
	}
	return hdr, payload
}

// handshake performs the Hello/HelloAck exchange and returns the ack.
func (rc *rawConn) handshake() HelloAck {
	rc.t.Helper()
	rc.send(AppendHelloFrame(nil, Hello{Version: Version, Features: Features}))
	hdr, payload := rc.recv()
	if hdr.Type != MsgHelloAck {
		rc.t.Fatalf("handshake answered with frame type %d", hdr.Type)
	}
	var ack HelloAck
	if err := DecodeHelloAck(payload, &ack); err != nil {
		rc.t.Fatalf("DecodeHelloAck: %v", err)
	}
	return ack
}

func (rc *rawConn) query(corr uint64, q Query) Reply {
	rc.t.Helper()
	rc.send(AppendQueryFrame(nil, corr, q))
	hdr, payload := rc.recv()
	if hdr.Type != MsgReply || hdr.Corr != corr {
		rc.t.Fatalf("query answered with type %d corr %d", hdr.Type, hdr.Corr)
	}
	var rep Reply
	if err := DecodeReply(payload, &rep); err != nil {
		rc.t.Fatalf("DecodeReply: %v", err)
	}
	return rep
}

func TestServerHandshake(t *testing.T) {
	addr, eng := startWire(t, serve.Config{CacheSize: 64}, ServerConfig{})
	rc := dialRaw(t, addr)
	ack := rc.handshake()
	if ack.Version != Version {
		t.Fatalf("ack version = %d", ack.Version)
	}
	if ack.Features != Features {
		t.Fatalf("ack features = %x", ack.Features)
	}
	if int(ack.N) != eng.Snapshot().N() {
		t.Fatalf("ack N = %d, want %d", ack.N, eng.Snapshot().N())
	}
	if ack.Snapshot != eng.SnapshotID() {
		t.Fatalf("ack snapshot = %d, want %d", ack.Snapshot, eng.SnapshotID())
	}
}

func TestServerRefusesVersionMismatch(t *testing.T) {
	addr, _ := startWire(t, serve.Config{}, ServerConfig{})
	rc := dialRaw(t, addr)
	rc.send(AppendHelloFrame(nil, Hello{Version: Version + 7}))
	hdr, payload := rc.recv()
	if hdr.Type != MsgError || hdr.Corr != 0 {
		t.Fatalf("got frame type %d corr %d, want connection-fatal error", hdr.Type, hdr.Corr)
	}
	var e ErrorFrame
	if err := DecodeError(payload, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != CodeVersion {
		t.Fatalf("code = %v", e.Code)
	}
}

func TestServerRefusesNonHelloFirst(t *testing.T) {
	addr, _ := startWire(t, serve.Config{}, ServerConfig{})
	rc := dialRaw(t, addr)
	rc.send(AppendQueryFrame(nil, 1, Query{Type: TypeDist, U: 1, V: 2}))
	hdr, payload := rc.recv()
	if hdr.Type != MsgError {
		t.Fatalf("frame type = %d", hdr.Type)
	}
	var e ErrorFrame
	if err := DecodeError(payload, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != CodeBadFrame {
		t.Fatalf("code = %v", e.Code)
	}
}

func TestServerQueryMatchesEngine(t *testing.T) {
	addr, eng := startWire(t, serve.Config{CacheSize: 64}, ServerConfig{})
	rc := dialRaw(t, addr)
	rc.handshake()
	n := int32(eng.Snapshot().N())
	for i := 0; i < 50; i++ {
		u, v := int32(i)%n, (int32(i)*7+3)%n
		typ := uint8(i % 3)
		rep := rc.query(uint64(i+1), Query{Type: typ, U: u, V: v})
		want := eng.Query(serve.Request{Type: serve.QueryType(typ), U: u, V: v})
		if rep.Code != CodeOK && rep.Code != CodeNoRoute {
			t.Fatalf("query %d: code %v (%s)", i, rep.Code, rep.Detail)
		}
		if rep.Dist != want.Dist || rep.U != want.U || rep.V != want.V {
			t.Fatalf("query %d: wire %+v engine %+v", i, rep, want)
		}
		if len(rep.Path) != len(want.Path) {
			t.Fatalf("query %d: path len %d want %d", i, len(rep.Path), len(want.Path))
		}
		for j := range want.Path {
			if rep.Path[j] != want.Path[j] {
				t.Fatalf("query %d hop %d: %d want %d", i, j, rep.Path[j], want.Path[j])
			}
		}
	}
}

func TestServerDegradedDist(t *testing.T) {
	addr, _ := startWire(t, serve.Config{}, ServerConfig{})
	rc := dialRaw(t, addr)
	rc.handshake()
	rep := rc.query(1, Query{Type: TypeDist, U: 1, V: 5, AllowDegraded: true})
	if rep.Code != CodeOK || !rep.Degraded {
		t.Fatalf("degraded dist: %+v", rep)
	}
	// AllowDegraded on a path query is a bad request, with the HTTP
	// handler's exact wording.
	rep = rc.query(2, Query{Type: TypePath, U: 1, V: 5, AllowDegraded: true})
	if rep.Code != CodeBadQuery {
		t.Fatalf("code = %v", rep.Code)
	}
	if rep.Detail != "allowDegraded applies to dist queries only" {
		t.Fatalf("detail = %q", rep.Detail)
	}
}

func TestServerBadPriority(t *testing.T) {
	addr, _ := startWire(t, serve.Config{}, ServerConfig{})
	rc := dialRaw(t, addr)
	rc.handshake()
	rep := rc.query(1, Query{Type: TypeDist, U: 1, V: 2, Priority: 9})
	if rep.Code != CodeBadQuery {
		t.Fatalf("code = %v (%s)", rep.Code, rep.Detail)
	}
}

func TestServerBrownoutSheds(t *testing.T) {
	addr, eng := startWire(t, serve.Config{}, ServerConfig{})
	eng.SetBrownout(true)
	rc := dialRaw(t, addr)
	rc.handshake()
	rep := rc.query(1, Query{Type: TypeDist, U: 1, V: 2, Priority: PriorityLow})
	if rep.Code != CodeBrownout {
		t.Fatalf("code = %v (%s)", rep.Code, rep.Detail)
	}
	// High-priority traffic still flows.
	rep = rc.query(2, Query{Type: TypeDist, U: 1, V: 2})
	if rep.Code != CodeOK {
		t.Fatalf("high-priority under brownout: %v (%s)", rep.Code, rep.Detail)
	}
}

func TestServerBatch(t *testing.T) {
	addr, eng := startWire(t, serve.Config{CacheSize: 64}, ServerConfig{})
	rc := dialRaw(t, addr)
	rc.handshake()
	qs := []Query{
		{Type: TypeDist, U: 1, V: 2},
		{Type: TypePath, U: 3, V: 4},
		{Type: TypeDist, U: 70, V: 9},
	}
	rc.send(AppendBatchFrame(nil, 5, qs))
	hdr, payload := rc.recv()
	if hdr.Type != MsgBatchReply || hdr.Corr != 5 {
		t.Fatalf("frame type %d corr %d", hdr.Type, hdr.Corr)
	}
	rs, err := DecodeBatchReply(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(qs) {
		t.Fatalf("len = %d", len(rs))
	}
	for i, q := range qs {
		want := eng.Query(serve.Request{Type: serve.QueryType(q.Type), U: q.U, V: q.V})
		if rs[i].Dist != want.Dist {
			t.Fatalf("entry %d: dist %d want %d", i, rs[i].Dist, want.Dist)
		}
	}
}

// TestServerBatchDegraded pins the batch path's AllowDegraded semantics:
// dist entries are served via the inline landmark bound, flagged Degraded,
// exactly like a lone query — the client coalesces concurrent point queries
// into MsgBatch frames, so a degraded query must not change meaning when it
// rides in a batch — and non-dist entries fail per slot with the HTTP
// handler's exact wording.
func TestServerBatchDegraded(t *testing.T) {
	addr, eng := startWire(t, serve.Config{}, ServerConfig{})
	rc := dialRaw(t, addr)
	rc.handshake()
	qs := []Query{
		{Type: TypeDist, U: 1, V: 5, AllowDegraded: true},
		{Type: TypeDist, U: 2, V: 6},
		{Type: TypePath, U: 1, V: 5, AllowDegraded: true},
	}
	rc.send(AppendBatchFrame(nil, 7, qs))
	hdr, payload := rc.recv()
	if hdr.Type != MsgBatchReply || hdr.Corr != 7 {
		t.Fatalf("frame type %d corr %d", hdr.Type, hdr.Corr)
	}
	rs, err := DecodeBatchReply(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(qs) {
		t.Fatalf("len = %d", len(rs))
	}
	want := eng.DegradedDist(1, 5)
	if rs[0].Code != CodeOK || !rs[0].Degraded || rs[0].Dist != want.Dist {
		t.Fatalf("degraded entry: %+v, want Degraded dist %d", rs[0], want.Dist)
	}
	if rs[1].Code != CodeOK || rs[1].Degraded {
		t.Fatalf("exact entry: %+v", rs[1])
	}
	if rs[2].Code != CodeBadQuery || rs[2].Detail != "allowDegraded applies to dist queries only" {
		t.Fatalf("non-dist degraded entry: %+v", rs[2])
	}
}

func TestServerBatchOverLimit(t *testing.T) {
	addr, eng := startWire(t, serve.Config{MaxBatch: 2}, ServerConfig{})
	rc := dialRaw(t, addr)
	rc.handshake()
	qs := make([]Query, 5)
	for i := range qs {
		qs[i] = Query{Type: TypeDist, U: 1, V: 2}
	}
	rc.send(AppendBatchFrame(nil, 9, qs))
	hdr, payload := rc.recv()
	if hdr.Type != MsgError || hdr.Corr != 9 {
		t.Fatalf("frame type %d corr %d", hdr.Type, hdr.Corr)
	}
	var e ErrorFrame
	if err := DecodeError(payload, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != CodeRejected || e.RetryAfterMS != 1000 {
		t.Fatalf("error = %+v", e)
	}
	want := fmt.Sprintf("batch of %d exceeds the current limit of %d", len(qs), eng.MaxBatch())
	if e.Detail != want {
		t.Fatalf("detail = %q, want %q (HTTP parity)", e.Detail, want)
	}
}

func TestServerHealthz(t *testing.T) {
	addr, eng := startWire(t, serve.Config{}, ServerConfig{
		SLOStatus: func() string { return "meeting SLO" },
	})
	rc := dialRaw(t, addr)
	rc.handshake()
	rc.send(AppendHealthzFrame(nil, 3))
	hdr, payload := rc.recv()
	if hdr.Type != MsgHealthzReply || hdr.Corr != 3 {
		t.Fatalf("frame type %d corr %d", hdr.Type, hdr.Corr)
	}
	var h HealthzReply
	if err := DecodeHealthzReply(payload, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.SLO != "meeting SLO" || int(h.N) != eng.Snapshot().N() {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestServerPipelining sends a burst of queries without reading any reply,
// then collects all of them: a connection answers its frames one at a time,
// so the replies come back in request order.
func TestServerPipelining(t *testing.T) {
	addr, _ := startWire(t, serve.Config{CacheSize: 64}, ServerConfig{})
	rc := dialRaw(t, addr)
	rc.handshake()
	const burst = 64
	var buf []byte
	for i := 1; i <= burst; i++ {
		buf = AppendQueryFrame(buf, uint64(i), Query{Type: TypeDist, U: int32(i % 50), V: int32((i * 3) % 50)})
	}
	rc.send(buf)
	for i := uint64(1); i <= burst; i++ {
		hdr, payload := rc.recv()
		if hdr.Type != MsgReply || hdr.Corr != i {
			t.Fatalf("reply %d: frame type %d corr %d, want a reply to corr %d", i, hdr.Type, hdr.Corr, i)
		}
		var rep Reply
		if err := DecodeReply(payload, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Code != CodeOK {
			t.Fatalf("corr %d: code %v (%s)", hdr.Corr, rep.Code, rep.Detail)
		}
	}
}

func TestServerUnknownFrameFatal(t *testing.T) {
	addr, _ := startWire(t, serve.Config{}, ServerConfig{})
	rc := dialRaw(t, addr)
	rc.handshake()
	// Hand-build a checksum-valid frame of an unknown type.
	buf, start := beginFrame(nil, 200, 1)
	buf = finishFrame(buf, start)
	rc.send(buf)
	hdr, payload := rc.recv()
	if hdr.Type != MsgError {
		t.Fatalf("frame type = %d", hdr.Type)
	}
	var e ErrorFrame
	if err := DecodeError(payload, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != CodeBadFrame {
		t.Fatalf("code = %v", e.Code)
	}
	// The server then drops the connection.
	if _, _, err := rc.fr.Next(); err == nil {
		t.Fatal("connection stayed open after a bad frame")
	}
}

func TestServerShutdownUnblocksClients(t *testing.T) {
	a := testArtifact(t, 40, 1)
	eng, err := serve.New(a, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := NewServer(ServerConfig{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	rc := dialRaw(t, ln.Addr().String())
	rc.handshake()
	rep := rc.query(1, Query{Type: TypeDist, U: 1, V: 2})
	if rep.Code != CodeOK {
		t.Fatalf("pre-shutdown query: %v", rep.Code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
	// The server says a typed goodbye (connection-fatal CodeClosed), then
	// the stream ends rather than hanging.
	rc.c.SetReadDeadline(time.Now().Add(2 * time.Second))
	hdr, payload, err := rc.fr.Next()
	if err == nil {
		if hdr.Type != MsgError || hdr.Corr != 0 {
			t.Fatalf("post-shutdown frame type %d corr %d", hdr.Type, hdr.Corr)
		}
		var e ErrorFrame
		if err := DecodeError(payload, &e); err != nil {
			t.Fatal(err)
		}
		if e.Code != CodeClosed {
			t.Fatalf("goodbye code = %v", e.Code)
		}
		_, _, err = rc.fr.Next()
	}
	if err == nil {
		t.Fatal("stream still open after shutdown goodbye")
	}
}

// TestServerShutdownRacesHandshake races Shutdown against connections that
// complete the handshake and then go quiet. handleConn clears the handshake
// read deadline right where Shutdown's abort would land, so without the
// post-handshake closed re-check a quiet client could erase the abort and
// stall Shutdown until its context expired (or forever, with no deadline).
// Shutdown here must always finish on its own, never via the 5s force-close.
func TestServerShutdownRacesHandshake(t *testing.T) {
	a := testArtifact(t, 40, 1)
	eng, err := serve.New(a, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 30; i++ {
		srv, err := NewServer(ServerConfig{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		// Wait for Serve to register the listener so Shutdown races the
		// handshake, not server startup.
		for deadline := time.Now().Add(2 * time.Second); ; {
			srv.mu.Lock()
			serving := srv.ln != nil
			srv.mu.Unlock()
			if serving {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("iteration %d: Serve never registered the listener", i)
			}
			time.Sleep(time.Millisecond)
		}

		// The client handshakes concurrently with Shutdown and then never
		// sends a frame; it reads until the server ends the stream.
		hello := make(chan struct{})
		var cwg sync.WaitGroup
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			c, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
			if err != nil {
				close(hello)
				return
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(10 * time.Second))
			_, werr := c.Write(AppendHelloFrame(nil, Hello{Version: Version, Features: Features}))
			close(hello)
			if werr != nil {
				return
			}
			fr := NewReader(c, 0)
			for {
				if _, _, err := fr.Next(); err != nil {
					return
				}
			}
		}()
		// Shutdown starts with the Hello in flight, concurrent with the
		// server-side handshake processing.
		<-hello

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			cancel()
			t.Fatalf("iteration %d: Shutdown waited on a handshaking connection: %v", i, err)
		}
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("iteration %d: Serve returned %v", i, err)
		}
		cwg.Wait()
	}
}

// TestServerShutdownAnswersInOrder holds frame 1's evaluation, pipelines
// frames 2–8 behind it and starts Shutdown before releasing the hold. The
// connection must answer an in-order prefix of the frames starting at corr
// 1, then say the CodeClosed goodbye and end the stream, and Shutdown must
// finish on its own rather than by force-closing the connection.
func TestServerShutdownAnswersInOrder(t *testing.T) {
	a := testArtifact(t, 40, 1)
	eng, err := serve.New(a, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	var hold sync.Once
	eng.SetTestHook(func() {
		hold.Do(func() {
			close(entered)
			<-release
		})
	})
	srv, err := NewServer(ServerConfig{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	rc := dialRaw(t, ln.Addr().String())
	rc.handshake()
	rc.send(AppendQueryFrame(nil, 1, Query{Type: TypeDist, U: 1, V: 2}))
	<-entered
	var buf []byte
	for i := 2; i <= 8; i++ {
		buf = AppendQueryFrame(buf, uint64(i), Query{Type: TypeDist, U: int32(i), V: 3})
	}
	rc.send(buf)

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shut <- srv.Shutdown(ctx)
	}()
	for !srv.closing() {
		time.Sleep(time.Millisecond)
	}
	close(release)

	next := uint64(1)
	for {
		hdr, payload, err := rc.fr.Next()
		if err != nil {
			t.Fatalf("stream ended after %d replies without a goodbye: %v", next-1, err)
		}
		if hdr.Type == MsgError {
			var e ErrorFrame
			if err := DecodeError(payload, &e); err != nil {
				t.Fatal(err)
			}
			if hdr.Corr != 0 || e.Code != CodeClosed {
				t.Fatalf("error frame corr %d code %v (%s), want the CodeClosed goodbye", hdr.Corr, e.Code, e.Detail)
			}
			break
		}
		if hdr.Type != MsgReply || hdr.Corr != next {
			t.Fatalf("frame type %d corr %d, want a reply to corr %d", hdr.Type, hdr.Corr, next)
		}
		var rep Reply
		if err := DecodeReply(payload, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Code != CodeOK {
			t.Fatalf("corr %d: code %v (%s)", hdr.Corr, rep.Code, rep.Detail)
		}
		next++
	}
	if next == 1 {
		t.Fatal("the frame being evaluated at Shutdown was never answered")
	}
	if _, _, err := rc.fr.Next(); err == nil {
		t.Fatal("stream still open after the goodbye")
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

func TestServerObsMetrics(t *testing.T) {
	ob := obs.New()
	addr, _ := startWire(t, serve.Config{Obs: ob, MaxBatch: 2}, ServerConfig{Obs: ob})
	rc := dialRaw(t, addr)
	rc.handshake()
	rc.query(1, Query{Type: TypeDist, U: 1, V: 2})
	// An accepted batch and a refused over-limit one: each frame counts as
	// one request with one latency sample, and the refusal as an error.
	rc.send(AppendBatchFrame(nil, 2, []Query{{Type: TypeDist, U: 1, V: 2}}))
	if hdr, _ := rc.recv(); hdr.Type != MsgBatchReply {
		t.Fatalf("batch answered with frame type %d", hdr.Type)
	}
	rc.send(AppendBatchFrame(nil, 3, make([]Query, 3)))
	if hdr, _ := rc.recv(); hdr.Type != MsgError {
		t.Fatalf("over-limit batch answered with frame type %d", hdr.Type)
	}
	// Healthz probes are not requests.
	rc.send(AppendHealthzFrame(nil, 4))
	rc.recv()
	var requests, errs, samples int64 = -1, -1, -1
	for _, m := range ob.Registry().Snapshot() {
		if !metricHasLabel(m.Labels, "transport", "wire") {
			continue
		}
		switch m.Name {
		case "transport.requests":
			requests = int64(m.Value)
		case "transport.errors":
			errs = int64(m.Value)
		case "transport.latency_us":
			samples = m.Count
		}
	}
	if requests != 3 || errs != 1 || samples != 3 {
		t.Fatalf("transport{transport=wire}: requests %d errors %d latency samples %d, want 3, 1, 3",
			requests, errs, samples)
	}
}

func metricHasLabel(labels []obs.Label, k, v string) bool {
	for _, l := range labels {
		if l.Key == k && l.Value == v {
			return true
		}
	}
	return false
}
