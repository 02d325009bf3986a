package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"spanner/internal/graph"
	"spanner/internal/obs"
	"spanner/internal/serve"
)

// Server answers the binary protocol over TCP against a serve.Engine — the
// same engine, admission control, brownout and tracing the HTTP handlers
// share, so the two transports differ only in encoding. Each connection
// performs the Hello/HelloAck handshake, then streams pipelined frames: a
// per-connection worker pool answers them concurrently and out of order
// (replies matched by correlation id).
type Server struct {
	cfg ServerConfig

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	pool sync.Pool // *stask

	connsGauge *obs.Gauge
	handshakes *obs.Counter
	requests   *obs.Counter
	errs       *obs.Counter
	badFrames  *obs.Counter
	latency    *obs.Histogram
	batchSize  *obs.Histogram
}

// ServerConfig wires a Server to its engine and observability stack.
type ServerConfig struct {
	// Engine answers the queries. Required.
	Engine *serve.Engine
	// Obs receives transport-labeled metrics (nil disables).
	Obs *obs.Observer
	// Logger receives connection-level events (nil discards).
	Logger *slog.Logger
	// MaxFrame bounds accepted payloads (0 = DefaultMaxFrame).
	MaxFrame uint32
	// Workers is the per-connection worker pool size — how many frames of
	// one connection are answered concurrently (0 = 8).
	Workers int
	// GenOf maps a snapshot id to its cluster generation for reply
	// stamping (nil = always 0), mirroring the HTTP server's cluster
	// stamping.
	GenOf func(snapshot int64) int64
	// SLOStatus reports the current SLO state for healthz frames (nil =
	// "").
	SLOStatus func() string
}

// batchRetryAfterMS mirrors the HTTP 429 Retry-After hint ("1" second):
// brownouts lift on the SLO monitor's poll cadence, so "come back in 1s" is
// honest pacing for a refused batch too.
const batchRetryAfterMS = 1000

// stask is one in-flight frame's scratch state, pooled per server so the
// steady-state query path allocates nothing.
type stask struct {
	corr  uint64
	typ   uint8
	q     Query
	qs    []Query
	reqs  []serve.Request
	wrep  Reply
	wreps []Reply
	buf   []byte
}

// NewServer builds a wire server over eng's engine.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("wire: ServerConfig.Engine is required")
	}
	if cfg.MaxFrame == 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(discardHandler{})
	}
	s := &Server{cfg: cfg, conns: make(map[net.Conn]struct{})}
	s.pool.New = func() any { return new(stask) }
	if cfg.Obs != nil {
		reg := cfg.Obs.Registry()
		lbl := obs.Label{Key: "transport", Value: "wire"}
		s.connsGauge = reg.Gauge("wire.conns")
		s.handshakes = reg.Counter("wire.handshakes")
		s.requests = reg.Counter("transport.requests", lbl)
		s.errs = reg.Counter("transport.errors", lbl)
		s.badFrames = reg.Counter("wire.bad_frames")
		s.latency = reg.Histogram("transport.latency_us", lbl)
		s.batchSize = reg.Histogram("wire.batch_size")
	}
	return s, nil
}

// discardHandler is a no-op slog handler so the logger is never nil.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// Serve accepts connections on ln until Shutdown (or a listener error).
// Returns nil after a Shutdown-initiated stop.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("wire: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		if s.connsGauge != nil {
			s.connsGauge.Set(int64(len(s.conns)))
		}
		s.mu.Unlock()
		go s.handleConn(c)
	}
}

// Shutdown drains: stop accepting, abort blocked reads so every
// connection's in-flight frames finish and its replies flush, then wait.
// On ctx expiry the remaining connections are force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		// Unblock the reader mid-Next; its worker pool then drains the
		// frames already accepted before the connection closes.
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	if s.connsGauge != nil {
		s.connsGauge.Set(int64(len(s.conns)))
	}
	s.mu.Unlock()
	c.Close()
	s.wg.Done()
}

// sconn is one accepted connection: a frame reader feeding a worker pool,
// writes serialized by wmu.
type sconn struct {
	srv   *Server
	c     net.Conn
	wmu   sync.Mutex
	wbuf  []byte // connection-scoped encode scratch (handshake, errors)
	tasks chan *stask
}

func (cn *sconn) write(frame []byte) error {
	cn.wmu.Lock()
	_, err := cn.c.Write(frame)
	cn.wmu.Unlock()
	return err
}

// writeError sends a typed error frame (corr 0 = connection-scoped).
func (cn *sconn) writeError(corr uint64, code Code, retryAfterMS uint32, detail string) {
	cn.wmu.Lock()
	cn.wbuf = AppendErrorFrame(cn.wbuf[:0], corr, ErrorFrame{
		Code: code, RetryAfterMS: retryAfterMS, Detail: detail,
	})
	_, _ = cn.c.Write(cn.wbuf)
	cn.wmu.Unlock()
}

func (s *Server) handleConn(c net.Conn) {
	defer s.dropConn(c)
	cn := &sconn{srv: s, c: c, tasks: make(chan *stask, 4*s.cfg.Workers)}
	fr := NewReader(c, s.cfg.MaxFrame)

	// Handshake: the first frame must be a Hello with our version; anything
	// else is refused with a typed error so a mispointed HTTP client (or an
	// old binary) fails loudly instead of hanging.
	c.SetReadDeadline(time.Now().Add(30 * time.Second))
	hdr, payload, err := fr.Next()
	if err != nil || hdr.Type != MsgHello {
		cn.writeError(0, CodeBadFrame, 0, "expected Hello frame")
		return
	}
	var hello Hello
	if err := DecodeHello(payload, &hello); err != nil {
		cn.writeError(0, CodeBadFrame, 0, "malformed Hello")
		return
	}
	if hello.Version != Version {
		cn.writeError(0, CodeVersion, 0,
			fmt.Sprintf("server speaks version %d, client sent %d", Version, hello.Version))
		return
	}
	c.SetReadDeadline(time.Time{})
	// The clear above may have erased a Shutdown read-deadline abort that
	// fired mid-handshake. Shutdown flips closed (under the lock) before
	// touching deadlines, so re-checking here closes the window: either we
	// see closed and bail, or Shutdown's abort lands after our clear and
	// sticks. Without this a client that handshakes but never sends a frame
	// could stall a no-deadline Shutdown forever.
	s.mu.Lock()
	closing := s.closed
	s.mu.Unlock()
	if closing {
		cn.writeError(0, CodeClosed, 0, "server shutting down")
		return
	}
	snap := s.cfg.Engine.Snapshot()
	ack := HelloAck{
		Version:  Version,
		Features: Features & hello.Features,
		N:        int32(snap.N()),
		Snapshot: snap.ID,
		Gen:      s.genOf(snap.ID),
	}
	cn.wmu.Lock()
	cn.wbuf = AppendHelloAckFrame(cn.wbuf[:0], ack)
	_, werr := c.Write(cn.wbuf)
	cn.wmu.Unlock()
	if werr != nil {
		return
	}
	if s.handshakes != nil {
		s.handshakes.Inc()
	}

	var workers sync.WaitGroup
	workers.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go func() {
			defer workers.Done()
			for t := range cn.tasks {
				s.process(cn, t)
			}
		}()
	}
	// Always drain the pool before the connection drops: accepted frames
	// get answers even when the reader dies (or Shutdown aborts it).
	defer workers.Wait()
	defer close(cn.tasks)

	for {
		hdr, payload, err := fr.Next()
		if err != nil {
			s.mu.Lock()
			closing := s.closed
			s.mu.Unlock()
			switch {
			case closing:
				// Shutdown aborted the read via SetReadDeadline; say a
				// typed goodbye so pipelined clients fail fast with the
				// retryable "server gone" classification.
				cn.writeError(0, CodeClosed, 0, "server shutting down")
			case err == io.EOF || errors.Is(err, net.ErrClosed):
			default:
				if s.badFrames != nil && (errors.Is(err, ErrMagic) || errors.Is(err, ErrChecksum) ||
					errors.Is(err, ErrTruncated) || errors.Is(err, ErrTooLarge)) {
					s.badFrames.Inc()
				}
				// Framing is lost: report and drop the connection —
				// resynchronizing a corrupt stream would risk
				// misattributed replies.
				cn.writeError(0, CodeBadFrame, 0, err.Error())
			}
			return
		}
		t := s.pool.Get().(*stask)
		t.corr, t.typ = hdr.Corr, hdr.Type
		// Decode into the task before the next Next() reuses the payload
		// buffer.
		switch hdr.Type {
		case MsgQuery:
			if err := DecodeQuery(payload, &t.q); err != nil {
				s.pool.Put(t)
				if s.badFrames != nil {
					s.badFrames.Inc()
				}
				cn.writeError(hdr.Corr, CodeBadFrame, 0, "malformed query payload")
				return
			}
		case MsgBatch:
			t.qs, err = DecodeBatch(payload, t.qs)
			if err != nil {
				s.pool.Put(t)
				if s.badFrames != nil {
					s.badFrames.Inc()
				}
				cn.writeError(hdr.Corr, CodeBadFrame, 0, "malformed batch payload")
				return
			}
		case MsgHealthz:
			// No payload.
		default:
			s.pool.Put(t)
			cn.writeError(hdr.Corr, CodeBadFrame, 0,
				fmt.Sprintf("unexpected frame type %d", hdr.Type))
			return
		}
		cn.tasks <- t
	}
}

func (s *Server) genOf(snapshot int64) int64 {
	if s.cfg.GenOf == nil {
		return 0
	}
	return s.cfg.GenOf(snapshot)
}

// process answers one frame on a worker goroutine and returns the task to
// the pool.
func (s *Server) process(cn *sconn, t *stask) {
	var err error
	switch t.typ {
	case MsgQuery:
		err = s.processQuery(cn, t)
	case MsgBatch:
		err = s.processBatch(cn, t)
	case MsgHealthz:
		err = s.processHealthz(cn, t)
	}
	if err != nil {
		// A write failure means the peer is gone; the reader will notice on
		// its next Read and tear the connection down.
		s.cfg.Logger.Debug("wire: reply write failed", "err", err)
	}
	s.pool.Put(t)
}

func (s *Server) processQuery(cn *sconn, t *stask) error {
	var start time.Time
	if s.latency != nil {
		start = time.Now()
	}
	eng := s.cfg.Engine
	q := &t.q
	var rep serve.Reply
	switch {
	case q.Priority > uint8(serve.PriorityLow):
		// Mirror the HTTP handler's 400 on an unparseable priority.
		t.wrep = Reply{
			Type: q.Type, U: q.U, V: q.V, Code: CodeBadQuery,
			Detail: "bad priority",
			Path:   t.wrep.Path[:0],
		}
		return s.sendReply(cn, t, start)
	case q.AllowDegraded && serve.QueryType(q.Type) != serve.QueryDist:
		// Mirror the HTTP handler's 400: only distance queries have a
		// meaningful landmark bound.
		t.wrep = Reply{
			Type: q.Type, U: q.U, V: q.V, Code: CodeBadQuery,
			Detail: "allowDegraded applies to dist queries only",
			Path:   t.wrep.Path[:0],
		}
		return s.sendReply(cn, t, start)
	case q.AllowDegraded:
		rep = eng.DegradedDist(q.U, q.V)
	default:
		req := serve.Request{
			Type:      serve.QueryType(q.Type),
			U:         q.U,
			V:         q.V,
			Priority:  serve.Priority(q.Priority),
			Transport: "wire",
		}
		if q.DeadlineMS > 0 {
			req.Deadline = time.Now().Add(time.Duration(q.DeadlineMS) * time.Millisecond)
		}
		rep = eng.Query(req)
	}
	s.fillReply(&t.wrep, rep)
	return s.sendReply(cn, t, start)
}

// sendReply encodes and writes t's reply. The request is counted before the
// write, as processBatch does, so a client that has read its reply always
// sees it in the registry.
func (s *Server) sendReply(cn *sconn, t *stask, start time.Time) error {
	t.buf = AppendReplyFrame(t.buf[:0], t.corr, &t.wrep)
	if s.requests != nil {
		s.requests.Inc()
		if t.wrep.Code != CodeOK && t.wrep.Code != CodeNoRoute {
			s.errs.Inc()
		}
		s.latency.Observe(time.Since(start).Microseconds())
	}
	return cn.write(t.buf)
}

func (s *Server) processBatch(cn *sconn, t *stask) error {
	eng := s.cfg.Engine
	if max := eng.MaxBatch(); len(t.qs) > max {
		// The advertised batch limit shrinks under brownout; the refusal
		// carries the same pacing hint as the HTTP 429 + Retry-After.
		cn.writeError(t.corr, CodeRejected, batchRetryAfterMS,
			fmt.Sprintf("batch of %d exceeds the current limit of %d", len(t.qs), max))
		return nil
	}
	if s.batchSize != nil {
		s.batchSize.Observe(int64(len(t.qs)))
	}
	if cap(t.reqs) < len(t.qs) {
		t.reqs = make([]serve.Request, len(t.qs))
	}
	t.reqs = t.reqs[:len(t.qs)]
	mixed := false
	for i := range t.qs {
		q := &t.qs[i]
		t.reqs[i] = serve.Request{
			Type:      serve.QueryType(q.Type),
			U:         q.U,
			V:         q.V,
			Priority:  serve.Priority(q.Priority),
			Transport: "wire",
		}
		if q.DeadlineMS > 0 {
			t.reqs[i].Deadline = time.Now().Add(time.Duration(q.DeadlineMS) * time.Millisecond)
		}
		if q.AllowDegraded || q.Priority > uint8(serve.PriorityLow) {
			mixed = true
		}
	}
	if cap(t.wreps) < len(t.qs) {
		t.wreps = make([]Reply, len(t.qs))
	}
	t.wreps = t.wreps[:len(t.qs)]
	if mixed {
		// Mixed batch: answer entry by entry so each slot gets the exact
		// semantics of the single-query path — validation errors surface per
		// reply (like the HTTP batch handler's per-entry err fields) and
		// AllowDegraded dist entries get the inline landmark bound. The
		// client coalesces concurrent point queries into MsgBatch frames, so
		// a query must mean the same thing in a batch as it does alone.
		for i := range t.reqs {
			q := &t.qs[i]
			switch {
			case q.Priority > uint8(serve.PriorityLow):
				t.wreps[i] = Reply{Type: q.Type, U: q.U, V: q.V,
					Code: CodeBadQuery, Detail: "bad priority"}
			case q.AllowDegraded && serve.QueryType(q.Type) != serve.QueryDist:
				t.wreps[i] = Reply{Type: q.Type, U: q.U, V: q.V,
					Code: CodeBadQuery, Detail: "allowDegraded applies to dist queries only"}
			case q.AllowDegraded:
				s.fillReply(&t.wreps[i], eng.DegradedDist(q.U, q.V))
			default:
				s.fillReply(&t.wreps[i], eng.Query(t.reqs[i]))
			}
		}
	} else {
		for i, rep := range eng.QueryBatch(t.reqs) {
			s.fillReply(&t.wreps[i], rep)
		}
	}
	t.buf = AppendBatchReplyFrame(t.buf[:0], t.corr, t.wreps)
	if s.requests != nil {
		s.requests.Inc()
	}
	return cn.write(t.buf)
}

func (s *Server) processHealthz(cn *sconn, t *stask) error {
	snap := s.cfg.Engine.Snapshot()
	h := HealthzReply{
		N:        int32(snap.N()),
		Snapshot: snap.ID,
		Gen:      s.genOf(snap.ID),
		Status:   "ok",
	}
	if s.cfg.SLOStatus != nil {
		h.SLO = s.cfg.SLOStatus()
	}
	t.buf = AppendHealthzReplyFrame(t.buf[:0], t.corr, h)
	return cn.write(t.buf)
}

// fillReply converts an engine reply, applying the same bound-presence rule
// as the HTTP handler's toWire so both transports expose identical answers.
func (s *Server) fillReply(w *Reply, r serve.Reply) {
	w.Type = uint8(r.Type)
	w.Code = CodeOK
	w.Detail = ""
	w.Cached = r.Cached
	w.Degraded = r.Degraded
	w.Composed = r.Composed
	w.U, w.V = r.U, r.V
	w.Dist = r.Dist
	w.HasBound = (r.Type == serve.QueryRoute && r.Bound != graph.Unreachable) || r.Composed
	w.Bound = 0
	if w.HasBound {
		w.Bound = r.Bound
	}
	w.Snapshot = r.SnapshotID
	w.Gen = s.genOf(r.SnapshotID)
	w.Path = append(w.Path[:0], r.Path...)
	if r.Err != nil {
		w.Code = CodeForErr(r.Err)
		w.Detail = r.Err.Error()
	}
}

// CodeForErr maps the engine's typed errors onto the wire taxonomy.
func CodeForErr(err error) Code {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, serve.ErrNoRoute):
		return CodeNoRoute
	case errors.Is(err, serve.ErrBadVertex):
		return CodeBadVertex
	case errors.Is(err, serve.ErrBadQuery):
		return CodeBadQuery
	case errors.Is(err, serve.ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, serve.ErrDeadline):
		return CodeDeadline
	case errors.Is(err, serve.ErrClosed):
		return CodeClosed
	case errors.Is(err, serve.ErrBrownout):
		return CodeBrownout
	case errors.Is(err, serve.ErrPartitioned):
		return CodePartitioned
	default:
		return CodeInternal
	}
}
