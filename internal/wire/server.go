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
// performs the Hello/HelloAck handshake, then streams pipelined frames,
// which its reader goroutine answers one at a time and in order, as
// HTTP/1.1 keep-alive does: parallelism comes from connections.
type Server struct {
	cfg ServerConfig

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

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

// NewServer builds a wire server over eng's engine.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("wire: ServerConfig.Engine is required")
	}
	if cfg.MaxFrame == 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(discardHandler{})
	}
	s := &Server{cfg: cfg, conns: make(map[net.Conn]struct{})}
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

// Shutdown drains: stop accepting and abort every connection's blocked
// read. Each connection answers every frame it has read — the one being
// evaluated included — in order, says a CodeClosed goodbye and closes;
// Shutdown waits for that. On ctx expiry the remaining connections are
// force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		// Unblock the reader mid-Next; a reader busy with a frame
		// answers it before its next read fails.
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

// sconn is one accepted connection and the scratch its reader goroutine
// answers frames with; only that goroutine touches it, so the steady-state
// query path allocates nothing and needs no locks.
type sconn struct {
	c     net.Conn
	q     Query
	qs    []Query
	reqs  []serve.Request
	wrep  Reply
	wreps []Reply
	buf   []byte // the frame being written
}

// writeError sends a typed error frame (corr 0 = connection-scoped).
func (cn *sconn) writeError(corr uint64, code Code, detail string) {
	cn.buf = AppendErrorFrame(cn.buf[:0], corr, ErrorFrame{Code: code, Detail: detail})
	_, _ = cn.c.Write(cn.buf)
}

func (s *Server) handleConn(c net.Conn) {
	defer s.dropConn(c)
	cn := &sconn{c: c}
	fr := NewReader(c, s.cfg.MaxFrame)

	// Handshake: the first frame must be a Hello with our version; anything
	// else is refused with a typed error so a mispointed HTTP client (or an
	// old binary) fails loudly instead of hanging.
	c.SetReadDeadline(time.Now().Add(30 * time.Second))
	hdr, payload, err := fr.Next()
	if err != nil || hdr.Type != MsgHello {
		cn.writeError(0, CodeBadFrame, "expected Hello frame")
		return
	}
	var hello Hello
	if err := DecodeHello(payload, &hello); err != nil {
		cn.writeError(0, CodeBadFrame, "malformed Hello")
		return
	}
	if hello.Version != Version {
		cn.writeError(0, CodeVersion,
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
	if s.closing() {
		cn.writeError(0, CodeClosed, "server shutting down")
		return
	}
	snap := s.cfg.Engine.Snapshot()
	cn.buf = AppendHelloAckFrame(cn.buf[:0], HelloAck{
		Version:  Version,
		Features: Features & hello.Features,
		N:        int32(snap.N()),
		Snapshot: snap.ID,
		Gen:      s.genOf(snap.ID),
	})
	if _, err := c.Write(cn.buf); err != nil {
		return
	}
	if s.handshakes != nil {
		s.handshakes.Inc()
	}

	for {
		hdr, payload, err := fr.Next()
		if err != nil {
			switch {
			case s.closing():
				// Shutdown aborted the read via SetReadDeadline; say a
				// typed goodbye so pipelined clients fail fast with the
				// retryable "server gone" classification.
				cn.writeError(0, CodeClosed, "server shutting down")
			case err == io.EOF || errors.Is(err, net.ErrClosed):
			default:
				if errors.Is(err, ErrMagic) || errors.Is(err, ErrChecksum) ||
					errors.Is(err, ErrTruncated) || errors.Is(err, ErrTooLarge) {
					s.countBadFrame()
				}
				// Framing is lost: report and drop the connection —
				// resynchronizing a corrupt stream would risk
				// misattributed replies.
				cn.writeError(0, CodeBadFrame, err.Error())
			}
			return
		}
		var start time.Time
		if s.latency != nil {
			start = time.Now()
		}
		var failed bool
		switch hdr.Type {
		case MsgQuery:
			if err := DecodeQuery(payload, &cn.q); err != nil {
				s.countBadFrame()
				cn.writeError(hdr.Corr, CodeBadFrame, "malformed query payload")
				return
			}
			failed = s.answerQuery(cn, hdr.Corr)
		case MsgBatch:
			if cn.qs, err = DecodeBatch(payload, cn.qs); err != nil {
				s.countBadFrame()
				cn.writeError(hdr.Corr, CodeBadFrame, "malformed batch payload")
				return
			}
			failed = s.answerBatch(cn, hdr.Corr)
		case MsgHealthz:
			s.answerHealthz(cn, hdr.Corr)
		default:
			cn.writeError(hdr.Corr, CodeBadFrame,
				fmt.Sprintf("unexpected frame type %d", hdr.Type))
			return
		}
		// Every query and batch frame is counted here, before its reply is
		// written, so a client that has read its reply always sees it in
		// the registry. Healthz probes are not requests.
		if s.requests != nil && hdr.Type != MsgHealthz {
			s.requests.Inc()
			if failed {
				s.errs.Inc()
			}
			s.latency.Observe(time.Since(start).Microseconds())
		}
		if _, err := c.Write(cn.buf); err != nil {
			s.cfg.Logger.Debug("wire: reply write failed", "err", err)
			return
		}
	}
}

// closing reports whether Shutdown has begun.
func (s *Server) closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) countBadFrame() {
	if s.badFrames != nil {
		s.badFrames.Inc()
	}
}

func (s *Server) genOf(snapshot int64) int64 {
	if s.cfg.GenOf == nil {
		return 0
	}
	return s.cfg.GenOf(snapshot)
}

// request translates a wire query into an engine request; the engine
// checks priority, AllowDegraded and everything else.
func request(q *Query) serve.Request {
	req := serve.Request{
		Type:          serve.QueryType(q.Type),
		U:             q.U,
		V:             q.V,
		Priority:      serve.Priority(q.Priority),
		AllowDegraded: q.AllowDegraded,
		Transport:     "wire",
	}
	if q.DeadlineMS > 0 {
		req.Deadline = time.Now().Add(time.Duration(q.DeadlineMS) * time.Millisecond)
	}
	return req
}

// answerQuery encodes cn.q's reply into cn.buf and reports whether it
// failed (an error other than no-route).
func (s *Server) answerQuery(cn *sconn, corr uint64) bool {
	s.fillReply(&cn.wrep, s.cfg.Engine.Query(request(&cn.q)))
	cn.buf = AppendReplyFrame(cn.buf[:0], corr, &cn.wrep)
	return cn.wrep.Code != CodeOK && cn.wrep.Code != CodeNoRoute
}

// answerBatch encodes cn.qs's batch reply, or the refusal of an oversized
// batch, into cn.buf and reports whether the batch was refused.
func (s *Server) answerBatch(cn *sconn, corr uint64) bool {
	eng := s.cfg.Engine
	if max := eng.MaxBatch(); len(cn.qs) > max {
		// The advertised batch limit shrinks under brownout; the refusal
		// carries the same pacing hint as the HTTP 429 + Retry-After.
		cn.buf = AppendErrorFrame(cn.buf[:0], corr, ErrorFrame{
			Code:         CodeRejected,
			RetryAfterMS: batchRetryAfterMS,
			Detail:       fmt.Sprintf("batch of %d exceeds the current limit of %d", len(cn.qs), max),
		})
		return true
	}
	if s.batchSize != nil {
		s.batchSize.Observe(int64(len(cn.qs)))
	}
	cn.reqs = cn.reqs[:0]
	for i := range cn.qs {
		cn.reqs = append(cn.reqs, request(&cn.qs[i]))
	}
	reps := eng.QueryBatch(cn.reqs)
	if cap(cn.wreps) < len(reps) {
		cn.wreps = make([]Reply, len(reps))
	}
	cn.wreps = cn.wreps[:len(reps)]
	for i, rep := range reps {
		s.fillReply(&cn.wreps[i], rep)
	}
	cn.buf = AppendBatchReplyFrame(cn.buf[:0], corr, cn.wreps)
	return false
}

func (s *Server) answerHealthz(cn *sconn, corr uint64) {
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
	cn.buf = AppendHealthzReplyFrame(cn.buf[:0], corr, h)
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
