package client

// The binary wire transport: a WireClient speaks the internal/wire framed
// protocol to a spannerd -wire-addr listener. It keeps a small pool of
// long-lived TCP connections, pipelines requests over each with correlation
// ids, coalesces concurrent point queries into MsgBatch frames, and applies
// the same typed errors, retry/breaker and Retry-After discipline as the
// HTTP client — so callers can switch transports without changing their
// error handling.
//
// The hot path is allocation-free in steady state: calls (with their reply
// buffers, timers and done channels) are pooled, frames are encoded into
// per-connection reused buffers, and replies are decoded straight into the
// waiting call's reusable wire.Reply. There is no writer goroutine — the
// first caller to find the connection un-flushed becomes the flusher and
// drains the queue for everyone (write combining), which is what makes
// coalescing work without a batching delay.

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spanner/internal/wire"
)

// WireConfig tunes a WireClient. The zero value (plus Addr) is
// production-ready and mirrors the HTTP Config defaults.
type WireConfig struct {
	// Addr is the spannerd wire listener, e.g. "localhost:9090".
	Addr string
	// Conns is the connection pool size (default 2). Requests round-robin
	// across the pool and pipeline within each connection.
	Conns int
	// Timeout bounds each attempt (not the whole retry chain); default 2s.
	Timeout time.Duration
	// MaxRetries is how many times a call is retried after its first
	// attempt; default 3, negative disables.
	MaxRetries int
	// BaseBackoff and MaxBackoff shape the exponential backoff between
	// retries (defaults 10ms and 250ms) with deterministic seeded jitter.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed derives the jitter stream, as in Config.
	Seed int64
	// BreakerThreshold / BreakerCooldown tune the shared circuit breaker
	// (defaults 8 and 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// RequireExact makes Query and Dist refuse flagged landmark-bound
	// answers, as in Config.
	RequireExact bool
	// MaxFrame bounds accepted reply frames (0 = wire.DefaultMaxFrame).
	MaxFrame uint32
	// MaxCoalesce caps how many concurrent point queries are folded into
	// one MsgBatch frame (default 32). 1 disables coalescing.
	MaxCoalesce int
	// ScavengeEvery is the health-scavenger period: idle connections get a
	// healthz probe and dead ones are dropped from the pool (default 15s,
	// negative disables).
	ScavengeEvery time.Duration
	// DialTimeout bounds connection establishment + handshake (default 2s).
	DialTimeout time.Duration
	// Now overrides the breaker's clock (tests; nil = time.Now).
	Now func() time.Time
}

func (c WireConfig) withDefaults() WireConfig {
	if c.Conns <= 0 {
		c.Conns = 2
	}
	if c.MaxCoalesce <= 0 {
		c.MaxCoalesce = 32
	}
	if c.ScavengeEvery == 0 {
		c.ScavengeEvery = 15 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	return c
}

// call kinds.
const (
	ckQuery uint8 = iota
	ckBatch
	ckHealthz
	// ckHolder is an internal call standing in for one coalesced MsgBatch
	// frame: it owns the correlation id, and its group members are the real
	// callers' point queries, delivered individually off the batch reply.
	ckHolder
)

// call states (wcall.state).
const (
	csPending   int32 = 0 // waiting for the reader
	csDelivered int32 = 1 // reader (or failer) owns delivery, done signaled
	csAbandoned int32 = 2 // caller timed out and walked away
)

// wcall is one in-flight request. The caller owns it until enqueue; then
// ownership is shared with the connection's reader via the state CAS: the
// reader moves pending→delivered and signals done, or the caller moves
// pending→abandoned on timeout and walks away. Abandoned calls are never
// pooled — a late reply may still be decoded into them, so they are left to
// the GC.
type wcall struct {
	kind uint8
	corr uint64
	q    wire.Query
	qs   []wire.Query
	rep  wire.Reply
	reps []wire.Reply
	hrep wire.HealthzReply
	// group holds a holder's coalesced member calls.
	group []*wcall
	err   *attemptErr
	state atomic.Int32
	done  chan struct{} // buffered 1
	timer *time.Timer   // lazily created, reused across attempts
}

// wconn is one pooled connection: a handshaken TCP stream with a caller-
// flusher write side and a dedicated reader goroutine matching replies to
// pending calls by correlation id.
type wconn struct {
	cl  *WireClient
	c   net.Conn
	ack wire.HelloAck

	mu       sync.Mutex
	queue    []*wcall // enqueued, not yet encoded
	drain    []*wcall // flusher's working set (swap buffer)
	pending  map[uint64]*wcall
	nextCorr uint64
	deadErr  error
	flushing bool
	wbuf     []byte       // flusher's frame buffer
	qbuf     []wire.Query // flusher's coalescing scratch

	lastUse atomic.Int64 // unix nanos of the last enqueue, for the scavenger
}

// WireClient is a pooled, pipelining binary-protocol client. Safe for
// concurrent use.
type WireClient struct {
	cfg WireConfig
	retryPolicy

	mu     sync.Mutex
	slots  []*wconn
	closed bool

	rr   atomic.Uint64
	pool sync.Pool // *wcall

	scavStop chan struct{}
	scavDone chan struct{}
}

// NewWire builds a binary-transport client for the spannerd wire listener
// at cfg.Addr. Connections are dialed lazily on first use.
func NewWire(cfg WireConfig) (*WireClient, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("%w: wire client needs an Addr", ErrBadRequest)
	}
	cfg = cfg.withDefaults()
	cl := &WireClient{
		cfg: cfg,
		// The retry settings share the HTTP client's defaults.
		retryPolicy: Config{Timeout: cfg.Timeout, MaxRetries: cfg.MaxRetries,
			BaseBackoff: cfg.BaseBackoff, MaxBackoff: cfg.MaxBackoff, Seed: cfg.Seed,
			BreakerThreshold: cfg.BreakerThreshold, BreakerCooldown: cfg.BreakerCooldown,
			Now: cfg.Now}.withDefaults().policy(),
		slots: make([]*wconn, cfg.Conns),
	}
	cl.pool.New = func() any {
		return &wcall{done: make(chan struct{}, 1)}
	}
	if cfg.ScavengeEvery > 0 {
		cl.scavStop = make(chan struct{})
		cl.scavDone = make(chan struct{})
		go cl.scavenge()
	}
	return cl, nil
}

// Stats reports the client's current resilience state.
func (cl *WireClient) Stats() Stats { return Stats{Breaker: cl.br.snapshot()} }

// Close tears down the pool. In-flight calls fail with ErrUnavailable.
func (cl *WireClient) Close() error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	slots := append([]*wconn(nil), cl.slots...)
	cl.mu.Unlock()
	if cl.scavStop != nil {
		close(cl.scavStop)
		<-cl.scavDone
	}
	for _, cn := range slots {
		if cn != nil {
			cn.fail(&attemptErr{err: fmt.Errorf("%w: client closed", ErrUnavailable)})
		}
	}
	return nil
}

// --- call pooling ---

func (cl *WireClient) getCall() *wcall {
	c := cl.pool.Get().(*wcall)
	c.kind = 0
	c.corr = 0
	c.group = c.group[:0]
	c.err = nil
	c.state.Store(csPending)
	return c
}

// putCall recycles a call. Only delivered-and-consumed calls may be pooled;
// abandoned ones must be dropped (see wcall).
func (cl *WireClient) putCall(c *wcall) {
	c.qs = nil // caller-owned; do not pin
	cl.pool.Put(c)
}

// --- connection management ---

// conn returns a live pooled connection for the next request, dialing one
// into an empty or dead slot. Round-robins across the pool.
func (cl *WireClient) conn() (*wconn, error) {
	slot := int(cl.rr.Add(1)) % cl.cfg.Conns
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil, fmt.Errorf("%w: client closed", ErrUnavailable)
	}
	if cn := cl.slots[slot]; cn != nil && cn.alive() {
		cl.mu.Unlock()
		return cn, nil
	}
	cl.mu.Unlock()

	cn, err := cl.dial()
	if err != nil {
		return nil, err
	}

	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		cn.fail(&attemptErr{err: fmt.Errorf("%w: client closed", ErrUnavailable)})
		return nil, fmt.Errorf("%w: client closed", ErrUnavailable)
	}
	if cur := cl.slots[slot]; cur != nil && cur.alive() {
		// Lost the dial race; use the winner and fold our connection.
		cl.mu.Unlock()
		cn.fail(&attemptErr{err: fmt.Errorf("%w: superseded by concurrent dial", ErrUnavailable)})
		return cur, nil
	}
	cl.slots[slot] = cn
	cl.mu.Unlock()
	return cn, nil
}

// dial establishes and handshakes one connection.
func (cl *WireClient) dial() (*wconn, error) {
	c, err := net.DialTimeout("tcp", cl.cfg.Addr, cl.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrUnavailable, cl.cfg.Addr, err)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	deadline := time.Now().Add(cl.cfg.DialTimeout)
	c.SetDeadline(deadline)

	buf := wire.AppendHelloFrame(nil, wire.Hello{Version: wire.Version, Features: wire.Features})
	if _, err := c.Write(buf); err != nil {
		c.Close()
		return nil, fmt.Errorf("%w: handshake write: %v", ErrUnavailable, err)
	}
	fr := wire.NewReader(c, cl.cfg.MaxFrame)
	hdr, payload, err := fr.Next()
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("%w: handshake read: %v", ErrUnavailable, err)
	}
	cn := &wconn{cl: cl, c: c, pending: make(map[uint64]*wcall)}
	switch hdr.Type {
	case wire.MsgHelloAck:
		if err := wire.DecodeHelloAck(payload, &cn.ack); err != nil {
			c.Close()
			return nil, fmt.Errorf("%w: malformed HelloAck: %v", ErrUnavailable, err)
		}
	case wire.MsgError:
		var ef wire.ErrorFrame
		detail := "unreadable error frame"
		if wire.DecodeError(payload, &ef) == nil {
			detail = ef.Detail
		}
		c.Close()
		return nil, fmt.Errorf("%w: handshake refused (%v): %s", ErrUnavailable, ef.Code, detail)
	default:
		c.Close()
		return nil, fmt.Errorf("%w: unexpected handshake frame type %d", ErrUnavailable, hdr.Type)
	}
	c.SetDeadline(time.Time{})
	cn.lastUse.Store(time.Now().UnixNano())
	go cn.readLoop(fr)
	return cn, nil
}

func (cn *wconn) alive() bool {
	cn.mu.Lock()
	ok := cn.deadErr == nil
	cn.mu.Unlock()
	return ok
}

// scavenge periodically probes idle pooled connections with a healthz call
// and evicts dead ones, so a pool that went quiet doesn't hand the next
// burst a stack of half-closed sockets.
func (cl *WireClient) scavenge() {
	defer close(cl.scavDone)
	t := time.NewTicker(cl.cfg.ScavengeEvery)
	defer t.Stop()
	for {
		select {
		case <-cl.scavStop:
			return
		case <-t.C:
		}
		cl.mu.Lock()
		slots := append([]*wconn(nil), cl.slots...)
		cl.mu.Unlock()
		cutoff := time.Now().Add(-cl.cfg.ScavengeEvery).UnixNano()
		for i, cn := range slots {
			if cn == nil {
				continue
			}
			if !cn.alive() {
				cl.dropSlot(i, cn)
				continue
			}
			if cn.lastUse.Load() > cutoff {
				continue // busy enough; traffic is the health check
			}
			if !cl.probe(cn) {
				cn.fail(&attemptErr{err: fmt.Errorf("%w: health probe failed", ErrUnavailable)})
				cl.dropSlot(i, cn)
			}
		}
	}
}

// probe runs one healthz round-trip on cn with a short deadline.
func (cl *WireClient) probe(cn *wconn) bool {
	timeout := cl.timeout
	if timeout > time.Second {
		timeout = time.Second
	}
	call := cl.getCall()
	call.kind = ckHealthz
	if err := cn.enqueue(call); err != nil {
		cl.putCall(call)
		return false
	}
	delivered, ae := cl.await(cn, call, timeout, context.Background())
	if !delivered {
		return false
	}
	ok := ae == nil
	cl.putCall(call)
	return ok
}

func (cl *WireClient) dropSlot(i int, cn *wconn) {
	cl.mu.Lock()
	if i < len(cl.slots) && cl.slots[i] == cn {
		cl.slots[i] = nil
	}
	cl.mu.Unlock()
}

// --- write side: caller-flusher with coalescing ---

// enqueue queues call for transmission. The first caller to find the
// connection un-flushed becomes the flusher and writes everyone's frames;
// later callers just append and return, already pipelined. Correlation-id
// registration happens under the lock before the write, so the reader can
// never see a reply for an unregistered id.
func (cn *wconn) enqueue(call *wcall) error {
	cn.mu.Lock()
	if cn.deadErr != nil {
		err := cn.deadErr
		cn.mu.Unlock()
		return err
	}
	cn.lastUse.Store(time.Now().UnixNano())
	cn.queue = append(cn.queue, call)
	if cn.flushing {
		cn.mu.Unlock()
		return nil
	}
	cn.flushing = true
	var werr error
	for werr == nil && cn.deadErr == nil && len(cn.queue) > 0 {
		batch := cn.queue
		cn.queue = cn.drain[:0]
		cn.drain = batch
		cn.wbuf = cn.encodeLocked(cn.wbuf[:0], batch)
		buf := cn.wbuf
		cn.mu.Unlock()
		_, werr = cn.c.Write(buf)
		cn.mu.Lock()
		if werr != nil && cn.deadErr == nil {
			cn.deadErr = fmt.Errorf("%w: write: %v", ErrUnavailable, werr)
		}
	}
	// On a dead connection, anything still queued was never encoded or
	// registered; orphan-fail it here (registered calls are the reader's
	// responsibility, via the Close below → read error → fail).
	var orphans []*wcall
	var dead error
	if cn.deadErr != nil {
		dead = cn.deadErr
		orphans = append(orphans, cn.queue...)
		cn.queue = cn.queue[:0]
	}
	cn.flushing = false
	cn.mu.Unlock()
	if dead != nil {
		cn.c.Close()
		ae := &attemptErr{err: dead, retryable: true, breaker: true}
		for _, o := range orphans {
			deliverErr(o, ae)
		}
	}
	return nil
}

// encodeLocked encodes batch into dst and registers every call in pending.
// Called with cn.mu held. When the whole drain set is point queries, runs
// of them are coalesced into MsgBatch frames (bounded by MaxCoalesce) under
// holder calls; the members are delivered individually by the reader.
func (cn *wconn) encodeLocked(dst []byte, batch []*wcall) []byte {
	coalesce := len(batch) > 1 && cn.cl.cfg.MaxCoalesce > 1
	if coalesce {
		for _, c := range batch {
			if c.kind != ckQuery {
				coalesce = false
				break
			}
		}
	}
	if coalesce {
		for off := 0; off < len(batch); off += cn.cl.cfg.MaxCoalesce {
			end := off + cn.cl.cfg.MaxCoalesce
			if end > len(batch) {
				end = len(batch)
			}
			chunk := batch[off:end]
			if len(chunk) == 1 {
				dst = cn.encodeOneLocked(dst, chunk[0])
				continue
			}
			h := cn.cl.getCall()
			h.kind = ckHolder
			h.group = append(h.group, chunk...)
			cn.qbuf = cn.qbuf[:0]
			for _, m := range chunk {
				cn.qbuf = append(cn.qbuf, m.q)
			}
			cn.nextCorr++
			h.corr = cn.nextCorr
			cn.pending[h.corr] = h
			dst = wire.AppendBatchFrame(dst, h.corr, cn.qbuf)
		}
		return dst
	}
	for _, c := range batch {
		dst = cn.encodeOneLocked(dst, c)
	}
	return dst
}

func (cn *wconn) encodeOneLocked(dst []byte, c *wcall) []byte {
	cn.nextCorr++
	c.corr = cn.nextCorr
	cn.pending[c.corr] = c
	switch c.kind {
	case ckQuery:
		return wire.AppendQueryFrame(dst, c.corr, c.q)
	case ckBatch:
		return wire.AppendBatchFrame(dst, c.corr, c.qs)
	default: // ckHealthz
		return wire.AppendHealthzFrame(dst, c.corr)
	}
}

// --- read side ---

// take claims the pending call for corr (nil if timed out and forgotten, or
// never ours).
func (cn *wconn) take(corr uint64) *wcall {
	cn.mu.Lock()
	c := cn.pending[corr]
	if c != nil {
		delete(cn.pending, corr)
	}
	cn.mu.Unlock()
	return c
}

// forget removes call from pending after the caller abandoned it. Coalesced
// members have corr 0 (the holder owns the id); pending has no entry 0, so
// the delete is a safe no-op and the holder's reader-side delivery finds
// the member already abandoned via its state.
func (cn *wconn) forget(call *wcall) {
	cn.mu.Lock()
	if cn.pending[call.corr] == call {
		delete(cn.pending, call.corr)
	}
	cn.mu.Unlock()
}

// deliverErr completes call with ae unless the caller already walked away.
func deliverErr(call *wcall, ae *attemptErr) {
	if call.state.CompareAndSwap(csPending, csDelivered) {
		call.err = ae
		call.done <- struct{}{}
	}
}

// fail marks the connection dead and errors out every registered call.
func (cn *wconn) fail(ae *attemptErr) {
	cn.mu.Lock()
	if cn.deadErr == nil {
		cn.deadErr = ae.err
	}
	stolen := cn.pending
	cn.pending = make(map[uint64]*wcall)
	cn.mu.Unlock()
	cn.c.Close()
	for _, call := range stolen {
		if call.kind == ckHolder {
			for _, m := range call.group {
				deliverErr(m, ae)
			}
			cn.cl.putCall(call)
			continue
		}
		deliverErr(call, ae)
	}
}

// readLoop is the connection's reader goroutine: it matches frames to
// pending calls by correlation id and decodes each reply directly into its
// owner's reusable buffers.
func (cn *wconn) readLoop(fr *wire.Reader) {
	for {
		hdr, payload, err := fr.Next()
		if err != nil {
			cn.fail(&attemptErr{
				err:       fmt.Errorf("%w: read: %v", ErrUnavailable, err),
				retryable: true, breaker: true,
			})
			return
		}
		switch hdr.Type {
		case wire.MsgReply:
			call := cn.take(hdr.Corr)
			if call == nil {
				continue // abandoned or unknown; drop
			}
			if call.state.CompareAndSwap(csPending, csDelivered) {
				if err := wire.DecodeReply(payload, &call.rep); err != nil {
					call.err = &attemptErr{
						err:       fmt.Errorf("%w: %v", ErrUnavailable, err),
						retryable: true, breaker: true,
					}
				}
				call.done <- struct{}{}
			}
		case wire.MsgBatchReply:
			call := cn.take(hdr.Corr)
			if call == nil {
				continue
			}
			if call.kind == ckHolder {
				cn.deliverCoalesced(call, payload)
				cn.cl.putCall(call)
				continue
			}
			if call.state.CompareAndSwap(csPending, csDelivered) {
				var err error
				call.reps, err = wire.DecodeBatchReply(payload, call.reps)
				if err != nil {
					call.err = &attemptErr{
						err:       fmt.Errorf("%w: %v", ErrUnavailable, err),
						retryable: true, breaker: true,
					}
				}
				call.done <- struct{}{}
			}
		case wire.MsgHealthzReply:
			call := cn.take(hdr.Corr)
			if call == nil {
				continue
			}
			if call.state.CompareAndSwap(csPending, csDelivered) {
				if err := wire.DecodeHealthzReply(payload, &call.hrep); err != nil {
					call.err = &attemptErr{
						err:       fmt.Errorf("%w: %v", ErrUnavailable, err),
						retryable: true, breaker: true,
					}
				}
				call.done <- struct{}{}
			}
		case wire.MsgError:
			var ef wire.ErrorFrame
			if err := wire.DecodeError(payload, &ef); err != nil {
				cn.fail(&attemptErr{
					err:       fmt.Errorf("%w: malformed error frame: %v", ErrUnavailable, err),
					retryable: true, breaker: true,
				})
				return
			}
			ae := classifyCode(ef.Code, ef.RetryAfterMS, ef.Detail)
			if ae == nil {
				ae = &attemptErr{err: fmt.Errorf("%w: error frame with code %v", ErrUnavailable, ef.Code)}
			}
			if hdr.Corr == 0 {
				// Connection-fatal: the server is closing on us.
				cn.fail(ae)
				return
			}
			call := cn.take(hdr.Corr)
			if call == nil {
				continue
			}
			if call.kind == ckHolder {
				for _, m := range call.group {
					deliverErr(m, ae)
				}
				cn.cl.putCall(call)
				continue
			}
			deliverErr(call, ae)
		default:
			// Unknown frame types are skipped for forward compatibility —
			// the checksum already vouched for the bytes.
		}
	}
}

// deliverCoalesced fans a MsgBatchReply out to the holder's members,
// decoding each entry straight into its owner's reusable reply (abandoned
// members get their entry decoded into scratch to keep the iterator
// aligned).
func (cn *wconn) deliverCoalesced(h *wcall, payload []byte) {
	it, err := wire.IterBatchReply(payload)
	if err != nil || it.N != len(h.group) {
		if err == nil {
			err = fmt.Errorf("coalesced reply has %d entries, want %d", it.N, len(h.group))
		}
		ae := &attemptErr{
			err:       fmt.Errorf("%w: %v", ErrUnavailable, err),
			retryable: true, breaker: true,
		}
		for _, m := range h.group {
			deliverErr(m, ae)
		}
		return
	}
	for _, m := range h.group {
		if m.state.CompareAndSwap(csPending, csDelivered) {
			if err := it.Next(&m.rep); err != nil {
				m.err = &attemptErr{
					err:       fmt.Errorf("%w: %v", ErrUnavailable, err),
					retryable: true, breaker: true,
				}
			}
			m.done <- struct{}{}
			continue
		}
		// Abandoned: still consume its entry to stay aligned.
		var scratch wire.Reply
		if it.Next(&scratch) != nil {
			return
		}
	}
}

// --- the attempt/retry machinery ---

// await blocks until call completes, the per-attempt timeout fires, or ctx
// is done. Returns whether the reply was delivered (only delivered calls
// may be recycled) and the attempt classification.
func (cl *WireClient) await(cn *wconn, call *wcall, timeout time.Duration, ctx context.Context) (bool, *attemptErr) {
	t := call.timer
	if t == nil {
		t = time.NewTimer(timeout)
		call.timer = t
	} else {
		t.Reset(timeout)
	}
	select {
	case <-call.done:
		stopTimer(t)
		return true, call.err
	case <-t.C:
		if call.state.CompareAndSwap(csPending, csAbandoned) {
			cn.forget(call)
			return false, &attemptErr{
				err:       fmt.Errorf("%w: no reply within %v", ErrTimeout, timeout),
				retryable: true, breaker: true,
			}
		}
		// Lost the race: the reply landed as we timed out. Take it.
		<-call.done
		return true, call.err
	case <-ctx.Done():
		if call.state.CompareAndSwap(csPending, csAbandoned) {
			cn.forget(call)
			stopTimer(t)
			return false, &attemptErr{err: fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())}
		}
		<-call.done
		stopTimer(t)
		return true, call.err
	}
}

func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// callRT runs one request under the retry/breaker discipline and returns
// the completed call on success (the caller converts and recycles it). No
// closures, so a served-from-pool success path does not allocate.
func (cl *WireClient) callRT(ctx context.Context, kind uint8, q wire.Query, qs []wire.Query) (*wcall, error) {
	if err := cl.allow(); err != nil {
		return nil, err
	}
	for n := 1; ; n++ {
		call, ae := cl.attempt(ctx, kind, q, qs)
		if ae == nil {
			cl.br.success()
			return call, nil
		}
		if err := cl.retry(ctx, ae, n, true); err != nil {
			return nil, err
		}
	}
}

// attempt runs one request on a pooled connection and returns the
// delivered call, or the classification of the attempt's failure.
func (cl *WireClient) attempt(ctx context.Context, kind uint8, q wire.Query, qs []wire.Query) (*wcall, *attemptErr) {
	cn, err := cl.conn()
	if err != nil {
		return nil, &attemptErr{err: err, retryable: true, breaker: true}
	}
	call := cl.getCall()
	call.kind, call.q, call.qs = kind, q, qs
	if err := cn.enqueue(call); err != nil {
		cl.putCall(call)
		return nil, &attemptErr{err: err, retryable: true, breaker: true}
	}
	delivered, ae := cl.await(cn, call, cl.timeout, ctx)
	if !delivered {
		// Abandoned calls must not be pooled: a late reply may still be
		// decoded into them.
		return nil, ae
	}
	if ae == nil && kind == ckQuery {
		ae = classifyCode(call.rep.Code, 0, call.rep.Detail)
	}
	if ae != nil {
		cl.putCall(call)
		return nil, ae
	}
	return call, nil
}

// classifyCode maps a wire error code to the attempt classification the
// HTTP client derives from status codes — same sentinels, same retry and
// breaker behavior, same Retry-After honoring. nil means success (CodeOK
// and CodeNoRoute both surface through Reply.Err, exactly like the HTTP
// transport's 200 + err body).
func classifyCode(code wire.Code, retryAfterMS uint32, detail string) *attemptErr {
	switch code {
	case wire.CodeOK, wire.CodeNoRoute:
		return nil
	case wire.CodeBadVertex, wire.CodeBadQuery:
		return &attemptErr{err: fmt.Errorf("%w: %s", ErrBadRequest, detail)}
	case wire.CodeBrownout:
		// The HTTP server answers brownout with 429 + Retry-After: 1; keep
		// the hinted-rejection semantics identical here.
		after := time.Second
		return &attemptErr{err: &RejectedError{After: after, Detail: detail}, after: &after}
	case wire.CodeRejected:
		after := time.Duration(retryAfterMS) * time.Millisecond
		return &attemptErr{err: &RejectedError{After: after, Detail: detail}, after: &after}
	case wire.CodeDeadline:
		return &attemptErr{err: fmt.Errorf("%w: %s", ErrTimeout, detail), retryable: true}
	case wire.CodeOverloaded, wire.CodeClosed:
		return &attemptErr{err: fmt.Errorf("%w: %s", ErrUnavailable, detail), retryable: true, breaker: true}
	case wire.CodeVersion:
		return &attemptErr{err: fmt.Errorf("%w: %s", ErrUnavailable, detail)}
	default: // CodeInternal, CodePartitioned, CodeBadFrame, future codes
		return &attemptErr{err: fmt.Errorf("%w: %s (%v)", ErrUnavailable, detail, code), retryable: true, breaker: true}
	}
}

// --- request/reply conversion ---

var wireTypeNames = [3]string{"dist", "path", "route"}

// queryToWire converts the public Query to wire form. Invalid type or
// priority strings fail locally with ErrBadRequest — the wire transport
// pre-empts what the HTTP server would answer with a 400.
func queryToWire(q Query) (wire.Query, error) {
	var w wire.Query
	switch q.Type {
	case "dist":
		w.Type = wire.TypeDist
	case "path":
		w.Type = wire.TypePath
	case "route":
		w.Type = wire.TypeRoute
	default:
		return w, fmt.Errorf("%w: unknown query type %q", ErrBadRequest, q.Type)
	}
	switch q.Priority {
	case "", "high":
		w.Priority = wire.PriorityHigh
	case "low":
		w.Priority = wire.PriorityLow
	default:
		return w, fmt.Errorf("%w: bad priority %q", ErrBadRequest, q.Priority)
	}
	w.AllowDegraded = q.AllowDegraded
	w.U, w.V = q.U, q.V
	w.DeadlineMS = q.DeadlineMS
	return w, nil
}

// wireToReply converts a decoded wire.Reply to the public JSON-shaped Reply.
// The mapping matches the HTTP server's encoder field for field, which is
// what makes cross-transport answers byte-identical after JSON encoding.
func wireToReply(w *wire.Reply) Reply {
	r := Reply{
		U:        w.U,
		V:        w.V,
		Dist:     w.Dist,
		Cached:   w.Cached,
		Degraded: w.Degraded,
		Composed: w.Composed,
		Snapshot: w.Snapshot,
		Gen:      w.Gen,
	}
	if int(w.Type) < len(wireTypeNames) {
		r.Type = wireTypeNames[w.Type]
	} else {
		r.Type = "invalid"
	}
	if len(w.Path) > 0 {
		r.Path = append([]int32(nil), w.Path...)
	}
	if w.HasBound {
		b := w.Bound
		r.Bound = &b
	}
	if w.Code != wire.CodeOK {
		r.Err = w.Detail
	}
	return r
}

// --- public API ---

// Query runs one point query over the wire transport.
func (cl *WireClient) Query(ctx context.Context, q Query) (Reply, error) {
	wq, err := queryToWire(q)
	if err != nil {
		return Reply{}, err
	}
	call, err := cl.callRT(ctx, ckQuery, wq, nil)
	if err != nil {
		return Reply{}, err
	}
	rep := wireToReply(&call.rep)
	cl.putCall(call)
	if cl.cfg.RequireExact {
		if err := rep.ExactErr(); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// Dist is shorthand for a "dist" Query — the steady-state hot path. With a
// warm pool it performs zero allocations per call (asserted by
// BenchmarkWireClientDistAllocs).
func (cl *WireClient) Dist(ctx context.Context, u, v int32) (Reply, error) {
	call, err := cl.callRT(ctx, ckQuery, wire.Query{Type: wire.TypeDist, U: u, V: v}, nil)
	if err != nil {
		return Reply{}, err
	}
	rep := wireToReply(&call.rep)
	cl.putCall(call)
	if cl.cfg.RequireExact {
		if err := rep.ExactErr(); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// Batch runs qs as one explicit MsgBatch frame and returns per-entry
// replies. Entries the client can't express on the wire (bad type/priority)
// fail locally in their slot, as the server would have answered them.
func (cl *WireClient) Batch(ctx context.Context, qs []Query) ([]Reply, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	wqs := make([]wire.Query, len(qs))
	invalid := make([]error, len(qs))
	valid := 0
	for i, q := range qs {
		wq, err := queryToWire(q)
		if err != nil {
			invalid[i] = err
			continue
		}
		wqs[valid] = wq
		valid++
	}
	out := make([]Reply, len(qs))
	if valid > 0 {
		call, err := cl.callRT(ctx, ckBatch, wire.Query{}, wqs[:valid])
		if err != nil {
			return nil, err
		}
		if len(call.reps) != valid {
			n := len(call.reps)
			cl.putCall(call)
			return nil, fmt.Errorf("%w: batch reply has %d entries, want %d", ErrUnavailable, n, valid)
		}
		j := 0
		for i := range qs {
			if invalid[i] == nil {
				out[i] = wireToReply(&call.reps[j])
				j++
			}
		}
		cl.putCall(call)
	}
	for i := range qs {
		if invalid[i] != nil {
			out[i] = Reply{Type: qs[i].Type, U: qs[i].U, V: qs[i].V, Err: invalid[i].Error()}
		}
	}
	return out, nil
}

// Healthz probes the server's liveness endpoint over the wire transport.
func (cl *WireClient) Healthz(ctx context.Context) (Health, error) {
	call, err := cl.callRT(ctx, ckHealthz, wire.Query{}, nil)
	if err != nil {
		return Health{}, err
	}
	h := Health{
		Status:   call.hrep.Status,
		SLO:      call.hrep.SLO,
		Snapshot: call.hrep.Snapshot,
		N:        int(call.hrep.N),
	}
	cl.putCall(call)
	return h, nil
}
