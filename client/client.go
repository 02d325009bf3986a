// Package client is the public Go client for spannerd: a pooled HTTP
// client with per-request deadlines, idempotency-aware retries under
// exponential backoff with seeded jitter, and a circuit breaker that sheds
// load locally when the server is down.
//
// Retry discipline follows each endpoint's semantics. Query and Batch are
// idempotent reads: transport errors, truncated bodies and 5xx answers are
// retried up to MaxRetries with backoff. Update and Swap mutate serving
// state, so they are single-shot — the caller sees the first failure and
// decides (an /update retried blindly after an ambiguous failure could
// apply a delta twice; the server's base-checksum check would catch it, but
// only as a confusing 409). Rejections (429, the server's brownout shed)
// are normally never retried: the server asked for less traffic, so the
// client backs off and reports ErrRejected. The one exception is a 429
// carrying a Retry-After hint that fits inside MaxBackoff — the server
// said exactly when to come back, so idempotent calls wait that long and
// try again; hints beyond the ceiling surface immediately as a
// *RejectedError the caller can pace itself by.
//
// All failures surface as typed errors matchable with errors.Is:
// ErrUnavailable (breaker open, connection refused/reset, 5xx after
// retries), ErrTimeout (deadline anywhere in the chain), ErrRejected
// (server shedding), ErrBadRequest and ErrConflict. Degraded answers —
// brownout fallbacks the server flags with "degraded": true — are
// successes; callers that care inspect Reply.Degraded, use
// Reply.ExactErr, or set Config.RequireExact to turn them into typed
// ErrDegraded failures.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Typed client errors.
var (
	// ErrUnavailable reports a server that cannot be reached: the circuit
	// breaker is open, or every attempt died on a transport error or 5xx.
	ErrUnavailable = errors.New("client: server unavailable")
	// ErrTimeout reports a deadline exceeded — the caller's context, the
	// per-request timeout, or the server's own 504.
	ErrTimeout = errors.New("client: request timed out")
	// ErrRejected reports load shed by the server (429): valid request,
	// server asking for less traffic. Back off before retrying. Rejections
	// that carried a Retry-After hint surface as a *RejectedError wrapping
	// this sentinel, so errors.Is(err, ErrRejected) always matches.
	ErrRejected = errors.New("client: request rejected by server")
	// ErrBadRequest reports a request the server rejected as malformed.
	ErrBadRequest = errors.New("client: bad request")
	// ErrConflict reports a state conflict (409): an update bound to a
	// generation that is no longer live. Re-diff and resubmit.
	ErrConflict = errors.New("client: conflict")
	// ErrDegraded reports an answer the server flagged Degraded: a landmark
	// upper bound served under brownout or quorum loss, not the exact oracle
	// estimate. Only surfaced by Reply.ExactErr and by clients configured
	// with RequireExact — by default degraded answers are successes.
	ErrDegraded = errors.New("client: degraded landmark-bound answer")
)

// RejectedError is a server rejection (429) that carried a Retry-After
// hint. It unwraps to ErrRejected, so existing errors.Is checks keep
// matching; callers that want the server's pacing read After.
type RejectedError struct {
	// After is the server's Retry-After hint (zero when the header carried
	// "0" — retry immediately).
	After time.Duration
	// Detail is the server's error text.
	Detail string
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("%v (retry after %v): %s", ErrRejected, e.After, e.Detail)
}

func (e *RejectedError) Unwrap() error { return ErrRejected }

// Query is one query in wire form.
type Query struct {
	// Type is "dist", "path" or "route".
	Type string `json:"type"`
	U    int32  `json:"u"`
	V    int32  `json:"v"`
	// DeadlineMS, when positive, bounds server-side queueing+execution.
	DeadlineMS int64 `json:"deadlineMs,omitempty"`
	// Priority is "" / "high" (protected) or "low" (shed first under
	// brownout).
	Priority string `json:"priority,omitempty"`
	// AllowDegraded asks the server for the cheap landmark-bound answer
	// (flagged Degraded) instead of the exact oracle estimate — the cluster
	// router sets it when serving through a stale replica under quorum loss.
	AllowDegraded bool `json:"allowDegraded,omitempty"`
}

// Reply is one query's answer in wire form.
type Reply struct {
	Type     string  `json:"type"`
	U        int32   `json:"u"`
	V        int32   `json:"v"`
	Dist     int32   `json:"dist"`
	Path     []int32 `json:"path,omitempty"`
	Bound    *int32  `json:"bound,omitempty"`
	Cached   bool    `json:"cached"`
	Degraded bool    `json:"degraded,omitempty"`
	// Composed marks a cross-partition distance answer: Dist is the min
	// boundary-landmark relay (a true upper bound within the published
	// exactness bound of the split) and Bound carries the matching lower
	// certificate. Only partitioned deployments set it.
	Composed bool  `json:"composed,omitempty"`
	Snapshot int64 `json:"snapshot"`
	// Gen is the cluster generation that answered (0 outside cluster
	// serving). Unlike Snapshot — a replica-local engine counter that
	// resets on restart — Gen is assigned by the router's two-phase swap
	// and comparable across replicas.
	Gen int64  `json:"gen,omitempty"`
	Err string `json:"err,omitempty"`
}

// ExactErr returns nil for an exact answer and an error matching
// ErrDegraded for a flagged landmark-bound one, letting callers that need
// exactness distinguish the two without inspecting the flag by hand.
func (r Reply) ExactErr() error {
	if r.Degraded {
		return fmt.Errorf("%w: dist(%d,%d) ≤ %d", ErrDegraded, r.U, r.V, r.Dist)
	}
	return nil
}

// Config tunes a Client. The zero value (plus BaseURL) is production-ready.
type Config struct {
	// BaseURL is the spannerd address, e.g. "http://localhost:8080".
	BaseURL string
	// HTTP overrides the underlying pooled client (nil builds one with
	// keep-alive pooling sized for a single busy service).
	HTTP *http.Client
	// Timeout bounds each attempt (not the whole retry chain); default 2s.
	Timeout time.Duration
	// MaxRetries is how many times an idempotent call is retried after its
	// first attempt; default 3. Mutating calls never retry.
	MaxRetries int
	// BaseBackoff and MaxBackoff shape the exponential backoff between
	// retries (defaults 10ms and 250ms); each delay gets deterministic
	// seeded jitter in [½d, d).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed derives the jitter stream; two clients with equal seeds back off
	// identically (the chaos suite's reproducibility hook).
	Seed int64
	// BreakerThreshold consecutive failures open the circuit breaker
	// (default 8); BreakerCooldown is how long it sheds before probing
	// (default 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// RequireExact makes Query and Dist refuse flagged landmark-bound
	// answers: a Degraded reply returns the reply data plus an error
	// matching ErrDegraded instead of a silent success. Batch replies are
	// left to the caller (use Reply.ExactErr per entry).
	RequireExact bool
	// Now overrides the breaker's clock (tests; nil = time.Now).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 10 * time.Millisecond
	}
	if c.MaxBackoff < c.BaseBackoff {
		c.MaxBackoff = 250 * time.Millisecond
		if c.MaxBackoff < c.BaseBackoff {
			c.MaxBackoff = c.BaseBackoff
		}
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 8
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Client is a pooled, retrying spannerd client. Safe for concurrent use.
type Client struct {
	cfg Config
	hc  *http.Client
	retryPolicy
}

// Stats is a point-in-time view of the client's resilience state.
type Stats struct {
	// Breaker is "closed", "open" or "half-open".
	Breaker string
}

// New builds a client for the spannerd at cfg.BaseURL.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	hc := cfg.HTTP
	if hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 64
		tr.MaxIdleConnsPerHost = 64
		hc = &http.Client{Transport: tr}
	}
	return &Client{cfg: cfg, hc: hc, retryPolicy: cfg.policy()}
}

// Stats reports the client's current resilience state.
func (c *Client) Stats() Stats { return Stats{Breaker: c.br.snapshot()} }

// ResetBreaker closes the circuit breaker. It is for owners that learn out
// of band, from a health probe, that the server is back before the
// cooldown would let a call through.
func (c *Client) ResetBreaker() { c.br.success() }

// do runs one endpoint call under the retry/breaker discipline and returns
// the response body of the first success.
func (c *Client) do(ctx context.Context, method, path string, body []byte, idempotent bool) ([]byte, error) {
	if err := c.allow(); err != nil {
		return nil, err
	}
	for n := 1; ; n++ {
		data, ae := c.attempt(ctx, method, path, body)
		if ae == nil {
			c.br.success()
			return data, nil
		}
		if err := c.retry(ctx, ae, n, idempotent); err != nil {
			return nil, err
		}
	}
}

// attempt is one HTTP round trip with the per-attempt timeout applied.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte) ([]byte, *attemptErr) {
	actx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return nil, &attemptErr{err: fmt.Errorf("%w: %v", ErrBadRequest, err)}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The caller's own deadline (not the per-attempt one): stop.
			return nil, &attemptErr{err: fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())}
		}
		if errors.Is(err, context.DeadlineExceeded) {
			// Per-attempt timeout: the server may just be slow — retryable,
			// and a server-down signal for the breaker.
			return nil, &attemptErr{err: fmt.Errorf("%w: attempt: %v", ErrTimeout, err), retryable: true, breaker: true}
		}
		// Transport failure: refused, reset, DNS.
		return nil, &attemptErr{err: fmt.Errorf("%w: %v", ErrUnavailable, err), retryable: true, breaker: true}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		// Truncated or reset mid-body: the response cannot be trusted.
		return nil, &attemptErr{err: fmt.Errorf("%w: reading response: %v", ErrUnavailable, err), retryable: true, breaker: true}
	}
	if ae := classifyStatus(resp.StatusCode, resp.Header, data); ae != nil {
		return nil, ae
	}
	return data, nil
}

// classifyStatus maps a non-2xx answer to its typed error and retry class.
func classifyStatus(status int, hdr http.Header, body []byte) *attemptErr {
	if status < 300 {
		return nil
	}
	detail := serverErr(body)
	switch {
	case status == http.StatusTooManyRequests:
		if after, ok := retryAfter(hdr); ok {
			return &attemptErr{
				err:   &RejectedError{After: after, Detail: detail},
				after: &after,
			}
		}
		return &attemptErr{err: fmt.Errorf("%w: %s", ErrRejected, detail)}
	case status == http.StatusConflict:
		return &attemptErr{err: fmt.Errorf("%w: %s", ErrConflict, detail)}
	case status == http.StatusGatewayTimeout:
		return &attemptErr{err: fmt.Errorf("%w: server: %s", ErrTimeout, detail), retryable: true}
	case status >= 500:
		return &attemptErr{err: fmt.Errorf("%w: HTTP %d: %s", ErrUnavailable, status, detail), retryable: true, breaker: true}
	default: // remaining 4xx: the request is wrong, retrying cannot help
		return &attemptErr{err: fmt.Errorf("%w: HTTP %d: %s", ErrBadRequest, status, detail)}
	}
}

// retryAfter parses a Retry-After header as delay-seconds (the form the
// server emits; HTTP-dates are ignored rather than guessed at).
func retryAfter(hdr http.Header) (time.Duration, bool) {
	v := hdr.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// serverErr extracts the server's {"err": "..."} detail, if present.
func serverErr(body []byte) string {
	var e struct {
		Err string `json:"err"`
	}
	if json.Unmarshal(body, &e) == nil && e.Err != "" {
		return e.Err
	}
	if len(body) > 120 {
		body = body[:120]
	}
	return string(bytes.TrimSpace(body))
}

// Query answers one query. Idempotent: retried under backoff.
func (c *Client) Query(ctx context.Context, q Query) (Reply, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return Reply{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	data, err := c.do(ctx, http.MethodPost, "/query", body, true)
	if err != nil {
		return Reply{}, err
	}
	var r Reply
	if err := json.Unmarshal(data, &r); err != nil {
		return Reply{}, fmt.Errorf("%w: decoding reply: %v", ErrUnavailable, err)
	}
	if c.cfg.RequireExact {
		if err := r.ExactErr(); err != nil {
			return r, err
		}
	}
	return r, nil
}

// Dist answers a distance query (stretch ≤ 2K−1 oracle estimate; an upper
// bound flagged Degraded under server brownout).
func (c *Client) Dist(ctx context.Context, u, v int32) (Reply, error) {
	return c.Query(ctx, Query{Type: "dist", U: u, V: v})
}

// Batch answers a batch of queries in one round trip; replies come back in
// input order, per-query failures as Reply.Err. Idempotent: retried under
// backoff.
func (c *Client) Batch(ctx context.Context, qs []Query) ([]Reply, error) {
	body, err := json.Marshal(qs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	data, err := c.do(ctx, http.MethodPost, "/batch", body, true)
	if err != nil {
		return nil, err
	}
	var rs []Reply
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%w: decoding replies: %v", ErrUnavailable, err)
	}
	return rs, nil
}

// SwapResult reports an accepted generation change.
type SwapResult struct {
	Snapshot int64 `json:"snapshot"`
	N        int   `json:"n"`
	Spanner  int   `json:"spanner"`
	Segments int   `json:"segments"`
	Updates  int   `json:"updates"`
}

// Swap asks the server to load and hot-swap the artifact at path (a path
// on the server's filesystem). Single-shot: never retried.
func (c *Client) Swap(ctx context.Context, path string) (SwapResult, error) {
	return c.mutate(ctx, "/swap", map[string]string{"artifact": path})
}

// Update asks the server to load and apply the delta at path (a path on
// the server's filesystem). Single-shot: never retried; a delta whose base
// generation is no longer live returns ErrConflict — re-diff and resubmit.
func (c *Client) Update(ctx context.Context, path string) (SwapResult, error) {
	return c.mutate(ctx, "/update", map[string]string{"delta": path})
}

func (c *Client) mutate(ctx context.Context, path string, body map[string]string) (SwapResult, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return SwapResult{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	data, err := c.do(ctx, http.MethodPost, path, b, false)
	if err != nil {
		return SwapResult{}, err
	}
	var res SwapResult
	if err := json.Unmarshal(data, &res); err != nil {
		return SwapResult{}, fmt.Errorf("%w: decoding result: %v", ErrUnavailable, err)
	}
	return res, nil
}

// Health is the /healthz answer.
type Health struct {
	Status   string `json:"status"`
	SLO      string `json:"slo"`
	Snapshot int64  `json:"snapshot"`
	N        int    `json:"n"`
}

// Healthz reports server liveness. Idempotent: retried under backoff.
// Since the liveness/readiness split, /healthz answers 200 whenever the
// process serves (even paging or mid-swap) — a 503 here means the server
// is truly gone and surfaces as ErrUnavailable after the retry budget;
// readiness questions belong to /readyz.
func (c *Client) Healthz(ctx context.Context) (Health, error) {
	var h Health
	data, err := c.do(ctx, http.MethodGet, "/healthz", nil, true)
	if err != nil {
		return h, err
	}
	if derr := json.Unmarshal(data, &h); derr != nil {
		return h, fmt.Errorf("%w: decoding health: %v", ErrUnavailable, derr)
	}
	return h, nil
}
