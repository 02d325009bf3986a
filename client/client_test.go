package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fastCfg returns a config with millisecond backoffs so retry chains run in
// test time.
func fastCfg(url string) Config {
	return Config{
		BaseURL:     url,
		Timeout:     time.Second,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Seed:        7,
	}
}

func okReply(w http.ResponseWriter, dist int32) {
	json.NewEncoder(w).Encode(Reply{Type: "dist", Dist: dist, Snapshot: 1})
}

func TestQueryRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"err":"boom"}`, http.StatusInternalServerError)
			return
		}
		okReply(w, 4)
	}))
	defer ts.Close()
	c := New(fastCfg(ts.URL))
	r, err := c.Dist(context.Background(), 1, 2)
	if err != nil {
		t.Fatalf("retried query failed: %v", err)
	}
	if r.Dist != 4 || calls.Load() != 3 {
		t.Fatalf("dist %d after %d calls", r.Dist, calls.Load())
	}
}

func TestQueryExhaustsRetryBudget(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"err":"down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()
	cfg := fastCfg(ts.URL)
	cfg.MaxRetries = 2
	c := New(cfg)
	_, err := c.Dist(context.Background(), 1, 2)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
	if calls.Load() != 3 { // first attempt + 2 retries
		t.Fatalf("%d calls, want 3", calls.Load())
	}
}

// TestNegativeMaxRetriesDisablesRetries pins MaxRetries -1 as "no retries"
// on both clients, rather than the default budget of 3.
func TestNegativeMaxRetriesDisablesRetries(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"err":"down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()
	cfg := fastCfg(ts.URL)
	cfg.MaxRetries = -1
	if _, err := New(cfg).Dist(context.Background(), 1, 2); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d calls, want 1", calls.Load())
	}
	wc, err := NewWire(WireConfig{Addr: "127.0.0.1:1", MaxRetries: -1, ScavengeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	if wc.maxRetries != 0 {
		t.Fatalf("wire client retries %d times, want 0", wc.maxRetries)
	}
}

func TestMutationsAreSingleShot(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"err":"down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()
	c := New(fastCfg(ts.URL))
	if _, err := c.Update(context.Background(), "x.spandelta"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("update: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("update made %d calls, want 1 (single-shot)", calls.Load())
	}
	if _, err := c.Swap(context.Background(), "x.spanart"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("swap: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("swap made %d more calls, want 1 (single-shot)", calls.Load()-1)
	}
}

func TestErrorTaxonomy(t *testing.T) {
	cases := []struct {
		status  int
		want    error
		retries bool
	}{
		{http.StatusBadRequest, ErrBadRequest, false},
		{http.StatusUnprocessableEntity, ErrBadRequest, false},
		{http.StatusConflict, ErrConflict, false},
		{http.StatusTooManyRequests, ErrRejected, false},
		{http.StatusGatewayTimeout, ErrTimeout, true},
		{http.StatusServiceUnavailable, ErrUnavailable, true},
	}
	for _, tc := range cases {
		var calls atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			http.Error(w, `{"err":"detail"}`, tc.status)
		}))
		cfg := fastCfg(ts.URL)
		cfg.MaxRetries = 1
		c := New(cfg)
		_, err := c.Dist(context.Background(), 1, 2)
		ts.Close()
		if !errors.Is(err, tc.want) {
			t.Fatalf("status %d: got %v, want %v", tc.status, err, tc.want)
		}
		wantCalls := int64(1)
		if tc.retries {
			wantCalls = 2
		}
		if calls.Load() != wantCalls {
			t.Fatalf("status %d: %d calls, want %d", tc.status, calls.Load(), wantCalls)
		}
	}
}

func TestBreakerOpensShedsAndRecovers(t *testing.T) {
	var calls atomic.Int64
	healthy := atomic.Bool{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if healthy.Load() {
			okReply(w, 2)
			return
		}
		http.Error(w, `{"err":"down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	var fake atomic.Int64
	fake.Store(time.Now().UnixNano())
	cfg := fastCfg(ts.URL)
	cfg.MaxRetries = 1
	cfg.BreakerThreshold = 4
	cfg.BreakerCooldown = time.Minute
	cfg.Now = func() time.Time { return time.Unix(0, fake.Load()) }
	c := New(cfg)

	// Burn through the threshold (2 attempts per call).
	for i := 0; i < 2; i++ {
		if _, err := c.Dist(context.Background(), 1, 2); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if st := c.Stats().Breaker; st != "open" {
		t.Fatalf("breaker %q after %d failures, want open", st, calls.Load())
	}
	// Open breaker sheds locally: no new network calls.
	before := calls.Load()
	if _, err := c.Dist(context.Background(), 1, 2); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("shed call: %v", err)
	}
	if calls.Load() != before {
		t.Fatal("open breaker still hit the network")
	}

	// Cooldown passes, server is healthy again: the half-open probe
	// succeeds and the breaker closes.
	healthy.Store(true)
	fake.Add(int64(2 * time.Minute))
	r, err := c.Dist(context.Background(), 1, 2)
	if err != nil || r.Dist != 2 {
		t.Fatalf("probe after cooldown: %v, %+v", err, r)
	}
	if st := c.Stats().Breaker; st != "closed" {
		t.Fatalf("breaker %q after successful probe, want closed", st)
	}
}

// TestResetBreakerClosesOpenCircuit: an owner that learns out of band that
// the server is back closes the circuit before the cooldown ends.
func TestResetBreakerClosesOpenCircuit(t *testing.T) {
	healthy := atomic.Bool{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if healthy.Load() {
			okReply(w, 2)
			return
		}
		http.Error(w, `{"err":"down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()
	cfg := fastCfg(ts.URL)
	cfg.MaxRetries = -1
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Hour
	c := New(cfg)
	for i := 0; i < 2; i++ {
		c.Dist(context.Background(), 1, 2)
	}
	if st := c.Stats().Breaker; st != "open" {
		t.Fatalf("breaker %q, want open", st)
	}
	healthy.Store(true)
	c.ResetBreaker()
	if rep, err := c.Dist(context.Background(), 1, 2); err != nil || rep.Dist != 2 {
		t.Fatalf("call after reset: %+v, %v", rep, err)
	}
}

func TestBreakerReopensOnFailedProbe(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"err":"down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()
	var fake atomic.Int64
	fake.Store(time.Now().UnixNano())
	cfg := fastCfg(ts.URL)
	cfg.MaxRetries = 0
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Minute
	cfg.Now = func() time.Time { return time.Unix(0, fake.Load()) }
	c := New(cfg)
	for i := 0; i < 2; i++ {
		c.Dist(context.Background(), 1, 2)
	}
	if st := c.Stats().Breaker; st != "open" {
		t.Fatalf("breaker %q, want open", st)
	}
	fake.Add(int64(2 * time.Minute))
	c.Dist(context.Background(), 1, 2) // failed probe
	if st := c.Stats().Breaker; st != "open" {
		t.Fatalf("breaker %q after failed probe, want open again", st)
	}
	// And it sheds again until the next cooldown.
	if _, err := c.Dist(context.Background(), 1, 2); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("post-probe shed: %v", err)
	}
}

func TestTruncatedBodyRetried(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Promise more bytes than are sent, then die: the client sees a
			// truncated body and must not trust it.
			w.Header().Set("Content-Length", "4096")
			w.Write([]byte(`{"type":"dist","dist":`))
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		}
		okReply(w, 9)
	}))
	defer ts.Close()
	c := New(fastCfg(ts.URL))
	r, err := c.Dist(context.Background(), 1, 2)
	if err != nil {
		t.Fatalf("truncated body not retried: %v", err)
	}
	if r.Dist != 9 || calls.Load() != 2 {
		t.Fatalf("dist %d after %d calls", r.Dist, calls.Load())
	}
}

func TestCallerDeadlineStopsRetries(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		time.Sleep(30 * time.Millisecond)
		okReply(w, 1)
	}))
	defer ts.Close()
	cfg := fastCfg(ts.URL)
	cfg.Timeout = 5 * time.Millisecond // per-attempt
	cfg.MaxRetries = 50
	c := New(cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	_, err := c.Dist(ctx, 1, 2)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if n := calls.Load(); n > 10 {
		t.Fatalf("%d attempts within a 40ms caller deadline; retries ignored the context", n)
	}
}

func TestDegradedAnswersAreSuccesses(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(Reply{Type: "dist", Dist: 7, Degraded: true, Snapshot: 3})
	}))
	defer ts.Close()
	c := New(fastCfg(ts.URL))
	r, err := c.Dist(context.Background(), 1, 2)
	if err != nil {
		t.Fatalf("degraded answer errored: %v", err)
	}
	if !r.Degraded || r.Dist != 7 {
		t.Fatalf("degraded flag lost: %+v", r)
	}
	if st := c.Stats().Breaker; st != "closed" {
		t.Fatalf("degraded success tripped the breaker: %q", st)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var qs []Query
		if err := json.NewDecoder(r.Body).Decode(&qs); err != nil {
			http.Error(w, `{"err":"bad json"}`, http.StatusBadRequest)
			return
		}
		rs := make([]Reply, len(qs))
		for i, q := range qs {
			rs[i] = Reply{Type: q.Type, U: q.U, V: q.V, Dist: q.U + q.V, Snapshot: 1}
		}
		json.NewEncoder(w).Encode(rs)
	}))
	defer ts.Close()
	c := New(fastCfg(ts.URL))
	rs, err := c.Batch(context.Background(), []Query{
		{Type: "dist", U: 1, V: 2}, {Type: "dist", U: 3, V: 4, Priority: "low"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Dist != 3 || rs[1].Dist != 7 {
		t.Fatalf("batch replies %+v", rs)
	}
}

func TestSeededBackoffDeterministic(t *testing.T) {
	a := New(Config{BaseURL: "http://x", Seed: 9})
	b := New(Config{BaseURL: "http://x", Seed: 9})
	other := New(Config{BaseURL: "http://x", Seed: 10})
	var diverged bool
	for i := 1; i <= 6; i++ {
		da, db := a.backoffFor(i), b.backoffFor(i)
		if da != db {
			t.Fatalf("equal seeds diverged at attempt %d: %v vs %v", i, da, db)
		}
		if base, max := a.cfg.BaseBackoff, a.cfg.MaxBackoff; da < base/2 || da > max {
			t.Fatalf("backoff %v outside [%v/2, %v]", da, base, max)
		}
		if other.backoffFor(i) != da {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds never diverged")
	}
}

// TestBreakerHalfOpenSingleProbe pins the half-open contract under
// concurrency: after cooldown exactly one caller becomes the probe and
// reaches the server; every concurrent caller is shed locally with
// ErrUnavailable while that probe is in flight. A thundering herd
// re-arriving at a recovering server is the failure mode the breaker
// exists to prevent, so this is tested with real concurrent callers, not
// sequential allow() calls.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	var serverCalls atomic.Int64
	healthy := atomic.Bool{}
	probeArrived := make(chan struct{}, 1)
	probeRelease := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serverCalls.Add(1)
		if !healthy.Load() {
			http.Error(w, `{"err":"down"}`, http.StatusInternalServerError)
			return
		}
		// Healthy = the recovering server: hold the probe so losers race
		// against an in-flight half-open probe, not a closed circuit.
		probeArrived <- struct{}{}
		<-probeRelease
		okReply(w, 7)
	}))
	defer ts.Close()

	clock := time.Unix(1000, 0)
	var clockMu sync.Mutex
	now := func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return clock }
	advance := func(d time.Duration) { clockMu.Lock(); clock = clock.Add(d); clockMu.Unlock() }

	cfg := fastCfg(ts.URL)
	cfg.MaxRetries = -1 // single attempt per call: breaker transitions stay legible
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Second
	cfg.Now = now
	c := New(cfg)
	ctx := context.Background()

	// Trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := c.Dist(ctx, 1, 2); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("tripping call %d: %v", i, err)
		}
	}
	if got := c.Stats().Breaker; got != "open" {
		t.Fatalf("breaker %q after threshold failures, want open", got)
	}
	// Open circuit sheds locally: no network traffic.
	before := serverCalls.Load()
	if _, err := c.Dist(ctx, 1, 2); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("shed call: %v", err)
	}
	if serverCalls.Load() != before {
		t.Fatal("open breaker let a call reach the server")
	}

	// Cooldown elapses; the server recovers. The first caller becomes the
	// half-open probe and blocks inside the server handler.
	healthy.Store(true)
	advance(cfg.BreakerCooldown + time.Millisecond)
	probeErr := make(chan error, 1)
	go func() {
		_, err := c.Dist(ctx, 1, 2)
		probeErr <- err
	}()
	select {
	case <-probeArrived:
	case <-time.After(5 * time.Second):
		t.Fatal("probe never reached the server")
	}

	// Concurrent callers during the probe: all shed locally.
	inFlight := serverCalls.Load()
	var losers sync.WaitGroup
	loserErrs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		losers.Add(1)
		go func() {
			defer losers.Done()
			_, err := c.Dist(ctx, 1, 2)
			loserErrs <- err
		}()
	}
	losers.Wait()
	close(loserErrs)
	for err := range loserErrs {
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("loser during half-open probe: %v, want ErrUnavailable", err)
		}
	}
	if got := serverCalls.Load(); got != inFlight {
		t.Fatalf("%d callers reached the server during the probe, want only the probe", got-inFlight+1)
	}

	// Probe succeeds; the circuit closes and traffic flows again.
	close(probeRelease)
	if err := <-probeErr; err != nil {
		t.Fatalf("probe: %v", err)
	}
	if got := c.Stats().Breaker; got != "closed" {
		t.Fatalf("breaker %q after successful probe, want closed", got)
	}
	if r, err := c.Dist(ctx, 1, 2); err != nil || r.Dist != 7 {
		t.Fatalf("post-recovery call: %v dist %d", err, r.Dist)
	}
}

// TestRetryAfterHonored pins the 429 pacing contract: a Retry-After hint
// within MaxBackoff is honored (the idempotent call waits and retries), a
// hint beyond it surfaces immediately as a *RejectedError carrying the
// server's pacing.
func TestRetryAfterHonored(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"err":"brownout"}`, http.StatusTooManyRequests)
			return
		}
		okReply(w, 3)
	}))
	defer ts.Close()
	c := New(fastCfg(ts.URL))
	r, err := c.Dist(context.Background(), 1, 2)
	if err != nil || r.Dist != 3 {
		t.Fatalf("hinted 429 not retried: %v dist %d", err, r.Dist)
	}
	if calls.Load() != 2 {
		t.Fatalf("%d calls, want 2 (429 then success)", calls.Load())
	}

	// A hint beyond MaxBackoff is the server saying "much later": surface
	// it immediately with the pacing attached instead of stalling.
	var slowCalls atomic.Int64
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		slowCalls.Add(1)
		w.Header().Set("Retry-After", "30")
		http.Error(w, `{"err":"brownout"}`, http.StatusTooManyRequests)
	}))
	defer slow.Close()
	c2 := New(fastCfg(slow.URL))
	_, err = c2.Dist(context.Background(), 1, 2)
	var rej *RejectedError
	if !errors.As(err, &rej) || !errors.Is(err, ErrRejected) {
		t.Fatalf("want *RejectedError wrapping ErrRejected, got %v", err)
	}
	if rej.After != 30*time.Second {
		t.Fatalf("After = %v, want 30s", rej.After)
	}
	if slowCalls.Load() != 1 {
		t.Fatalf("%d calls, want 1 (hint too far out to honor)", slowCalls.Load())
	}
}

// TestRequireExactRefusesDegraded pins the ErrDegraded surface: flagged
// landmark-bound answers are successes by default, opt-in failures with
// RequireExact, and always detectable via Reply.ExactErr.
func TestRequireExactRefusesDegraded(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(Reply{Type: "dist", U: 1, V: 2, Dist: 9, Degraded: true, Snapshot: 1})
	}))
	defer ts.Close()

	// Default: degraded answers succeed, ExactErr flags them.
	c := New(fastCfg(ts.URL))
	r, err := c.Dist(context.Background(), 1, 2)
	if err != nil || !r.Degraded {
		t.Fatalf("default client: err %v degraded %v", err, r.Degraded)
	}
	if !errors.Is(r.ExactErr(), ErrDegraded) {
		t.Fatalf("ExactErr = %v, want ErrDegraded", r.ExactErr())
	}

	// RequireExact: same reply comes back with a typed error attached.
	cfg := fastCfg(ts.URL)
	cfg.RequireExact = true
	strict := New(cfg)
	r, err = strict.Dist(context.Background(), 1, 2)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("strict client: %v, want ErrDegraded", err)
	}
	if r.Dist != 9 {
		t.Fatal("strict client must still return the degraded bound alongside the error")
	}
}
