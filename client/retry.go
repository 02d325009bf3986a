package client

import (
	"context"
	"fmt"
	"time"
)

// retryPolicy is the retry, backoff and circuit-breaker discipline both
// clients run their calls under, whatever the transport: a call passes the
// breaker once, then each failed attempt is classified (attemptErr) and
// either ends the call or is followed, after a backoff, by another.
type retryPolicy struct {
	timeout     time.Duration // bounds each attempt
	maxRetries  int
	baseBackoff time.Duration
	maxBackoff  time.Duration
	seed        int64
	br          *breaker
}

// policy builds the retry discipline from cfg's retry, backoff and breaker
// settings. cfg must already have its defaults applied: withDefaults is not
// idempotent (MaxRetries -1 becomes 0, and 0 becomes 3).
func (cfg Config) policy() retryPolicy {
	return retryPolicy{
		timeout:     cfg.Timeout,
		maxRetries:  cfg.MaxRetries,
		baseBackoff: cfg.BaseBackoff,
		maxBackoff:  cfg.MaxBackoff,
		seed:        cfg.Seed,
		br:          newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Now),
	}
}

// attemptErr classifies one failed attempt.
type attemptErr struct {
	err       error // typed error to surface if this is the last attempt
	retryable bool  // may retry (when the call is idempotent)
	breaker   bool  // counts as a breaker failure (server-down signal)
	// after is the server's Retry-After hint, when the rejection carried
	// one (nil otherwise). A hinted rejection is not retryable per se —
	// retry promotes it when the hint fits inside the backoff ceiling.
	after *time.Duration
}

// allow lets a call through the circuit breaker, or refuses it locally.
func (p *retryPolicy) allow() error {
	if !p.br.allow() {
		return fmt.Errorf("%w: circuit breaker open", ErrUnavailable)
	}
	return nil
}

// retry records the failure ae of a call's attempt-th attempt (1-based).
// When another attempt may follow it waits out the backoff and returns
// nil; otherwise it returns the error the call ends with.
func (p *retryPolicy) retry(ctx context.Context, ae *attemptErr, attempt int, idempotent bool) error {
	if ae.breaker {
		p.br.failure()
	}
	// A rejection with a Retry-After within the backoff ceiling is worth
	// honoring: the server asked for a pause it expects to be enough. Hints
	// beyond the ceiling (or absent) surface immediately — rejections are
	// otherwise never retried.
	retryable := ae.retryable || (ae.after != nil && *ae.after <= p.maxBackoff)
	if !retryable || !idempotent {
		return ae.err
	}
	if ctx.Err() != nil {
		return fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
	}
	if attempt > p.maxRetries {
		return ae.err
	}
	d := p.backoffFor(attempt)
	if ae.after != nil && *ae.after > 0 {
		// The server said exactly when to come back; its pacing replaces
		// the guesswork of jittered backoff.
		d = *ae.after
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
	case <-t.C:
		return nil
	}
}

// backoffFor returns the delay before retry #attempt (attempt ≥ 1):
// exponential in the attempt number, capped, with deterministic jitter in
// [½d, d) drawn from the seed and attempt — decorrelated between clients
// with different seeds, reproducible for equal ones.
func (p *retryPolicy) backoffFor(attempt int) time.Duration {
	d := p.baseBackoff << (attempt - 1)
	if d > p.maxBackoff || d <= 0 {
		d = p.maxBackoff
	}
	half := uint64(d / 2)
	if half == 0 {
		return d
	}
	return time.Duration(half + splitmix(uint64(p.seed)^uint64(attempt)*0x9e3779b97f4a7c15)%half)
}

func splitmix(x uint64) uint64 {
	z := x + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
