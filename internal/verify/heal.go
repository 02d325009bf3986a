package verify

import (
	"fmt"
	"time"

	"spanner/internal/graph"
)

// Resilience configures verifier-gated repair of a distributed build that
// ran under fault injection. The zero value is usable; a nil *Resilience
// disables healing entirely.
type Resilience struct {
	// MaxAttempts bounds rebuild attempts before the edge fallback
	// (default 3). Drivers switch their rebuild to a sequential, fault-free
	// construction on the last attempt.
	MaxAttempts int
	// Backoff is the pause before the first retry, doubling each attempt
	// (exponential backoff). 0 retries immediately — the right setting for
	// the simulator, where "waiting out" a fault plan is a real phenomenon
	// only if the caller models it; kept for wall-clock-faulty backends.
	Backoff time.Duration
	// MaxStretch overrides the pipeline's own stretch bound when > 0
	// (useful to heal to a tighter target than the theory guarantees).
	MaxStretch int
}

func (r Resilience) withDefaults() Resilience {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 3
	}
	return r
}

// Bound resolves the stretch bound to heal against: the override if set,
// otherwise the pipeline's own guarantee.
func (r *Resilience) Bound(pipelineBound int) int {
	if r != nil && r.MaxStretch > 0 {
		return r.MaxStretch
	}
	return pipelineBound
}

// Attempts returns the effective MaxAttempts (defaults applied). Rebuild
// callbacks compare their attempt argument against it to detect the final
// attempt and switch to a fault-free sequential construction.
func (r Resilience) Attempts() int { return r.withDefaults().MaxAttempts }

// HealReport records what verifier-gated repair did to a build. It is
// attached to pipeline results so degradation is explicit, never silent.
type HealReport struct {
	// Bound is the stretch bound the spanner was verified against.
	Bound int
	// Checked is true when the verifier ran (a Resilience option was set).
	Checked bool
	// Attempts is the number of rebuild attempts performed (0 when the
	// initial build already verified).
	Attempts int
	// Violations[i] is the violated-edge count after attempt i
	// (Violations[0] is the initial check); healing converged when the last
	// entry is 0.
	Violations []int
	// RetryErrors records rebuild attempts that themselves failed (the
	// residual rebuild runs under the same fault plan and may crash too).
	RetryErrors []string
	// FallbackEdges counts edges added directly by the final fallback.
	FallbackEdges int
	// Degraded is true when the protocol never converged and the fallback
	// patched the spanner with raw graph edges: the result is still a valid
	// t-spanner, but not one the distributed protocol produced.
	Degraded bool
	// Verified is true when the final spanner satisfies the bound.
	Verified bool
}

// String renders a one-line summary for logs and CLI output.
func (h *HealReport) String() string {
	if h == nil || !h.Checked {
		return "heal{unchecked}"
	}
	return fmt.Sprintf("heal{bound=%d attempts=%d violations=%v degraded=%v verified=%v fallback_edges=%d}",
		h.Bound, h.Attempts, h.Violations, h.Degraded, h.Verified, h.FallbackEdges)
}

// ViolatedEdges returns the edges (u,v) of g with δ_S(u,v) > bound, the
// edge-certificate form of spanner verification (see Certify), each once
// with u < v, in ascending order. Bound 0 violates every edge; a negative
// bound checks connectivity alone.
func ViolatedEdges(g *graph.Graph, s *graph.EdgeSet, bound int) [][2]int32 {
	return Certify(g, s.ToGraph(g.N()), int32(bound), false).Violated
}

// Heal verifies the spanner s of g against the stretch bound and repairs it
// in place until it verifies or the attempt budget is spent.
//
// Each attempt calls rebuild on the residual graph — the subgraph of g
// spanned by the still-violated edges only, so repair work shrinks with the
// damage — and merges the returned edges into s. rebuild receives the
// 1-based attempt number; drivers use it to fall back to a sequential,
// fault-free construction on the last attempt. A rebuild error is recorded
// and counts as a failed attempt (under fault injection the repair run can
// crash too).
//
// If the protocol never converges, the remaining violated edges are added
// to s directly: δ_S becomes 1 on each, so the result is always a valid
// t-spanner, with Degraded recording that the guarantee came from the
// fallback rather than the protocol.
func Heal(g *graph.Graph, s *graph.EdgeSet, bound int, r Resilience,
	rebuild func(residual *graph.Graph, attempt int) (*graph.EdgeSet, error)) *HealReport {
	r = r.withDefaults()
	rep := &HealReport{Bound: bound, Checked: true}
	viol := ViolatedEdges(g, s, bound)
	rep.Violations = append(rep.Violations, len(viol))
	for attempt := 1; attempt <= r.MaxAttempts && len(viol) > 0; attempt++ {
		if r.Backoff > 0 {
			time.Sleep(r.Backoff << (attempt - 1))
		}
		rep.Attempts++
		residual := graph.FromEdges(g.N(), viol)
		patch, err := rebuild(residual, attempt)
		if err != nil {
			rep.RetryErrors = append(rep.RetryErrors, err.Error())
		}
		if patch != nil {
			// A failed attempt may still return a partial spanner; keep it —
			// progress under faults is progress.
			s.AddAll(patch)
		}
		viol = ViolatedEdges(g, s, bound)
		rep.Violations = append(rep.Violations, len(viol))
	}
	if len(viol) > 0 {
		for _, e := range viol {
			s.Add(e[0], e[1])
		}
		rep.FallbackEdges = len(viol)
		rep.Degraded = true
		viol = ViolatedEdges(g, s, bound)
		rep.Violations = append(rep.Violations, len(viol))
	}
	rep.Verified = len(viol) == 0
	return rep
}
