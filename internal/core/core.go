// Package core implements the paper's first contribution (Section 2): a
// randomized algorithm computing a linear-size spanner — a "skeleton" — of
// an unweighted graph. The spanner has expected size Dn/e + O(n log D) and
// distortion O(κ⁻¹·2^{log* n}·log_D n), and its distributed implementation
// (see distributed.go) runs in O(κ⁻¹·2^{log* n}·log_D n + log n) rounds with
// messages of O(log^κ n) words (Theorem 2).
//
// The sequential builder in this file drives the cluster.Expand primitive on
// the paper's schedule: the tower sequence s₀ = s₁ = D, sᵢ = s_{i-1}^{s_{i-1}}
// governs the rounds; round 0 runs one Expand with probability 1/D, round
// i ≥ 1 runs sᵢ+1 Expands with probability 1/sᵢ, and clusters are contracted
// between rounds. Two termination variants are provided:
//
//   - Pure: the fixed schedule runs until the expected nominal density
//     d_{i,j} (which the algorithm can compute locally; Lemma 2(4)) reaches
//     n, at which point one final Expand with probability zero kills every
//     remaining vertex (the analysis of Lemmas 5 and 6).
//   - Capped (Theorem 2): once d_{i,j} exceeds log^κ n · log(log^κ n) the
//     schedule switches to two final rounds with sampling probability
//     (log n)^{-κ}, bounding every message by O(log^κ n) words and the
//     total time by O(κ⁻¹·2^{log* n}·log_D n + log n).
package core

import (
	"fmt"
	"math"
	"math/rand"

	"spanner/internal/cluster"
	"spanner/internal/faults"
	"spanner/internal/graph"
	"spanner/internal/obs"
	"spanner/internal/reliable"
	"spanner/internal/seq"
	"spanner/internal/verify"
)

// Variant selects the termination rule of the schedule.
type Variant int

const (
	// Pure runs the unmodified tower schedule (Lemmas 5/6 analysis).
	Pure Variant = iota + 1
	// Capped switches to (log n)^{-κ} sampling once the nominal density
	// exceeds log^κ n · log(log^κ n), per Theorem 2.
	Capped
)

// Options configures BuildSkeleton.
type Options struct {
	// D is the density parameter (≥ 4); expected spanner size is about
	// Dn/e + O(n log D). Defaults to 4.
	D int
	// Variant selects Pure or Capped termination. Defaults to Capped.
	Variant Variant
	// Kappa is the message-length exponent κ: messages have O(log^κ n)
	// words. Used by the Capped variant. Defaults to 1.
	Kappa float64
	// DisableAbort turns off Theorem 2's q > 4·sᵢ·ln n escape hatch
	// (ablation D4); the abort rule is on by default.
	DisableAbort bool
	// Seed seeds the run's private RNG.
	Seed int64
	// Trace records per-call diagnostics (measured cluster radii), which is
	// quadratic-ish and meant for tests and small experiments.
	Trace bool
	// Obs, when non-nil, receives phase spans (one per Expand call, labeled
	// with the contraction level), per-round engine events for the
	// distributed build, and registry metrics. Nil disables observability.
	Obs *obs.Observer
	// Faults attaches a deterministic fault-injection plan to the
	// distributed build's engine runs (nil, or a zero plan, keeps the
	// lossless synchronous model). Sequential builds ignore it.
	Faults *faults.Plan
	// Resilience enables verifier-gated repair of the distributed build:
	// after a (possibly faulty) run the spanner is checked against the
	// analytic distortion bound and rebuilt on the residual subgraph until
	// it verifies, with the outcome recorded in DistributedResult.Health.
	// Nil disables healing (faulty builds then fail hard, as before).
	Resilience *verify.Resilience
	// Reliable wraps every engine run of the distributed build in the
	// reliable transport (internal/reliable): retransmission with backoff
	// recovers drop/duplicate/corrupt/delay faults at the wire, so the
	// protocol completes exactly instead of being healed after the fact.
	// Nil runs handlers directly on the (possibly lossy) network.
	Reliable *reliable.Policy
	// Degrade switches the distributed build's failure contract: instead of
	// returning an error when an engine run fails or the transport abandons
	// links, the build returns the partial spanner it constructed plus a
	// typed DegradationReport (DistributedResult.Degradation) stating what
	// remains unverified. False keeps the hard-failure contract.
	Degrade bool
	// CheckpointDir, with CheckpointEvery > 0, persists the distributed
	// build's state to disk: a call-boundary manifest before every Expand
	// call plus an engine checkpoint every CheckpointEvery rounds inside
	// each call.
	CheckpointDir   string
	CheckpointEvery int
	// Resume restarts a killed run from the latest manifest/checkpoint in
	// CheckpointDir instead of starting over; the completed run is
	// byte-identical to an uninterrupted one.
	Resume bool
	// goroutinePerNode runs the distributed build's engine with one
	// goroutine per vertex (distsim.Config.GoroutinePerNode) instead of the
	// worker pool; the pinned-output tests check that nothing changes.
	goroutinePerNode bool
}

// CallRecord captures one Expand call for analysis.
type CallRecord struct {
	Round     int     // i
	Iter      int     // j
	P         float64 // sampling probability
	Density   float64 // nominal density d_{i,j} after the call
	Stats     cluster.ExpandStats
	MaxRadius int32 // measured r_{i,j} (only when Trace is set)
}

// Result is the outcome of BuildSkeleton.
type Result struct {
	Spanner *graph.EdgeSet
	// Calls is the Expand-call trace in execution order.
	Calls []CallRecord
	// Rounds is the number of contraction rounds performed.
	Rounds int
	// SizeBound is Lemma 6's expected-size bound for this n and D.
	SizeBound float64
	// DistortionBound is the analytic multiplicative distortion bound for
	// the variant that ran.
	DistortionBound float64
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.D == 0 {
		out.D = 4
	}
	if out.Variant == 0 {
		out.Variant = Capped
	}
	if out.Kappa == 0 {
		out.Kappa = 1
	}
	return out
}

func (o *Options) validate() error {
	if o.D < 4 {
		return fmt.Errorf("core: D must be at least 4, got %d", o.D)
	}
	if o.Kappa < 0 {
		return fmt.Errorf("core: kappa must be nonnegative, got %v", o.Kappa)
	}
	if o.Variant != Pure && o.Variant != Capped {
		return fmt.Errorf("core: unknown variant %d", o.Variant)
	}
	return nil
}

// BuildSkeleton computes a linear-size spanner of g per Section 2.
func BuildSkeleton(g *graph.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	n := g.N()
	res := &Result{
		SizeBound:       seq.SkeletonSizeBound(n, float64(opts.D)),
		DistortionBound: DistortionBound(n, opts),
	}
	if n == 0 {
		res.Spanner = graph.NewEdgeSet(0)
		return res, nil
	}

	span := opts.Obs.StartSpan("skeleton.build",
		obs.I("n", int64(n)), obs.I("m", int64(g.M())),
		obs.I("d", int64(opts.D)), obs.I("variant", int64(opts.Variant)))
	st := cluster.New(g, rng)
	st.SetObserver(opts.Obs)
	density := 1.0
	for idx, call := range Schedule(n, opts) {
		if st.Done() {
			break
		}
		if call.ContractBefore {
			st.Contract()
		}
		cspan := span.Child("expand.call",
			obs.I("call", int64(idx)), obs.I(obs.AttrLevel, int64(call.Round)),
			obs.I("iter", int64(call.Iter)), obs.F("p", call.P),
			obs.I(obs.AttrSize, int64(st.NumLive())))
		stats := st.Expand(call.P, call.AbortQ)
		if call.P > 0 {
			density *= 1 / call.P
		}
		cspan.End(obs.I(obs.AttrEdges, int64(stats.EdgesAdded)),
			obs.I("joined", int64(stats.Joined)), obs.I("died", int64(stats.Died)),
			obs.I("aborted", int64(stats.Aborted)), obs.F("density", density),
			obs.I("live_after", int64(stats.LiveAfter)),
			obs.I("clusters_after", int64(stats.ClustersAfter)))
		rec := CallRecord{Round: call.Round, Iter: call.Iter, P: call.P, Density: density, Stats: stats}
		if opts.Trace {
			rec.MaxRadius = st.MaxClusterRadius()
		}
		res.Calls = append(res.Calls, rec)
	}
	res.Rounds = st.Rounds()
	res.Spanner = st.Spanner()
	span.End(obs.I(obs.AttrEdges, int64(res.Spanner.Len())),
		obs.I("levels", int64(res.Rounds)), obs.I("calls", int64(len(res.Calls))))
	return res, nil
}

// DistortionBound returns the analytic multiplicative distortion bound for
// the given options: Lemma 5's 3·2^{log* n − log* D + 1}·log_D n for the
// Pure variant and Theorem 2's κ⁻¹·2^{log* n − log* D + 7}·log_D n for the
// Capped variant.
func DistortionBound(n int, opts Options) float64 {
	opts = opts.withDefaults()
	if n < 2 {
		return 1
	}
	d := float64(opts.D)
	logDn := math.Log(float64(n)) / math.Log(d)
	exp := float64(seq.LogStar(float64(n)) - seq.LogStar(d))
	if opts.Variant == Pure {
		return 3 * math.Pow(2, exp+1) * logDn
	}
	return (1 / opts.Kappa) * math.Pow(2, exp+7) * logDn
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
