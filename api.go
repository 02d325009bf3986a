package spanner

import (
	"io"
	"math/rand"

	"spanner/internal/artifact"
	"spanner/internal/baseline"
	"spanner/internal/core"
	"spanner/internal/distsim"
	"spanner/internal/dynamic"
	"spanner/internal/emulator"
	"spanner/internal/faults"
	"spanner/internal/fibonacci"
	"spanner/internal/graph"
	"spanner/internal/lower"
	"spanner/internal/obs"
	"spanner/internal/oracle"
	"spanner/internal/partition"
	"spanner/internal/reliable"
	"spanner/internal/routing"
	"spanner/internal/seq"
	"spanner/internal/serve"
	"spanner/internal/stream"
	"spanner/internal/verify"
	"spanner/internal/wgraph"
	"spanner/internal/wire"
)

// Graph is an immutable simple undirected unweighted graph in CSR form;
// vertices are 0..N()-1. Construct with NewGraphBuilder or a generator.
type Graph = graph.Graph

// GraphBuilder accumulates edges and produces an immutable Graph.
type GraphBuilder = graph.Builder

// EdgeSet is a mutable set of undirected edges — the representation of a
// spanner. Materialize with ToGraph; query with Has/Len.
type EdgeSet = graph.EdgeSet

// Unreachable is the distance value for disconnected pairs.
const Unreachable = graph.Unreachable

// NewGraphBuilder returns a builder for a graph on n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// FromEdges builds a graph on n vertices from an edge list.
func FromEdges(n int, edges [][2]int32) *Graph { return graph.FromEdges(n, edges) }

// Graph generators (see internal/graph for details).
var (
	// Gnp returns an Erdős–Rényi random graph G(n,p).
	Gnp = graph.Gnp
	// ConnectedGnp returns G(n,p) plus a random spanning tree.
	ConnectedGnp = graph.ConnectedGnp
	// Gnm returns a uniform random graph with exactly m edges.
	Gnm = graph.Gnm
	// RandomRegular returns a random d-regular graph.
	RandomRegular = graph.RandomRegular
	// Grid returns the w×h grid graph.
	Grid = graph.Grid
	// Torus returns the w×h torus.
	Torus = graph.Torus
	// Ring returns the cycle C_n.
	Ring = graph.Ring
	// RingWithChords returns C_n plus random chords.
	RingWithChords = graph.RingWithChords
	// Circulant returns C_n(1..w): each vertex adjacent to its w nearest
	// neighbors on each side.
	Circulant = graph.Circulant
	// WattsStrogatz returns a rewired-circulant small-world graph.
	WattsStrogatz = graph.WattsStrogatz
	// Communities returns a planted-partition graph (k dense groups).
	Communities = graph.Communities
	// Hypercube returns the d-dimensional hypercube.
	Hypercube = graph.Hypercube
	// Complete returns K_n.
	Complete = graph.Complete
	// CompleteBipartite returns K_{a,b}.
	CompleteBipartite = graph.CompleteBipartite
	// Path returns the path graph on n vertices.
	Path = graph.Path
	// Star returns the star K_{1,n-1}.
	Star = graph.Star
	// RandomTree returns a random connected tree.
	RandomTree = graph.RandomTree
	// PreferentialAttachment returns a Barabási–Albert-style graph.
	PreferentialAttachment = graph.PreferentialAttachment
)

// --- Section 2: linear-size spanners and skeletons ---

// SkeletonOptions configures the Section 2 algorithm. The zero value is a
// good default (D=4, Capped variant, κ=1).
type SkeletonOptions = core.Options

// SkeletonVariant selects the termination rule.
type SkeletonVariant = core.Variant

// Skeleton variants.
const (
	// SkeletonPure runs the unmodified tower schedule (Lemmas 5/6).
	SkeletonPure = core.Pure
	// SkeletonCapped applies Theorem 2's density-triggered final rounds,
	// bounding messages to O(log^κ n) words.
	SkeletonCapped = core.Capped
)

// SkeletonResult is the outcome of BuildSkeleton.
type SkeletonResult = core.Result

// SkeletonDistributedResult is the outcome of BuildSkeletonDistributed.
type SkeletonDistributedResult = core.DistributedResult

// BuildSkeleton computes a linear-size spanner (expected size
// Dn/e + O(n log D), distortion O(2^{log* n}·log_D n)) sequentially.
func BuildSkeleton(g *Graph, opts SkeletonOptions) (*SkeletonResult, error) {
	return core.BuildSkeleton(g, opts)
}

// BuildSkeletonDistributed runs Theorem 2's message-passing protocol on the
// synchronous network simulator and reports rounds, messages and maximum
// message length alongside the spanner.
func BuildSkeletonDistributed(g *Graph, opts SkeletonOptions) (*SkeletonDistributedResult, error) {
	return core.BuildSkeletonDistributed(g, opts)
}

// SkeletonSchedule returns the deterministic Expand-call schedule that
// BuildSkeleton(Distributed) executes for an n-vertex input.
func SkeletonSchedule(n int, opts SkeletonOptions) []core.Call {
	return core.Schedule(n, opts)
}

// SkeletonSizeBound returns Lemma 6's expected-size bound Dn/e + O(n log D).
func SkeletonSizeBound(n int, d float64) float64 { return seq.SkeletonSizeBound(n, d) }

// SkeletonDistortionBound returns the analytic distortion bound for the
// given options (Lemma 5 or Theorem 2 depending on the variant).
func SkeletonDistortionBound(n int, opts SkeletonOptions) float64 {
	return core.DistortionBound(n, opts)
}

// --- Section 4: Fibonacci spanners ---

// FibonacciOptions configures the Fibonacci spanner. The zero value picks
// the sparsest admissible order log_φ log n and ε = 0.5.
type FibonacciOptions = fibonacci.Options

// FibonacciResult is the outcome of BuildFibonacci.
type FibonacciResult = fibonacci.Result

// FibonacciDistributedResult is the outcome of BuildFibonacciDistributed.
type FibonacciDistributedResult = fibonacci.DistributedResult

// FibonacciParams are the resolved sampling probabilities and radii.
type FibonacciParams = fibonacci.Params

// BuildFibonacci constructs a Fibonacci spanner sequentially: expected size
// O((o/ε)^φ · n^{1+1/(F_{o+3}-1)}) with distance-sensitive distortion
// (Theorem 7).
func BuildFibonacci(g *Graph, opts FibonacciOptions) (*FibonacciResult, error) {
	return fibonacci.Build(g, opts)
}

// BuildFibonacciDistributed constructs the same spanner by message passing
// (Sect. 4.4), with message cap O(n^{1/t}) when opts.T > 0 and the
// cessation/Las Vegas repair protocol armed.
func BuildFibonacciDistributed(g *Graph, opts FibonacciOptions) (*FibonacciDistributedResult, error) {
	return fibonacci.BuildDistributed(g, opts)
}

// CombinedResult is Corollary 1's spanner: the union of a near-maximal-
// order Fibonacci spanner and a Theorem 2 skeleton, giving the corollary's
// simultaneous distortion profile (O(log n / log log log n) everywhere plus
// the Fibonacci stages at larger distances).
type CombinedResult = fibonacci.CombinedResult

// BuildCombined constructs the Corollary 1 spanner.
func BuildCombined(g *Graph, epsilon float64, seed int64) (*CombinedResult, error) {
	return fibonacci.BuildCombined(g, epsilon, seed)
}

// FibonacciStretchBoundAt returns Theorem 7/Corollary 1's multiplicative
// stretch bound for pairs at original distance d in an order-o spanner with
// segment parameter ℓ.
func FibonacciStretchBoundAt(d int64, order, ell int) float64 {
	return fibonacci.StretchBoundAt(d, order, ell)
}

// FibonacciDistortionBoundAt returns the corresponding absolute bound on
// the spanner distance.
func FibonacciDistortionBoundAt(d int64, order, ell int) float64 {
	return fibonacci.DistortionBoundAt(d, order, ell)
}

// --- Baselines (Fig. 1 comparison) ---

// BaswanaSenResult reports a Baswana–Sen (2k−1)-spanner.
type BaswanaSenResult = baseline.BaswanaSenResult

// GreedyResult reports a greedy girth-based (2k−1)-spanner.
type GreedyResult = baseline.GreedyResult

// BaswanaSen computes a (2k−1)-spanner with expected size
// O(kn + log k · n^{1+1/k}).
func BaswanaSen(g *Graph, k int, seed int64) (*BaswanaSenResult, error) {
	return baseline.BaswanaSen(g, k, seed)
}

// BaswanaSenDistributed runs Baswana–Sen through the distributed Expand
// protocol and reports the communication metrics.
func BaswanaSenDistributed(g *Graph, k int, seed int64) (*BaswanaSenResult, Metrics, error) {
	return baseline.BaswanaSenDistributed(g, k, seed)
}

// Greedy computes the classical girth-based (2k−1)-spanner of Althöfer et
// al.; at k = log n it is the classical linear-size skeleton.
func Greedy(g *Graph, k int) (*GreedyResult, error) { return baseline.Greedy(g, k) }

// WeightedGraph is an immutable weighted undirected graph (for the weighted
// Baswana–Sen baseline, Fig. 1's first row).
type WeightedGraph = wgraph.WGraph

// WeightedGraphBuilder accumulates weighted edges.
type WeightedGraphBuilder = wgraph.Builder

// WeightedEdgeSubset is a weighted spanner under construction.
type WeightedEdgeSubset = wgraph.EdgeSubset

// WeightedBSResult reports a weighted Baswana–Sen run.
type WeightedBSResult = baseline.WeightedBSResult

// NewWeightedGraphBuilder returns a builder for a weighted graph.
func NewWeightedGraphBuilder(n int) *WeightedGraphBuilder { return wgraph.NewBuilder(n) }

// RandomWeighted returns a connected random weighted graph with weights in
// [1, maxW].
func RandomWeighted(n int, p, maxW float64, rng *rand.Rand) *WeightedGraph {
	return wgraph.RandomWeighted(n, p, maxW, rng)
}

// WeightedBaswanaSen computes a (2k−1)-spanner of a weighted graph with
// expected size O(kn + log k · n^{1+1/k}) (the paper's corrected analysis).
func WeightedBaswanaSen(g *WeightedGraph, k int, seed int64) (*WeightedBSResult, error) {
	return baseline.WeightedBaswanaSen(g, k, seed)
}

// LinearGreedy is Greedy at k = ⌈log₂ n⌉.
func LinearGreedy(g *Graph) (*GreedyResult, error) { return baseline.LinearGreedy(g) }

// BFSTree returns a shortest-path forest (the sparsest skeleton).
func BFSTree(g *Graph) *EdgeSet { return baseline.BFSTree(g) }

// --- Section 3: lower bounds ---

// LowerBoundFixture is the graph G(τ,λ,κ) of Fig. 5 with its vertex roles.
type LowerBoundFixture = lower.Fixture

// LowerBoundExperiment is one run of the symmetric-discard adversary.
type LowerBoundExperiment = lower.ExperimentResult

// NewLowerBoundFixture builds G(τ,λ,κ).
func NewLowerBoundFixture(tau, lambda, kappa int) (*LowerBoundFixture, error) {
	return lower.NewFixture(tau, lambda, kappa)
}

// Theorem5Fixture instantiates G(τ,λ,κ) with the parameters the proof of
// Theorem 5 (additive β-spanners) uses.
func Theorem5Fixture(n int, beta, delta float64) (*LowerBoundFixture, error) {
	return lower.Theorem5Fixture(n, beta, delta)
}

// Theorem6Fixture instantiates G(τ,λ,κ) with the parameters the proof of
// Theorem 6 (sublinear additive spanners) uses.
func Theorem6Fixture(n int, c, mu, delta float64) (*LowerBoundFixture, error) {
	return lower.Theorem6Fixture(n, c, mu, delta)
}

// MinRoundsTheorem5 is Theorem 5's round lower bound Ω(√(n^{1−δ}/β)) for
// additive β-spanners of size n^{1+δ}.
func MinRoundsTheorem5(n int, beta, delta float64) float64 {
	return lower.MinRoundsTheorem5(n, beta, delta)
}

// MinRoundsTheorem6 is Theorem 6's round lower bound Ω(n^{μ(1−δ)/(1+μ)})
// for sublinear additive spanners with guarantee d + O(d^{1−μ}).
func MinRoundsTheorem6(n int, mu, delta float64) float64 {
	return lower.MinRoundsTheorem6(n, mu, delta)
}

// --- Applications (Sect. 1 motivation / Sect. 5 open problems) ---

// DistanceOracle is a Thorup–Zwick approximate distance oracle: O(k)-time
// queries with stretch 2k−1 from O(k·n^{1+1/k}) expected space. The paper's
// conclusion names these as the most interesting application of spanners.
type DistanceOracle = oracle.Oracle

// NewDistanceOracle builds an oracle with stretch parameter k.
func NewDistanceOracle(g *Graph, k int, seed int64) (*DistanceOracle, error) {
	return oracle.New(g, k, seed)
}

// NewDistanceOracleDistributed builds the same oracle by message passing
// (Sect. 4.4's witness waves and pruned cluster floods) and reports the
// communication costs; with the same seed the result is identical to
// NewDistanceOracle.
func NewDistanceOracleDistributed(g *Graph, k int, seed int64) (*DistanceOracle, Metrics, error) {
	return oracle.NewDistributed(g, k, seed)
}

// DistanceLabel is a self-contained label from which approximate distances
// can be computed pairwise with stretch 2k−1 (distance labeling schemes,
// Sect. 5). Extract with DistanceOracle.Label; combine with QueryLabels.
type DistanceLabel = oracle.Label

// QueryLabels estimates the distance between two labeled vertices from
// their labels alone.
func QueryLabels(a, b *DistanceLabel) int32 { return oracle.QueryLabels(a, b) }

// RoutingScheme is a compact routing scheme with stretch 3 and expected
// Õ(√n)-word tables (Thorup–Zwick / Cowen style) — the baseline for the
// paper's closing open problem about (3−ε)-stretch routing.
type RoutingScheme = routing.Scheme

// RoutingAddress is the constant-size destination header of the scheme.
type RoutingAddress = routing.Address

// NewRoutingScheme builds routing tables for g.
func NewRoutingScheme(g *Graph, seed int64) (*RoutingScheme, error) {
	return routing.New(g, seed)
}

// Additive2Result reports an additive 2-spanner (Aingworth et al.).
type Additive2Result = baseline.Additive2Result

// Additive2 computes an additive 2-spanner with size O(n^{3/2}√log n) —
// sequentially, because Theorem 5 shows no fast distributed construction
// exists (Ω(n^{1/4}) rounds for β = 2).
func Additive2(g *Graph, seed int64) *Additive2Result { return baseline.Additive2(g, seed) }

// EmulatorResult is a Thorup–Zwick sublinear-additive emulator: a weighted
// graph (not a subgraph) whose distances never underestimate and overshoot
// only sublinearly in the distance. Theorem 6 shows these cannot be built
// quickly in the distributed model, so the construction is sequential.
type EmulatorResult = emulator.Result

// BuildEmulator constructs a k-level emulator with expected size
// O(k·n^{1+1/(2^k−1)}).
func BuildEmulator(g *Graph, k int, seed int64) (*EmulatorResult, error) {
	return emulator.Build(g, k, seed)
}

// StreamSpanner maintains a (2k−1)-spanner of an edge stream with
// O(n^{1+1/k}) kept edges (related work [5,21]).
type StreamSpanner = stream.Spanner

// NewStreamSpanner returns an empty streaming spanner over n vertices.
func NewStreamSpanner(n, k int) (*StreamSpanner, error) { return stream.New(n, k) }

// ProjectivePlaneIncidence returns the girth-6 incidence graph of PG(2,q)
// with Θ(n^{3/2}) edges — the unconditional k=2 witness of the girth
// conjecture's size lower bound (any 3-spanner keeps every edge).
func ProjectivePlaneIncidence(q int) (*Graph, error) {
	return graph.ProjectivePlaneIncidence(q)
}

// PlaneOrderFor picks the largest prime plane order fitting n vertices.
func PlaneOrderFor(n int) int { return graph.PlaneOrderFor(n) }

// BFSOutcome is the result of a distributed multi-source BFS: distances,
// owning sources, tree parents and the run's communication metrics.
type BFSOutcome = distsim.BFSResult

// DistributedBFS runs the synchronous multi-source BFS protocol on g with
// 2-word messages — the building block for broadcast/synchronizer-style
// applications; running it over a skeleton instead of the full graph trades
// a bounded round inflation for a proportional message saving.
func DistributedBFS(g *Graph, sources []int32) (*BFSOutcome, error) {
	return distsim.RunBFS(g, sources, distsim.Config{})
}

// --- Verification ---

// MeasureOptions configures Measure.
type MeasureOptions = verify.Options

// Report summarizes a spanner's size, stretch profile and validity.
type Report = verify.Report

// Measure compares a spanner edge set against its input graph: subgraph
// validity, connectivity preservation and the (sampled or exact) stretch
// profile, including the per-distance rows the Fibonacci experiments plot.
func Measure(g *Graph, s *EdgeSet, opts MeasureOptions) *Report {
	return verify.Measure(g, s, opts)
}

// --- Distributed-model types ---

// Metrics are the cost measures of a distributed run: rounds, messages,
// words, the largest message observed (in O(log n)-bit words), and the
// injected-fault tallies when a fault plan was attached.
type Metrics = distsim.Metrics

// --- Fault injection and self-healing ---

// FaultPlan is a seeded, deterministic fault-injection plan for the
// synchronous simulator: message drop/duplicate/corrupt/delay
// probabilities, failed links, and node crash schedules. Attach one via
// SkeletonOptions.Faults, FibonacciOptions.Faults,
// BaswanaSenDistOptions.Faults, or NewDistanceOracleFT. A nil or all-zero
// plan leaves runs byte-identical to the lossless model.
type FaultPlan = faults.Plan

// FaultCrash is one node's crash window inside a FaultPlan.
type FaultCrash = faults.Crash

// FaultCounters tallies injected faults by kind; found in Metrics.Faults.
type FaultCounters = faults.Counters

// ParseFaultPlan parses the CLI fault spec, a comma-separated list such as
// "drop=0.02,dup=0.01,corrupt=0.001,delay=0.05,delayrounds=3,seed=7,
// crash=17@3,crash=9@1:5,link=2-11".
func ParseFaultPlan(spec string) (*FaultPlan, error) { return faults.Parse(spec) }

// Resilience enables verifier-gated repair of a distributed build: after a
// faulty run the spanner is checked against the pipeline's stretch bound
// and healed — distributed retries on the residual subgraph, then a
// sequential rebuild, then a raw-edge fallback with the degradation
// recorded. Attach via the same Options as FaultPlan.
type Resilience = verify.Resilience

// HealReport records what verifier-gated repair did (attempts, violation
// counts, degradation); found on the distributed results as Health.
type HealReport = verify.HealReport

// RunError is the typed failure of a simulator run: a contained handler
// panic attributed to its node and round, or a run-health abort (deadline,
// stalled rounds). Extract from any distributed build error with
// AsRunError.
type RunError = distsim.RunError

// AsRunError extracts a *RunError from an error chain (nil if absent).
func AsRunError(err error) *RunError { return distsim.AsRunError(err) }

// SpannerViolatedEdges returns the graph edges whose spanner distance
// exceeds bound — the edge-certificate form of t-spanner verification.
func SpannerViolatedEdges(g *Graph, s *EdgeSet, bound int) [][2]int32 {
	return verify.ViolatedEdges(g, s, bound)
}

// BaswanaSenDistOptions is the fully-optioned configuration of a
// distributed Baswana–Sen run (seed, observability, faults, resilience).
type BaswanaSenDistOptions = baseline.DistOptions

// BaswanaSenDistributedOpts is BaswanaSenDistributed with fault injection
// and self-healing.
func BaswanaSenDistributedOpts(g *Graph, k int, opts BaswanaSenDistOptions) (*BaswanaSenResult, Metrics, error) {
	return baseline.BaswanaSenDistributedOpts(g, k, opts)
}

// --- Reliable transport, checkpointing and graceful degradation ---

// ReliablePolicy configures the reliable-delivery layer: retransmission
// timeouts (exponential backoff with deterministic jitter), retry budget,
// peer patience and heartbeat cadence. The zero value picks sensible
// defaults scaled to the graph. Attach via SkeletonOptions.Reliable,
// FibonacciOptions.Reliable, BaswanaSenDistOptions.Reliable, or
// NewDistanceOracleReliable.
type ReliablePolicy = reliable.Policy

// TransportStats tallies the reliable layer's wire activity (frames,
// retransmits, acks, duplicates suppressed, checksum drops, abandoned
// links); found in Metrics.Transport. On a clean completed run
// Delivered == Messages — the exactly-once ledger.
type TransportStats = distsim.TransportStats

// DegradationReport is the typed outcome of a gracefully-degraded build:
// the cause (link abandonment or build error), the unverified edges of the
// partial spanner, and a sampled achieved stretch. Returned on the
// distributed results when Degrade is set and the run fell short.
type DegradationReport = verify.DegradationReport

// Snapshotter is implemented by handlers whose state can be serialized at
// a round boundary, enabling engine checkpointing and Resume.
type Snapshotter = distsim.Snapshotter

// CheckpointConfig asks the engine to persist handler state every Every
// rounds into Dir; attach via the simulator Config or the pipeline
// CheckpointDir/CheckpointEvery options.
type CheckpointConfig = distsim.CheckpointConfig

// LatestCheckpoint returns the most recent checkpoint file in dir.
func LatestCheckpoint(dir string) (string, error) { return distsim.LatestCheckpoint(dir) }

// NewDistanceOracleReliable is the distributed oracle build over the
// reliable transport: every wave is wrapped in the retransmission layer so
// the build completes exactly under plan's drop/delay/duplicate/corrupt
// faults; if links are abandoned the partial result carries a
// DegradationReport instead of failing.
func NewDistanceOracleReliable(g *Graph, k int, seed int64, o *Observer, plan *FaultPlan, pol ReliablePolicy) (*DistanceOracle, Metrics, *DegradationReport, error) {
	return oracle.NewDistributedReliable(g, k, seed, o, plan, pol)
}

// NewDistanceOracleFT is the fault-tolerant distributed oracle build: waves
// run under plan (nil = lossless), and with r non-nil the oracle's spanner
// is verified against the 2k−1 bound with whole-build retries and a
// sequential fallback.
func NewDistanceOracleFT(g *Graph, k int, seed int64, o *Observer, plan *FaultPlan, r *Resilience) (*DistanceOracle, Metrics, *HealReport, error) {
	return oracle.NewDistributedFT(g, k, seed, o, plan, r)
}

// --- Observability ---

// Observer collects phase spans, engine round events and registry metrics
// from any pipeline that accepts one (SkeletonOptions.Obs,
// FibonacciOptions.Obs, the *Obs function variants). A nil *Observer is a
// valid, near-zero-cost no-op, so instrumented code needs no branches.
type Observer = obs.Observer

// ObserverSpan is an open phase; see Observer.StartSpan.
type ObserverSpan = obs.Span

// TraceEvent is one emitted observation (span start/end, point, metric).
type TraceEvent = obs.Event

// TraceSink receives events from an Observer.
type TraceSink = obs.Sink

// MemorySink buffers events in memory — for tests and programmatic
// inspection.
type MemorySink = obs.MemorySink

// JSONLSink streams events as JSON Lines to a writer.
type JSONLSink = obs.JSONLSink

// MetricsRegistry is the observer's counter/gauge/histogram registry.
type MetricsRegistry = obs.Registry

// TraceSummary is the per-phase / per-level / per-round aggregation of a
// trace, as printed by cmd/tracestats.
type TraceSummary = obs.TraceSummary

// NewObserver returns an observer fanning events out to the given sinks.
func NewObserver(sinks ...TraceSink) *Observer { return obs.New(sinks...) }

// NewMemorySink returns an in-memory event buffer.
func NewMemorySink() *MemorySink { return obs.NewMemorySink() }

// NewJSONLSink returns a sink writing one JSON object per event to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONLSink(w) }

// WriteObserverSummary prints the observer's per-phase timing table and
// metric snapshot in a human-readable form.
func WriteObserverSummary(w io.Writer, o *Observer) error {
	return obs.WriteSummary(w, o)
}

// ReadTrace parses a JSONL trace produced by a JSONLSink.
func ReadTrace(r io.Reader) ([]TraceEvent, error) { return obs.ReadTrace(r) }

// SummarizeTrace aggregates a trace into per-phase, per-level and per-round
// cost tables.
func SummarizeTrace(events []TraceEvent) *TraceSummary { return obs.Summarize(events) }

// StripTraceTimes zeroes wall-clock fields so two traces of the same seeded
// run compare equal.
func StripTraceTimes(events []TraceEvent) []TraceEvent { return obs.StripTimes(events) }

// LatencyHistogram is a lock-free log-bucketed (HDR-style) histogram with
// bounded relative quantile error and mergeable snapshots.
type LatencyHistogram = obs.Histogram

// LatencyHistSnapshot is an immutable histogram snapshot supporting
// Quantile, Merge and Sub (interval differencing).
type LatencyHistSnapshot = obs.HistSnapshot

// NewLatencyHistogram returns an empty histogram ready for concurrent use.
func NewLatencyHistogram() *LatencyHistogram { return obs.NewHistogram() }

// RequestTracer hands out request-scoped trace contexts for the serving
// stack: propagated request ids, per-phase durations, deterministic 1-in-N
// span sampling and a threshold-triggered slow-query log.
type RequestTracer = obs.ReqTracer

// RequestTrace is one request's trace context.
type RequestTrace = obs.ReqTrace

// RequestTracerConfig tunes a RequestTracer.
type RequestTracerConfig = obs.ReqTracerConfig

// RequestPhase indexes one phase of a served request's lifecycle.
type RequestPhase = obs.ReqPhase

// Request lifecycle phases, in execution order.
const (
	ReqPhaseAdmission = obs.ReqPhaseAdmission
	ReqPhaseCache     = obs.ReqPhaseCache
	ReqPhaseOracle    = obs.ReqPhaseOracle
)

// NewRequestTracer returns a tracer emitting sampled span trees into o.
func NewRequestTracer(o *Observer, cfg RequestTracerConfig) *RequestTracer {
	return obs.NewReqTracer(o, cfg)
}

// SLOMonitor tracks rolling-window availability and latency objectives with
// multi-window burn-rate alerting (spannerd's /slo endpoint).
type SLOMonitor = obs.SLOMonitor

// SLOConfig parameterizes an SLOMonitor.
type SLOConfig = obs.SLOConfig

// SLOReport is the monitor's multi-window burn-rate report.
type SLOReport = obs.SLOReport

// NewSLOMonitor returns a monitor with the given objectives.
func NewSLOMonitor(cfg SLOConfig) *SLOMonitor { return obs.NewSLOMonitor(cfg) }

// WritePrometheusMetrics renders a registry snapshot in the Prometheus text
// exposition format (what spannerd's /metricz?format=prom serves).
func WritePrometheusMetrics(w io.Writer, snap []MetricValue) error {
	return obs.WritePrometheus(w, snap)
}

// ParsePrometheusMetrics strictly parses Prometheus text exposition output;
// any malformed line is an error naming its line number.
func ParsePrometheusMetrics(r io.Reader) ([]PromMetricSample, error) {
	return obs.ParsePrometheusText(r)
}

// PromMetricSample is one parsed exposition sample.
type PromMetricSample = obs.PromSample

// MetricValue is one registry snapshot entry.
type MetricValue = obs.MetricValue

// BaswanaSenObs is BaswanaSen with observability.
func BaswanaSenObs(g *Graph, k int, seed int64, o *Observer) (*BaswanaSenResult, error) {
	return baseline.BaswanaSenObs(g, k, seed, o)
}

// BaswanaSenDistributedObs is BaswanaSenDistributed with observability.
func BaswanaSenDistributedObs(g *Graph, k int, seed int64, o *Observer) (*BaswanaSenResult, Metrics, error) {
	return baseline.BaswanaSenDistributedObs(g, k, seed, o)
}

// NewDistanceOracleDistributedObs is NewDistanceOracleDistributed with
// observability.
func NewDistanceOracleDistributedObs(g *Graph, k int, seed int64, o *Observer) (*DistanceOracle, Metrics, error) {
	return oracle.NewDistributedObs(g, k, seed, o)
}

// StreamFromGraphObs streams every edge of g through a (2k−1) streaming
// spanner with observability (stream.offered / stream.kept counters).
func StreamFromGraphObs(g *Graph, k int, o *Observer) (*StreamSpanner, error) {
	return stream.FromGraphObs(g, k, o)
}

// ReadGraph parses the plain-text edge-list format ("n <count>" header then
// "u v" lines; # comments allowed).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadGraph(r) }

// WriteEdgeSet serializes a spanner in the same edge-list format.
func WriteEdgeSet(w io.Writer, n int, s *EdgeSet) error {
	_, err := graph.WriteEdgeSetTo(w, n, s)
	return err
}

// WriteDOT emits g in Graphviz DOT format, drawing the highlight edge set
// (e.g. a spanner) bold and everything else gray. highlight may be nil.
func WriteDOT(w io.Writer, g *Graph, name string, highlight *EdgeSet) error {
	return g.WriteDOT(w, name, highlight)
}

// NewRand returns a deterministically seeded RNG, a convenience for
// reproducible experiments.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// --- Serving layer: persistent artifacts and the query engine ---

// Artifact is a completed build frozen into one loadable unit: the input
// graph, the spanner edge set, a distance oracle and a routing scheme, with
// the metadata (algorithm, k, seed) that produced them. Save/LoadArtifact
// persist it as a single checksummed file.
type Artifact = artifact.Artifact

// BuildArtifact assembles an Artifact from a graph and its spanner by
// constructing the oracle and routing scheme (deterministic given seed).
func BuildArtifact(g *Graph, spanner *EdgeSet, algo string, k int, seed int64) (*Artifact, error) {
	return artifact.Build(g, spanner, algo, k, seed)
}

// SaveArtifact writes an artifact to path atomically (temp file + rename),
// with a checksum footer verified on load.
func SaveArtifact(path string, a *Artifact) error { return artifact.Save(path, a) }

// LoadArtifact reads an artifact written by SaveArtifact. Corrupt,
// truncated or version-skewed files fail with the artifact package's typed
// errors — never a panic.
func LoadArtifact(path string) (*Artifact, error) { return artifact.Load(path) }

// MarshalArtifact encodes an artifact into the same checksummed word-stream
// form SaveArtifact writes, without touching the filesystem.
func MarshalArtifact(a *Artifact) []byte { return a.Marshal() }

// UnmarshalArtifact decodes a MarshalArtifact blob, verifying magic,
// version and checksum with the artifact package's typed errors.
func UnmarshalArtifact(data []byte) (*Artifact, error) { return artifact.Unmarshal(data) }

// --- Partitioned serving: shard one artifact across a cluster ---

// ArtifactPart is one shard of a partitioned split: the induced subgraph
// over its covered vertices (owned ∪ replicated boundary) plus the full
// spanner and routing scheme, served by spannerd -partition. Queries
// between covered vertices are answered exactly; cross-partition distances
// compose through landmark relays as flagged upper bounds.
type ArtifactPart = artifact.Part

// PartitionMap is the versioned, checksummed description of a split: the
// vertex→partition owner table plus a checksum-pinned reference to every
// part file. spannerrouter -partition-map drives a cluster from it.
type PartitionMap = artifact.PartitionMap

// SplitResult bundles a split's map and its K parts.
type SplitResult = partition.Result

// SplitArtifact partitions an artifact into k parts by grouping vertices
// around their nearest oracle landmark and replicating cut-edge endpoints
// into both sides' boundary sets. Deterministic in (a, k); seed
// distinguishes re-splits via the map's SplitID.
func SplitArtifact(a *Artifact, k int, seed int64) (*SplitResult, error) {
	return partition.Split(a, k, seed)
}

// SavePart writes one partition part to path atomically with a checksum
// footer, like SaveArtifact.
func SavePart(path string, p *ArtifactPart) error { return artifact.SavePart(path, p) }

// LoadPart reads a part written by SavePart, verifying its checksum.
func LoadPart(path string) (*ArtifactPart, error) { return artifact.LoadPart(path) }

// SavePartitionMap writes a partition map to path atomically with a
// checksum footer.
func SavePartitionMap(path string, m *PartitionMap) error { return artifact.SavePartitionMap(path, m) }

// LoadPartitionMap reads a map written by SavePartitionMap, verifying its
// checksum.
func LoadPartitionMap(path string) (*PartitionMap, error) { return artifact.LoadPartitionMap(path) }

// NewPartServeEngine builds a ServeEngine over one partition part: distance
// queries between covered vertices are bit-identical to the unpartitioned
// oracle, distances with an uncovered endpoint come back as flagged
// Composed landmark brackets, and path queries stay exact everywhere.
func NewPartServeEngine(p *ArtifactPart, cfg ServeConfig) (*ServeEngine, error) {
	return serve.NewPart(p, cfg)
}

// ServeEngine is the concurrent query engine over a loaded artifact:
// queries evaluated on the caller's goroutine behind one in-flight limit,
// partitioned per-type LRU result caches, and atomic artifact hot-swap
// under live traffic.
type ServeEngine = serve.Engine

// ServeConfig tunes a ServeEngine; the zero value picks defaults.
type ServeConfig = serve.Config

// ServeRequest is one query (type + endpoint pair + optional deadline).
type ServeRequest = serve.Request

// ServeReply is one query's outcome, stamped with the snapshot generation
// that answered it.
type ServeReply = serve.Reply

// ServeQueryType selects the table a request consults.
type ServeQueryType = serve.QueryType

// Query types.
const (
	// ServeQueryDist asks the distance oracle (stretch ≤ 2k−1).
	ServeQueryDist = serve.QueryDist
	// ServeQueryPath asks for an explicit shortest path in the spanner.
	ServeQueryPath = serve.QueryPath
	// ServeQueryRoute asks for the compact-routing hop sequence.
	ServeQueryRoute = serve.QueryRoute
)

// Typed serving errors, matchable with errors.Is.
var (
	// ErrServeOverloaded reports a query refused at the engine's in-flight
	// limit (admission control).
	ErrServeOverloaded = serve.ErrOverloaded
	// ErrServeDeadline reports a deadline that had passed when the query's
	// evaluation was due to start.
	ErrServeDeadline = serve.ErrDeadline
	// ErrServeClosed reports a query submitted after Close.
	ErrServeClosed = serve.ErrClosed
	// ErrServeNoRoute reports disconnected endpoints — a valid answer
	// about the graph, not a serving failure.
	ErrServeNoRoute = serve.ErrNoRoute
)

// NewServeEngine builds a query engine over the artifact.
func NewServeEngine(a *Artifact, cfg ServeConfig) (*ServeEngine, error) {
	return serve.New(a, cfg)
}

// WireServer serves the length-prefixed binary wire protocol over a TCP
// listener, sharing a ServeEngine (and its admission control, brownout and
// tracing) with whatever other transports front the same engine. The
// matching client lives in the public client package (client.NewWire).
type WireServer = wire.Server

// WireServerConfig configures a WireServer; Engine is required.
type WireServerConfig = wire.ServerConfig

// NewWireServer builds a wire-protocol server around cfg.Engine. Serve it
// on a listener with Serve and drain it with Shutdown.
func NewWireServer(cfg WireServerConfig) (*WireServer, error) { return wire.NewServer(cfg) }

// --- Dynamic updates: batched edge churn over a maintained spanner ---

// DynamicOp distinguishes edge insertions from deletions in an update
// stream.
type DynamicOp = dynamic.Op

// Update operations.
const (
	// DynamicInsert adds an edge to the maintained graph.
	DynamicInsert = dynamic.OpInsert
	// DynamicDelete removes an edge from the maintained graph.
	DynamicDelete = dynamic.OpDelete
)

// DynamicUpdate is one edge insertion or deletion.
type DynamicUpdate = dynamic.Update

// DynamicBatch is an ordered group of updates applied atomically: all
// deletions first, then all insertions.
type DynamicBatch = dynamic.Batch

// DynamicConfig tunes a DynamicMaintainer; the zero value derives the
// stretch bound from the initial spanner and uses default policies.
type DynamicConfig = dynamic.Config

// DynamicRebuildPolicy decides when incremental repair escalates to a full
// rebuild (size ratio, accumulated repairs, batch count).
type DynamicRebuildPolicy = dynamic.RebuildPolicy

// DynamicMaintainer holds a graph plus a spanner certified at a fixed
// stretch bound, and keeps the certificate valid across update batches:
// insertions are filtered against coverage, deletions trigger localized
// verifier-gated repair, and a rebuild policy bounds drift.
type DynamicMaintainer = dynamic.Maintainer

// DynamicBatchReport describes what one ApplyBatch did: admitted/filtered
// insertions, repair scope, rebuild escalation, and the net graph/spanner
// key diffs (the raw material of an artifact delta).
type DynamicBatchReport = dynamic.BatchReport

// UpdateStreamConfig parameterizes a seeded replayable update stream.
type UpdateStreamConfig = dynamic.StreamConfig

// Typed dynamic errors, matchable with errors.Is.
var (
	// ErrDynamicBadUpdate reports an out-of-range or self-loop update.
	ErrDynamicBadUpdate = dynamic.ErrBadUpdate
	// ErrDynamicInvalidSpanner reports an initial spanner that fails its
	// own stretch certificate.
	ErrDynamicInvalidSpanner = dynamic.ErrInvalidSpanner
)

// NewDynamicMaintainer starts incremental maintenance of spanner over g.
// Both are cloned; the maintainer owns its copies.
func NewDynamicMaintainer(g *Graph, spanner *EdgeSet, cfg DynamicConfig) (*DynamicMaintainer, error) {
	return dynamic.NewMaintainer(g, spanner, cfg)
}

// DeriveStretchBound computes the worst-case spanner distance over graph
// edges — the tightest odd-ish bound the spanner already certifies.
func DeriveStretchBound(g *Graph, spanner *EdgeSet) (int, error) {
	return dynamic.DeriveBound(g, spanner)
}

// GenerateUpdateStream produces a seeded, replayable batch stream against
// g: insertions of absent edges, deletions of present ones, tracked
// against the evolving edge set so every update is applicable in order.
func GenerateUpdateStream(g *Graph, cfg UpdateStreamConfig) ([]DynamicBatch, error) {
	return dynamic.GenerateStream(g, cfg)
}

// ParseUpdateStreamSpec parses "batches=8,size=64,insert=0.5" into a
// stream config (seed is threaded separately so one global -seed governs
// every randomized stage).
func ParseUpdateStreamSpec(spec string) (UpdateStreamConfig, error) {
	return dynamic.ParseStreamSpec(spec)
}

// UpdateLogWriter appends checksummed batch segments to an update log.
type UpdateLogWriter = dynamic.LogWriter

// CreateUpdateLog creates (truncates) an append-only update log.
func CreateUpdateLog(path string) (*UpdateLogWriter, error) {
	return dynamic.CreateLog(path)
}

// ReadUpdateLog replays an update log, returning every intact batch in
// order. A torn or corrupt tail returns the valid prefix plus a typed
// error (ErrUpdateLogTruncated and friends).
func ReadUpdateLog(path string) ([]DynamicBatch, error) {
	return dynamic.ReadLog(path)
}

// Typed update-log errors.
var (
	// ErrUpdateLogTruncated reports a torn tail (valid prefix returned).
	ErrUpdateLogTruncated = dynamic.ErrLogTruncated
	// ErrUpdateLogChecksum reports a segment failing its FNV footer.
	ErrUpdateLogChecksum = dynamic.ErrLogChecksum
)

// ArtifactDelta is a patch between two artifact generations: ordered
// checksummed segments of graph/spanner key edits bound to the base's
// checksum. Apply reproduces the target artifact byte-identically.
type ArtifactDelta = artifact.Delta

// ArtifactDeltaSegment is one batch worth of edits inside a delta.
type ArtifactDeltaSegment = artifact.DeltaSegment

// ErrDeltaBaseMismatch reports a delta applied to an artifact other than
// its base generation.
var ErrDeltaBaseMismatch = artifact.ErrBaseMismatch

// DiffArtifacts computes the single-segment delta turning base into next.
func DiffArtifacts(base, next *Artifact) (*ArtifactDelta, error) {
	return artifact.Diff(base, next)
}

// SaveDelta writes a delta atomically (temp file + rename) with a
// checksum footer.
func SaveDelta(path string, d *ArtifactDelta) error { return artifact.SaveDelta(path, d) }

// LoadDelta reads a delta written by SaveDelta; corruption yields the
// artifact package's typed errors, never a panic.
func LoadDelta(path string) (*ArtifactDelta, error) { return artifact.LoadDelta(path) }
