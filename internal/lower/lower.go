// Package lower implements Section 3 of the paper: the lower-bound fixture
// graph G(τ,λ,κ) (Fig. 5) and the adversary experiments behind Theorems
// 3–6, which show that any τ-round distributed algorithm emitting a spanner
// of size n^{1+δ} must, in expectation, discard a constant fraction of the
// fixture's "critical" edges and therefore suffer additive distortion that
// grows linearly with the number of bipartite blocks.
//
// The fixture consists of κ complete λ×λ bipartite blocks. The right side
// of block i is joined to the left side of block i+1 by chains: column 1 by
// a path of length τ+1 (the short chain, whose block edge (v_{L,i,1},
// v_{R,i,1}) is the critical edge), and columns 2..λ by paths of length
// τ+5. Chains of τ+1 extra vertices hang off the outer columns so that
// every block vertex's τ-neighborhood is topologically identical — which is
// what makes a τ-round algorithm unable to distinguish critical from
// non-critical block edges.
package lower

import (
	"fmt"
	"math"
	"math/rand"

	"spanner/internal/graph"
)

// Fixture is a generated G(τ,λ,κ) together with the vertex roles the
// experiments need.
type Fixture struct {
	G      *graph.Graph
	Tau    int
	Lambda int
	Kappa  int

	// Left[i][j] and Right[i][j] are the block vertices v_{L,i+1,j+1} and
	// v_{R,i+1,j+1} (0-indexed here).
	Left  [][]int32
	Right [][]int32

	// Critical lists the κ critical edges (v_{L,i,1}, v_{R,i,1}).
	Critical [][2]int32

	// SpineU/SpineV span a shortest path through every critical edge:
	// v_{L,1,1} and v_{R,κ,1}, at distance (κ−1)(τ+2)+1.
	SpineU, SpineV int32
}

// NewFixture builds G(τ,λ,κ). λ must be at least 3 so that a dropped
// critical edge has a 3-hop in-block detour, and κ at least 2.
func NewFixture(tau, lambda, kappa int) (*Fixture, error) {
	if tau < 0 {
		return nil, fmt.Errorf("lower: tau must be >= 0, got %d", tau)
	}
	if lambda < 3 {
		return nil, fmt.Errorf("lower: lambda must be >= 3, got %d", lambda)
	}
	if kappa < 2 {
		return nil, fmt.Errorf("lower: kappa must be >= 2, got %d", kappa)
	}
	n := NumVertices(tau, lambda, kappa)
	b := graph.NewBuilder(n)
	next := int32(0)
	alloc := func() int32 {
		v := next
		next++
		return v
	}

	f := &Fixture{
		Tau: tau, Lambda: lambda, Kappa: kappa,
		Left:  make([][]int32, kappa),
		Right: make([][]int32, kappa),
	}
	for i := 0; i < kappa; i++ {
		f.Left[i] = make([]int32, lambda)
		f.Right[i] = make([]int32, lambda)
		for j := 0; j < lambda; j++ {
			f.Left[i][j] = alloc()
		}
		for j := 0; j < lambda; j++ {
			f.Right[i][j] = alloc()
		}
		// Complete bipartite block.
		for jl := 0; jl < lambda; jl++ {
			for jr := 0; jr < lambda; jr++ {
				b.AddEdge(f.Left[i][jl], f.Right[i][jr])
			}
		}
	}
	// chain adds a path of `inner` new vertices between a and b (length
	// inner+1), or a dangling chain when b < 0.
	chain := func(a int32, inner int, bEnd int32) {
		prev := a
		for k := 0; k < inner; k++ {
			v := alloc()
			b.AddEdge(prev, v)
			prev = v
		}
		if bEnd >= 0 {
			b.AddEdge(prev, bEnd)
		}
	}
	for i := 0; i+1 < kappa; i++ {
		chain(f.Right[i][0], tau, f.Left[i+1][0]) // short chain, length τ+1
		for j := 1; j < lambda; j++ {
			chain(f.Right[i][j], tau+4, f.Left[i+1][j]) // length τ+5
		}
	}
	// Outer chains of τ+1 new vertices for neighborhood symmetry.
	for j := 0; j < lambda; j++ {
		chain(f.Left[0][j], tau+1, -1)
		chain(f.Right[kappa-1][j], tau+1, -1)
	}
	if int(next) != n {
		return nil, fmt.Errorf("lower: allocated %d vertices, expected %d", next, n)
	}
	f.G = b.Build()

	for i := 0; i < kappa; i++ {
		f.Critical = append(f.Critical, [2]int32{f.Left[i][0], f.Right[i][0]})
	}
	f.SpineU = f.Left[0][0]
	f.SpineV = f.Right[kappa-1][0]
	return f, nil
}

// NumVertices returns the exact vertex count of G(τ,λ,κ):
// 2λκ block vertices, (κ−1)(τ + (λ−1)(τ+4)) chain vertices, and 2λ(τ+1)
// outer-chain vertices. It satisfies the paper's bound n_τ < (κ+1)λ(τ+6).
func NumVertices(tau, lambda, kappa int) int {
	return 2*lambda*kappa +
		(kappa-1)*(tau+(lambda-1)*(tau+4)) +
		2*lambda*(tau+1)
}

// NumEdges returns the exact edge count: κλ² block edges,
// (κ−1)(τ+1 + (λ−1)(τ+5)) chain edges and 2λ(τ+1) outer-chain edges.
// It satisfies the paper's bound m_τ > κλ².
func NumEdges(tau, lambda, kappa int) int {
	return kappa*lambda*lambda +
		(kappa-1)*(tau+1+(lambda-1)*(tau+5)) +
		2*lambda*(tau+1)
}

// SpineDistance returns δ(SpineU, SpineV) = (κ−1)(τ+2) + 1.
func (f *Fixture) SpineDistance() int32 {
	return int32((f.Kappa-1)*(f.Tau+2) + 1)
}

// ExperimentResult reports one run of the symmetric-discard adversary.
type ExperimentResult struct {
	P               float64 // forced per-critical-edge discard probability
	DroppedCritical int     // critical edges actually discarded
	SpannerEdges    int     // edges kept
	DistG           int32   // δ(u,v) in the fixture
	DistH           int32   // δ_H(u,v) after discarding
	// PredictedDistH is the Theorem 3 expectation:
	// δ · (1 + 2p/(τ+2)) on the all-critical spine.
	PredictedDistH float64
	// Additive is DistH − DistG.
	Additive int32
}

// DiscardExperiment simulates the information-theoretic adversary of
// Theorem 3. A τ-round algorithm whose output has at most a 1/c fraction of
// the edges must discard each block edge with the same probability (all
// τ-neighborhoods are identical), which is at least p = 1 − 1/c − 1/(cκ);
// in particular each critical edge is discarded with probability ≥ p.
// Following the proof ("we generously assume that these are the only edges
// discarded"), this routine discards each critical edge independently with
// exactly probability p, keeps everything else, and measures the realized
// distortion between the spine endpoints: each missing critical edge is
// replaced by the 3-hop in-block detour, so δ_H(u,v) = δ(u,v) + 2·(dropped
// critical edges), whose expectation is the theorem's δ·(1 + 2p/(τ+2)).
func (f *Fixture) DiscardExperiment(c float64, rng *rand.Rand) (*ExperimentResult, error) {
	if c < 2 {
		return nil, fmt.Errorf("lower: compression factor c must be >= 2, got %v", c)
	}
	p := 1 - 1/c - 1/(c*float64(f.Kappa))
	res := &ExperimentResult{P: p}

	dropped := make(map[int64]bool, len(f.Critical))
	for _, e := range f.Critical {
		if rng.Float64() < p {
			dropped[graph.EdgeKey(e[0], e[1])] = true
			res.DroppedCritical++
		}
	}
	keep := graph.NewEdgeSet(f.G.M())
	f.G.ForEachEdge(func(u, v int32) {
		if !dropped[graph.EdgeKey(u, v)] {
			keep.Add(u, v)
		}
	})
	res.SpannerEdges = keep.Len()

	res.DistG = f.SpineDistance()
	h := keep.ToGraph(f.G.N())
	res.DistH = h.Dist(f.SpineU, f.SpineV)
	res.Additive = res.DistH - res.DistG
	res.PredictedDistH = float64(res.DistG) * (1 + 2*p/float64(f.Tau+2))
	return res, nil
}

// AverageResult reports the distortion of random vertex pairs under the
// adversary — footnote 7's claim that the lower bounds hold "in expectation
// and on the average", made concrete by Theorem 4's second statement:
// E_{u,v}[δ_H(u,v) − (1+2(1−ζ)/(τ+2))·δ(u,v)] = Ω(ζ²·τ^{-2}·n^{1−σ}).
type AverageResult struct {
	P           float64
	Pairs       int
	AvgAdditive float64 // mean δ_H − δ over the sampled pairs
	AvgDist     float64 // mean δ over the sampled pairs
	// AvgExcess is the mean of δ_H − (1 + 2p/(τ+2))·δ, Theorem 4's
	// average-case quantity (positive when distortion beats the
	// multiplicative allowance).
	AvgExcess float64
}

// AveragePairExperiment runs the critical-edge adversary once and measures
// additive distortion over `pairs` uniformly random connected vertex pairs,
// not just the worst-case spine.
func (f *Fixture) AveragePairExperiment(c float64, pairs int, rng *rand.Rand) (*AverageResult, error) {
	if c < 2 {
		return nil, fmt.Errorf("lower: compression factor c must be >= 2, got %v", c)
	}
	p := 1 - 1/c - 1/(c*float64(f.Kappa))
	dropped := make(map[int64]bool, len(f.Critical))
	for _, e := range f.Critical {
		if rng.Float64() < p {
			dropped[graph.EdgeKey(e[0], e[1])] = true
		}
	}
	keep := graph.NewEdgeSet(f.G.M())
	f.G.ForEachEdge(func(u, v int32) {
		if !dropped[graph.EdgeKey(u, v)] {
			keep.Add(u, v)
		}
	})
	h := keep.ToGraph(f.G.N())

	res := &AverageResult{P: p}
	n := f.G.N()
	allowance := 1 + 2*p/float64(f.Tau+2)
	for res.Pairs < pairs {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		dg := f.G.Dist(u, v)
		if dg == graph.Unreachable {
			continue
		}
		dh := h.Dist(u, v)
		res.Pairs++
		res.AvgAdditive += float64(dh - dg)
		res.AvgDist += float64(dg)
		res.AvgExcess += float64(dh) - allowance*float64(dg)
	}
	res.AvgAdditive /= float64(res.Pairs)
	res.AvgDist /= float64(res.Pairs)
	res.AvgExcess /= float64(res.Pairs)
	return res, nil
}

// Theorem5Fixture returns the fixture parameters the proof of Theorem 5
// uses for additive β-spanners of size n^{1+δ}: τ = √(n^{1-δ}/(4β)) − 6,
// λ = 2(τ+6)n^δ, κ = n^{1-δ}/(2(τ+6)²) = 2β. The returned fixture has
// roughly n vertices.
func Theorem5Fixture(n int, beta float64, delta float64) (*Fixture, error) {
	nf := float64(n)
	tau := int(math.Sqrt(math.Pow(nf, 1-delta)/(4*beta))) - 6
	if tau < 0 {
		tau = 0
	}
	lambda := int(2 * float64(tau+6) * math.Pow(nf, delta))
	kappa := int(2 * beta)
	if lambda < 3 {
		lambda = 3
	}
	if kappa < 2 {
		kappa = 2
	}
	return NewFixture(tau, lambda, kappa)
}

// Theorem6Fixture returns the parameters used against sublinear additive
// spanners with guarantee d + c·d^{1−μ} and size n^{1+δ}:
// τ+6 = n^{μ(1−δ)/(1+μ)}/c, λ = 4(τ+6)n^δ, κ = n^{1−δ}/(4(τ+6)²).
func Theorem6Fixture(n int, cGuarantee, mu, delta float64) (*Fixture, error) {
	nf := float64(n)
	tau6 := math.Pow(nf, mu*(1-delta)/(1+mu)) / cGuarantee
	tau := int(tau6) - 6
	if tau < 0 {
		tau = 0
	}
	lambda := int(4 * float64(tau+6) * math.Pow(nf, delta))
	kappa := int(math.Pow(nf, 1-delta) / (4 * float64(tau+6) * float64(tau+6)))
	if lambda < 3 {
		lambda = 3
	}
	if kappa < 2 {
		kappa = 2
	}
	return NewFixture(tau, lambda, kappa)
}

// MinRoundsTheorem5 returns the Theorem 5 time lower bound Ω(√(n^{1−δ}/β))
// for additive β-spanners of size n^{1+δ}.
func MinRoundsTheorem5(n int, beta, delta float64) float64 {
	return math.Sqrt(math.Pow(float64(n), 1-delta) / (4 * beta))
}

// MinRoundsTheorem6 returns the Theorem 6 time lower bound
// Ω(n^{μ(1−δ)/(1+μ)}) for sublinear additive spanners.
func MinRoundsTheorem6(n int, mu, delta float64) float64 {
	return math.Pow(float64(n), mu*(1-delta)/(1+mu))
}
