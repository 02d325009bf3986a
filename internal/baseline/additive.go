package baseline

import (
	"math"
	"math/rand"

	"spanner/internal/graph"
)

// Additive2Result reports an additive 2-spanner run.
type Additive2Result struct {
	Spanner *graph.EdgeSet
	// Threshold is the degree cutoff √(n·ln n) separating "light" vertices
	// (all edges kept) from "heavy" ones (covered by dominators).
	Threshold int
	// Dominators are the sampled BFS roots covering heavy neighborhoods.
	Dominators []int32
	// SizeBound is the O(n^{3/2}·√log n) size bound.
	SizeBound float64
}

// Additive2 computes an additive 2-spanner with size O(n^{3/2}√(log n)),
// following Aingworth, Chekuri, Indyk and Motwani [3] (also [17,22]): keep
// every edge incident to a vertex of degree below s = √(n ln n); sample a
// dominating set that, with high probability, hits the neighborhood of
// every high-degree vertex; and add a full BFS tree from each dominator.
//
// For any pair (u,v): if a shortest path avoids heavy vertices it survives
// verbatim; otherwise some heavy x on it has an adjacent dominator w, and
// routing through w's BFS tree costs δ(u,x)+1 + 1+δ(x,v) = δ(u,v)+2.
//
// The paper's Theorem 5 shows exactly this object cannot be built quickly
// in a distributed network: Ω(n^{1/4}) rounds for β = 2 — which is why it
// appears here as a sequential baseline only.
func Additive2(g *graph.Graph, seed int64) *Additive2Result {
	n := g.N()
	res := &Additive2Result{Spanner: graph.NewEdgeSet(2 * n)}
	if n == 0 {
		return res
	}
	nf := float64(n)
	logn := math.Log(nf)
	if logn < 1 {
		logn = 1
	}
	s := int(math.Sqrt(nf * logn))
	if s < 1 {
		s = 1
	}
	res.Threshold = s
	// ≈ 3√(n ln n) dominator trees of ≤ n−1 edges plus n·s light edges.
	res.SizeBound = 4*math.Pow(nf, 1.5)*math.Sqrt(logn) + nf*float64(s)

	// Light vertices keep all incident edges.
	heavy := make([]bool, n)
	anyHeavy := false
	for v := int32(0); int(v) < n; v++ {
		if g.Degree(v) < s {
			for _, w := range g.Neighbors(v) {
				res.Spanner.Add(v, w)
			}
		} else {
			heavy[v] = true
			anyHeavy = true
		}
	}
	if !anyHeavy {
		return res
	}

	// Random dominating set: sampling each vertex with probability
	// min(1, 3 ln n / s) hits every ≥s-neighborhood w.h.p.; any survivor
	// is patched greedily so the additive-2 guarantee is deterministic.
	rng := rand.New(rand.NewSource(seed))
	p := 3 * logn / float64(s)
	sampled := make([]bool, n)
	for v := 0; v < n; v++ {
		if rng.Float64() < p {
			sampled[v] = true
			res.Dominators = append(res.Dominators, int32(v))
		}
	}
	for v := int32(0); int(v) < n; v++ {
		if !heavy[v] {
			continue
		}
		covered := false
		for _, w := range g.Neighbors(v) {
			if sampled[w] {
				covered = true
				break
			}
		}
		if !covered {
			// Patch: promote v's minimum neighbor.
			w := g.Neighbors(v)[0]
			sampled[w] = true
			res.Dominators = append(res.Dominators, w)
		}
	}

	// One BFS tree per dominator, over one reused scratch.
	dist, parent := make([]int32, n), make([]int32, n)
	var reached []int32
	for _, w := range res.Dominators {
		reached = g.BFSInto(w, dist, parent, reached)
		for _, v := range reached {
			res.Spanner.Add(v, parent[v]) // the root's self-loop is ignored
		}
	}
	// Dominators must also reach their heavy neighbors directly (the +1
	// hop of the argument).
	for v := int32(0); int(v) < n; v++ {
		if !heavy[v] {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if sampled[w] {
				res.Spanner.Add(v, w)
				break
			}
		}
	}
	return res
}
