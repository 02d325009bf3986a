// Package oracle implements Thorup–Zwick approximate distance oracles
// [38], the application the paper's introduction and conclusion repeatedly
// motivate ("Perhaps the most interesting applications of spanners are in
// constructing distance labeling schemes, approximate distance oracles, and
// compact routing tables", Sect. 5). The oracle machinery is the sampling
// hierarchy + pruned-ball technique the Fibonacci spanner generalizes, so
// it doubles as an integration test of the same ideas in their classical
// form: stretch 2k−1 with O(k·n^{1+1/k}) expected space.
//
// The implementation also exposes the overlap with spanners directly:
// Spanner() returns the union of the oracle's shortest-path trees and
// bunches, a (2k−1)-spanner of the same size class.
package oracle

import (
	"fmt"
	"math"
	"math/rand"

	"spanner/internal/graph"
)

// Oracle answers approximate distance queries in O(k) time with stretch
// at most 2k−1.
type Oracle struct {
	g *graph.Graph
	k int

	// level[v] = largest i with v ∈ A_i (A_0 = V ⊇ A_1 ⊇ … ⊇ A_{k-1};
	// A_k = ∅).
	level []int8
	// parent p_i(v): witness[i][v] is the nearest A_i vertex and
	// distTo[i][v] = δ(v, A_i); graph.Unreachable when A_i misses v's
	// component.
	witness [][]int32
	distTo  [][]int32
	// bunch[v] maps w -> δ(v,w) for w ∈ B(v).
	bunch []map[int32]int32

	spanner *graph.EdgeSet
}

// New builds an oracle with parameter k ≥ 1. Expected preprocessing is
// O(k·m·n^{1/k}) and expected space O(k·n^{1+1/k}).
func New(g *graph.Graph, k int, seed int64) (*Oracle, error) {
	if k < 1 {
		return nil, fmt.Errorf("oracle: k must be >= 1, got %d", k)
	}
	n := g.N()
	o := &Oracle{
		g:       g,
		k:       k,
		level:   make([]int8, n),
		witness: make([][]int32, k),
		distTo:  make([][]int32, k),
		bunch:   make([]map[int32]int32, n),
		spanner: graph.NewEdgeSet(2 * n),
	}
	if n == 0 {
		return o, nil
	}
	// Sample the hierarchy: promote with probability n^{-1/k}.
	rng := rand.New(rand.NewSource(seed))
	p := math.Pow(float64(n), -1/float64(k))
	for v := 0; v < n; v++ {
		lvl := int8(0)
		for i := 1; i < k; i++ {
			if rng.Float64() < p {
				lvl = int8(i)
			} else {
				break
			}
		}
		o.level[v] = lvl
	}
	// Guarantee A_{k-1} hits every connected component (Thorup–Zwick
	// assume A_{k-1} ≠ ∅ on a connected graph; per-component promotion of
	// the minimum vertex generalizes that and preserves every stretch
	// guarantee — promotions only shrink distances to the sets).
	if k > 1 {
		labels, count := g.ConnectedComponents()
		hit := make([]bool, count)
		for v := 0; v < n; v++ {
			if o.level[v] == int8(k-1) {
				hit[labels[v]] = true
			}
		}
		for v := 0; v < n; v++ {
			if !hit[labels[v]] {
				hit[labels[v]] = true
				o.level[v] = int8(k - 1)
			}
		}
	}

	// Per level: δ(·, A_i), witnesses, and shortest-path trees into the
	// spanner.
	levelSets := make([][]int32, k)
	for v := int32(0); int(v) < n; v++ {
		for i := 0; i <= int(o.level[v]); i++ {
			levelSets[i] = append(levelSets[i], v)
		}
	}
	for i := 0; i < k; i++ {
		dist, near, parentArr := g.MultiSourceBFS(levelSets[i])
		o.distTo[i] = dist
		o.witness[i] = near
		for v := int32(0); int(v) < n; v++ {
			if dist[v] >= 1 {
				o.spanner.Add(v, parentArr[v])
			}
		}
	}

	// Bunches: for w ∈ A_i \ A_{i+1}, flood w's cluster
	// C(w) = {v : δ(v,w) < δ(v,A_{i+1})} with the pruned BFS, recording
	// distances (and path edges into the spanner). Every vertex is a source
	// at exactly one level, so one seen scratch stamped by source serves
	// every level without a reset.
	seen := make([]int32, n)
	queue := make([]int32, 0, n)
	for i := 0; i < k; i++ {
		var nextDist []int32
		if i+1 < k {
			nextDist = o.distTo[i+1]
		}
		for _, w := range levelSets[i] {
			if int(o.level[w]) == i {
				queue = o.floodCluster(w, nextDist, seen, queue)
			}
		}
	}
	return o, nil
}

// floodCluster grows w's cluster with a FIFO BFS under the Thorup–Zwick
// pruning rule — y is entered at distance d only if d < δ(y, A_{i+1}),
// given by nextDist (nil at the top level) — and records a bunch entry
// plus the BFS tree edge for every vertex reached. Clusters are
// independent (pruning depends only on the vertex and its distance), so
// flooding them one at a time yields the same entries, distances and
// parents as flooding a level's sources together. seen[y] == w+1 marks y
// as reached; queue is scratch and is returned for reuse.
func (o *Oracle) floodCluster(w int32, nextDist, seen, queue []int32) []int32 {
	blocked := func(x, d int32) bool {
		if nextDist == nil {
			return false
		}
		nd := nextDist[x]
		return nd != graph.Unreachable && nd <= d
	}
	if blocked(w, 0) {
		return queue
	}
	stamp := w + 1
	seen[w] = stamp
	o.addBunch(w, w, 0)
	queue = append(queue[:0], w)
	for head, d := 0, int32(1); head < len(queue); d++ {
		for levelEnd := len(queue); head < levelEnd; head++ {
			x := queue[head]
			for _, y := range o.g.Neighbors(x) {
				if seen[y] == stamp || blocked(y, d) {
					continue
				}
				seen[y] = stamp
				o.addBunch(y, w, d)
				o.spanner.Add(y, x)
				queue = append(queue, y)
			}
		}
	}
	return queue
}

// addBunch records w ∈ B(x) at distance d.
func (o *Oracle) addBunch(x, w, d int32) {
	if o.bunch[x] == nil {
		o.bunch[x] = make(map[int32]int32, 4)
	}
	o.bunch[x][w] = d
}

// Query returns an estimate of δ(u,v) with stretch at most 2k−1, or
// graph.Unreachable when u and v are disconnected. The classic
// Thorup–Zwick walk: climb witnesses, swapping the roles of u and v each
// level, until the current witness lands in the other endpoint's bunch.
func (o *Oracle) Query(u, v int32) int32 {
	if u == v {
		return 0
	}
	w := u
	i := 0
	for {
		if dv, ok := o.bunch[v][w]; ok {
			return o.distTo[i][u] + dv
		}
		i++
		if i >= o.k {
			return graph.Unreachable
		}
		u, v = v, u
		w = o.witness[i][u]
		if w == graph.Unreachable {
			return graph.Unreachable
		}
	}
}

// K returns the oracle's stretch parameter.
func (o *Oracle) K() int { return o.k }

// Size returns the number of stored bunch entries (the space term
// O(k·n^{1+1/k}) up to the per-entry constant).
func (o *Oracle) Size() int {
	total := 0
	for _, b := range o.bunch {
		total += len(b)
	}
	return total
}

// Spanner returns the union of the oracle's shortest-path forests and
// bunch paths: a (2k−1)-spanner of expected size O(k·n^{1+1/k}).
func (o *Oracle) Spanner() *graph.EdgeSet { return o.spanner }

// PruneBunches returns a copy of the oracle whose bunches are kept only for
// vertices where keep[v] is true; every other bunch becomes nil. The witness
// and distance tables are shared (they are never mutated after New), so the
// copy costs O(n) plus the retained bunch maps. Query(u,v) on the pruned
// copy is bit-identical to the original whenever both endpoints' bunches
// were kept — the Thorup–Zwick walk reads only bunch[u], bunch[v] and the
// global witness/distance rows of u and v. Queries touching a pruned
// endpoint are not meaningful (the nil-map lookups are safe but can report
// Unreachable for connected pairs); callers must route such pairs elsewhere.
func (o *Oracle) PruneBunches(keep []bool) *Oracle {
	n := o.g.N()
	p := &Oracle{
		g:       o.g,
		k:       o.k,
		level:   o.level,
		witness: o.witness,
		distTo:  o.distTo,
		bunch:   make([]map[int32]int32, n),
		spanner: o.spanner,
	}
	for v := 0; v < n; v++ {
		if v < len(keep) && keep[v] {
			p.bunch[v] = o.bunch[v]
		}
	}
	return p
}

// Covered reports whether vertex v's bunch is present (i.e. survived any
// PruneBunches call); only pairs of covered vertices get exact answers.
func (o *Oracle) Covered(v int32) bool {
	return v >= 0 && int(v) < len(o.bunch) && o.bunch[v] != nil
}
