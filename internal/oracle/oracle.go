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
	"slices"

	"spanner/internal/flatmap"
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
	// Row v of bunch maps w -> δ(v,w) for w ∈ B(v); an absent row is a
	// bunch PruneBunches dropped.
	bunch *flatmap.Rows

	// spanner holds the edge keys of Spanner, strictly increasing.
	spanner []int64
}

// newOracle returns an oracle over g with its per-level tables allocated
// and the bunches and spanner still unset.
func newOracle(g *graph.Graph, k int) *Oracle {
	return &Oracle{
		g:       g,
		k:       k,
		level:   make([]int8, g.N()),
		witness: make([][]int32, k),
		distTo:  make([][]int32, k),
	}
}

// sampleLevels draws the hierarchy A_0 ⊇ … ⊇ A_{k-1} from seed and returns
// each level's members in ascending order.
func (o *Oracle) sampleLevels(seed int64) [][]int32 {
	n, k := o.g.N(), o.k
	// Promote with probability n^{-1/k}.
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
		labels, count := o.g.ConnectedComponents()
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
	levelSets := make([][]int32, k)
	for v := int32(0); int(v) < n; v++ {
		for i := 0; i <= int(o.level[v]); i++ {
			levelSets[i] = append(levelSets[i], v)
		}
	}
	return levelSets
}

// New builds an oracle with parameter k ≥ 1. Expected preprocessing is
// O(k·m·n^{1/k}) and expected space O(k·n^{1+1/k}).
func New(g *graph.Graph, k int, seed int64) (*Oracle, error) {
	if k < 1 {
		return nil, fmt.Errorf("oracle: k must be >= 1, got %d", k)
	}
	n := g.N()
	o := newOracle(g, k)
	if n == 0 {
		o.bunch = flatmap.FromStaged(0, nil)
		return o, nil
	}
	levelSets := o.sampleLevels(seed)

	// Per level: δ(·, A_i), witnesses, and shortest-path trees into the
	// spanner.
	marks := newEdgeMarks(g)
	for i := 0; i < k; i++ {
		dist, near, parentArr := g.MultiSourceBFS(levelSets[i])
		o.distTo[i] = dist
		o.witness[i] = near
		for v := int32(0); int(v) < n; v++ {
			if dist[v] >= 1 {
				marks.add(v, parentArr[v])
			}
		}
	}

	// Bunches: for w ∈ A_i \ A_{i+1}, flood w's cluster
	// C(w) = {v : δ(v,w) < δ(v,A_{i+1})} with the pruned BFS, recording
	// distances (and path edges into the spanner). Clusters are flooded in
	// ascending w, so every vertex's entries are staged in key order. Every
	// vertex is a source at exactly one level, so one seen scratch stamped
	// by source serves every cluster without a reset.
	// A bunch holds at most n^{1/k} entries per level in expectation, so
	// one allocation of that size usually stages every entry. At k=1 a
	// bunch is the whole component, which the graph may not be; there the
	// staging grows instead.
	hint := n
	if k > 1 {
		hint = n * k * int(math.Ceil(math.Pow(float64(n), 1/float64(k))))
	}
	f := &flood{
		g:     g,
		marks: marks,
		seen:  make([]int32, n),
		queue: make([]int32, 0, n),
		stage: make([]flatmap.Staged, 0, hint),
	}
	for w := int32(0); int(w) < n; w++ {
		var nextDist []int32
		if i := int(o.level[w]); i+1 < k {
			nextDist = o.distTo[i+1]
		}
		f.cluster(w, nextDist)
	}
	o.bunch = flatmap.FromStaged(n, f.stage)
	o.spanner = marks.keys()
	return o, nil
}

// flood is the scratch of the sequential cluster floods: the bunch entries
// staged so far, the spanner edge marks, and the BFS state.
type flood struct {
	g           *graph.Graph
	marks       *edgeMarks
	seen, queue []int32
	stage       []flatmap.Staged
}

// cluster grows w's cluster with a FIFO BFS under the Thorup–Zwick
// pruning rule — y is entered at distance d only if d < δ(y, A_{i+1}),
// given by nextDist (nil at the top level) — and stages a bunch entry
// (y, w, d) plus the BFS tree edge for every vertex reached. Clusters are
// independent (pruning depends only on the vertex and its distance), so
// flooding them one at a time yields the same entries, distances and
// parents as flooding a level's sources together. seen[y] == w+1 marks y
// as reached.
func (f *flood) cluster(w int32, nextDist []int32) {
	blocked := func(x, d int32) bool {
		if nextDist == nil {
			return false
		}
		nd := nextDist[x]
		return nd != graph.Unreachable && nd <= d
	}
	if blocked(w, 0) {
		return
	}
	stamp := w + 1
	f.seen[w] = stamp
	f.stage = append(f.stage, flatmap.Staged{Row: w, Entry: flatmap.Entry{Key: w, Val: 0}})
	queue := append(f.queue[:0], w)
	for head, d := 0, int32(1); head < len(queue); d++ {
		for levelEnd := len(queue); head < levelEnd; head++ {
			x := queue[head]
			for j, y := range f.g.Neighbors(x) {
				if f.seen[y] == stamp || blocked(y, d) {
					continue
				}
				f.seen[y] = stamp
				f.stage = append(f.stage, flatmap.Staged{Row: y, Entry: flatmap.Entry{Key: w, Val: d}})
				f.marks.mark(x, j)
				queue = append(queue, y)
			}
		}
	}
	f.queue = queue
}

// edgeMarks collects a set of graph edges as marks on adjacency slots —
// slot off[x]+j stands for x's j-th neighbour — and lists them as sorted
// keys in one pass over the adjacency.
type edgeMarks struct {
	g    *graph.Graph
	off  []int32
	slot []bool
}

func newEdgeMarks(g *graph.Graph) *edgeMarks {
	n := g.N()
	m := &edgeMarks{g: g, off: make([]int32, n+1), slot: make([]bool, 2*g.M())}
	for v := int32(0); int(v) < n; v++ {
		m.off[v+1] = m.off[v] + int32(g.Degree(v))
	}
	return m
}

// mark adds the edge from x to its j-th neighbour.
func (m *edgeMarks) mark(x int32, j int) { m.slot[int(m.off[x])+j] = true }

// add adds the edge (u, v), which must be a graph edge.
func (m *edgeMarks) add(u, v int32) {
	j, _ := slices.BinarySearch(m.g.Neighbors(u), v)
	m.mark(u, j)
}

// has reports whether the edge (u, v) is marked from either end.
func (m *edgeMarks) has(u, v int32) bool {
	i, _ := slices.BinarySearch(m.g.Neighbors(u), v)
	j, _ := slices.BinarySearch(m.g.Neighbors(v), u)
	return m.slot[int(m.off[u])+i] || m.slot[int(m.off[v])+j]
}

// keys returns the marked edges' keys in ascending order. Walking u
// upwards, the edges (u, v) with v > u arrive in key order, and each v
// sees its lower neighbours u in ascending order — the prefix of its
// sorted list — so a cursor per vertex finds the reverse slot.
func (m *edgeMarks) keys() []int64 {
	keys := make([]int64, 0, m.g.M())
	cur := slices.Clone(m.off)
	for u := int32(0); int(u) < m.g.N(); u++ {
		base := int(m.off[u])
		for j, v := range m.g.Neighbors(u) {
			if v < u {
				continue
			}
			back := cur[v]
			cur[v]++
			if m.slot[base+j] || m.slot[back] {
				keys = append(keys, graph.EdgeKey(u, v))
			}
		}
	}
	return keys
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
		if dv, ok := o.bunch.Get(v, w); ok {
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
func (o *Oracle) Size() int { return o.bunch.Len() }

// Spanner returns the union of the oracle's shortest-path forests and
// bunch paths: a (2k−1)-spanner of expected size O(k·n^{1+1/k}). The set
// is built on each call from the oracle's sorted edge keys.
func (o *Oracle) Spanner() *graph.EdgeSet {
	s := graph.NewEdgeSet(len(o.spanner))
	for _, key := range o.spanner {
		s.AddKey(key)
	}
	return s
}

// PruneBunches returns a copy of the oracle whose bunches are kept only for
// vertices where keep[v] is true; every other bunch is dropped. The witness
// and distance tables and the spanner are shared (they are never mutated
// after New), so the copy costs O(n) plus the retained bunch entries.
// Query(u,v) on the pruned copy is bit-identical to the original whenever
// both endpoints' bunches were kept — the Thorup–Zwick walk reads only the
// bunches of u and v and the global witness/distance rows of u and v.
// Queries touching a pruned endpoint are not meaningful (the lookups are
// safe but can report Unreachable for connected pairs); callers must route
// such pairs elsewhere.
func (o *Oracle) PruneBunches(keep []bool) *Oracle {
	p := *o
	p.bunch = o.bunch.Prune(keep)
	return &p
}

// Covered reports whether vertex v's bunch is present (i.e. survived any
// PruneBunches call); only pairs of covered vertices get exact answers.
func (o *Oracle) Covered(v int32) bool {
	return v >= 0 && int(v) < o.bunch.N() && o.bunch.Present(v)
}
