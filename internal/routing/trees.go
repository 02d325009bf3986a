package routing

import (
	"math/bits"

	"spanner/internal/graph"
)

// This file holds the kernel behind the landmark trees: a multi-source,
// bit-parallel BFS (MS-BFS, Then et al., PVLDB 2014). A sweep runs 64
// landmarks at once, tree i of the sweep on bit i, keeping per vertex one
// uint64 each of frontier, next-frontier and seen bits, so one pass over a
// vertex's neighbours advances all 64 searches. A sweep costs
// O(L·(n+m)) for depth L, against 64 single-source searches at O(n+m)
// each.

// sweepWidth is the number of landmarks one sweep searches from.
const sweepWidth = 64

// landmarkTrees writes every tree's parent and depth rows and numbers it.
// trees[i] is landmarks[i]'s tree, fresh from the slab; reach[i] is the
// number of vertices in landmarks[i]'s connected component, which ends its
// search as soon as it has reached them all, without a last level that
// finds nothing.
//
// Each level pulls: a vertex not yet seen by every live search scans its
// neighbours for frontier bits. The scan is cyclic over the sorted
// neighbour list and starts at index v mod deg(v), so the first neighbour
// to show a search's frontier bit becomes v's parent in that tree; the
// start depends only on v, so one scan serves the whole sweep, and it stops
// once every search still missing v has found it. Vertices reached at a
// level join their tree's order in ascending id, which is the order the
// numbering wants.
func landmarkTrees(g *graph.Graph, landmarks []int32, trees []tree, reach []int) {
	n := g.N()
	front := make([]uint64, n)
	next := make([]uint64, n)
	seen := make([]uint64, n)
	orders := make([]int32, min(sweepWidth, len(landmarks))*n)
	var order [sweepWidth][]int32
	for lo := 0; lo < len(landmarks); lo += sweepWidth {
		src := landmarks[lo:min(lo+sweepWidth, len(landmarks))]
		ts, want := trees[lo:lo+len(src)], reach[lo:lo+len(src)]
		clear(front)
		clear(seen)
		var live uint64
		for i, l := range src {
			b := uint64(1) << i
			front[l] |= b
			seen[l] |= b
			ts[i].parent[l], ts[i].depth[l] = l, 0
			order[i] = append(orders[i*n:i*n:(i+1)*n], l)
			if want[i] > 1 {
				live |= b
			}
		}
		for level := int32(1); live != 0; level++ {
			var reached uint64
			for y := range seen {
				need := live &^ seen[y]
				ns := g.Neighbors(int32(y))
				if need == 0 || len(ns) == 0 {
					next[y] = 0
					continue
				}
				start := y % len(ns)
				got := pull(ns[start:], front, need, 0, ts, y)
				if got != need {
					got = pull(ns[:start], front, need, got, ts, y)
				}
				next[y] = got
				seen[y] |= got
				reached |= got
				for ; got != 0; got &= got - 1 {
					i := bits.TrailingZeros64(got)
					ts[i].depth[y] = level
					order[i] = append(order[i], int32(y))
				}
			}
			front, next = next, front
			// A level that reaches nothing also ends a search, so a wrong
			// count cannot keep it running.
			live &= reached
			for b := live; b != 0; b &= b - 1 {
				if i := bits.TrailingZeros64(b); len(order[i]) == want[i] {
					live &^= 1 << i
				}
			}
		}
		for i := range src {
			tr := &ts[i]
			if len(order[i]) < n {
				for v, m := range seen {
					if m>>i&1 == 0 {
						tr.parent[v], tr.depth[v] = graph.Unreachable, graph.Unreachable
					}
				}
			}
			tr.number(order[i])
		}
	}
}

// pull scans part, a stretch of y's neighbours, for the frontier bits of
// the searches in need that got does not hold yet. Each bit's first
// neighbour becomes y's parent in that search's tree. It returns got with
// the bits found, and stops once got holds all of need.
func pull(part []int32, front []uint64, need, got uint64, ts []tree, y int) uint64 {
	for _, x := range part {
		f := front[x] & need &^ got
		if f == 0 {
			continue
		}
		got |= f
		for ; f != 0; f &= f - 1 {
			ts[bits.TrailingZeros64(f)].parent[y] = x
		}
		if got == need {
			break
		}
	}
	return got
}

// number computes the DFS numbering and subtree intervals [dfs, end] from
// the parent row. order lists the tree's vertices root first, every vertex
// after its parent and every vertex's children in ascending id among
// themselves — a level order ascending within each level, or a FIFO walk
// over ascending child lists. Subtree sizes accumulate in reverse order;
// then each vertex's children take consecutive preorder ranges in
// ascending id. That is the numbering a depth-first walk visiting children
// in ascending order gives, a function of the parent row alone. Vertices
// outside order get graph.Unreachable. The tree's arrays must be fresh from
// the slab: end doubles as the size accumulator, which starts at zero.
func (tr *tree) number(order []int32) {
	size := tr.end
	for i := len(order) - 1; i > 0; i-- {
		v := order[i]
		size[v]++
		size[tr.parent[v]] += size[v]
	}
	if len(order) < len(tr.dfs) {
		for v := range tr.dfs {
			tr.dfs[v] = graph.Unreachable
			if size[v] == 0 {
				tr.end[v] = graph.Unreachable
			}
		}
	}
	// While v's children are being handed their ranges, end[v] is the last
	// index handed out in v's subtree so far; after the last child it is
	// v's final end.
	root := order[0]
	tr.dfs[root], tr.end[root], tr.pre[0] = 0, 0, root
	for _, v := range order[1:] {
		p := tr.parent[v]
		d := tr.end[p] + 1
		tr.end[p] += size[v]
		tr.dfs[v], tr.end[v], tr.pre[d] = d, d, v
	}
}
