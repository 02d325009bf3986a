package routing

import "spanner/internal/graph"

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
