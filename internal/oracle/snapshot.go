package oracle

import (
	"fmt"
	"sort"

	"spanner/internal/distsim"
)

// tzNode implements distsim.Snapshotter so the cluster floods can run under
// round-boundary checkpointing (and the reliable transport's chained
// snapshots). Keys are sorted before emission so snapshots are
// deterministic.

var _ distsim.Snapshotter = (*tzNode)(nil)

// Snapshot serializes the node as a flat word stream.
func (t *tzNode) Snapshot() []int64 {
	w := make([]int64, 0, 8+2*len(t.tokens))
	flags := int64(0)
	if t.isSource {
		flags |= 1
	}
	if t.tokens != nil {
		flags |= 2
	}
	w = append(w, flags, int64(t.self), int64(t.distNext))
	keys := make([]int32, 0, len(t.tokens))
	for u := range t.tokens {
		keys = append(keys, u)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w = append(w, int64(len(keys)))
	for _, u := range keys {
		w = append(w, int64(u), int64(t.tokens[u]))
	}
	w = append(w, int64(len(t.fresh)))
	for _, u := range t.fresh {
		w = append(w, int64(u))
	}
	return w
}

// Restore rebuilds the node from a Snapshot stream.
func (t *tzNode) Restore(state []int64) error {
	r := distsim.NewSnapshotReader("oracle: snapshot", state)
	flags := r.Next()
	t.isSource = flags&1 != 0
	t.self = distsim.NodeID(r.Next())
	t.distNext = int32(r.Next())
	nTok := r.Count(2)
	t.tokens = nil
	if flags&2 != 0 {
		t.tokens = make(map[int32]int32, nTok)
	} else if nTok != 0 {
		return fmt.Errorf("oracle: nil token map with %d entries", nTok)
	}
	for range nTok {
		u := int32(r.Next())
		t.tokens[u] = int32(r.Next())
	}
	t.fresh = nil
	if nf := r.Count(1); nf > 0 {
		t.fresh = make([]int32, 0, nf)
		for range nf {
			t.fresh = append(t.fresh, int32(r.Next()))
		}
	}
	return r.Err()
}
