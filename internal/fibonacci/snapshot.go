package fibonacci

import (
	"fmt"
	"sort"

	"spanner/internal/distsim"
)

// Round-boundary checkpointing of the ball/commit waves: fibNode implements
// distsim.Snapshotter so a wave wrapped in the reliable transport (or run
// bare) can be persisted every K rounds and resumed byte-identically.

var _ distsim.Snapshotter = (*fibNode)(nil)

// Snapshot serializes the node as a flat word stream. Map iteration order
// never leaks: keys are sorted before emission.
func (f *fibNode) Snapshot() []int64 {
	w := make([]int64, 0, 16+3*len(f.tokens)+len(f.outEdges))
	flags := int64(0)
	for i, b := range []bool{f.isSource, f.isOwner, f.ceased, f.repairing, f.sawCease, f.detectFail} {
		if b {
			flags |= 1 << i
		}
	}
	w = append(w, flags, int64(f.self), f.radius, int64(f.distNext), int64(f.msgCap),
		int64(f.stage), int64(f.ceaseStep), f.repairBudget)
	toks := make([]int32, 0, len(f.tokens))
	for u := range f.tokens {
		toks = append(toks, u)
	}
	sort.Slice(toks, func(i, j int) bool { return toks[i] < toks[j] })
	hasTokens := int64(0)
	if f.tokens != nil {
		hasTokens = 1
	}
	w = append(w, hasTokens, int64(len(toks)))
	for _, u := range toks {
		ti := f.tokens[u]
		w = append(w, int64(u), int64(ti.d), int64(ti.via))
	}
	ceases := make([]int64, 0, len(f.ceaseForwarded))
	for k := range f.ceaseForwarded {
		ceases = append(ceases, k)
	}
	sort.Slice(ceases, func(i, j int) bool { return ceases[i] < ceases[j] })
	w = append(w, int64(len(ceases)))
	w = append(w, ceases...)
	committed := make([]int32, 0, len(f.committed))
	for u := range f.committed {
		committed = append(committed, u)
	}
	sort.Slice(committed, func(i, j int) bool { return committed[i] < committed[j] })
	w = append(w, int64(len(committed)))
	for _, u := range committed {
		w = append(w, int64(u))
	}
	w = append(w, int64(len(f.outEdges)))
	w = append(w, f.outEdges...)
	return w
}

// Restore rebuilds the node from a Snapshot stream.
func (f *fibNode) Restore(state []int64) error {
	r := distsim.NewSnapshotReader("fibonacci: snapshot", state)
	flags := r.Next()
	f.isSource = flags&1 != 0
	f.isOwner = flags&2 != 0
	f.ceased = flags&4 != 0
	f.repairing = flags&8 != 0
	f.sawCease = flags&16 != 0
	f.detectFail = flags&32 != 0
	f.self = distsim.NodeID(r.Next())
	f.radius = r.Next()
	f.distNext = int32(r.Next())
	f.msgCap = int(r.Next())
	f.stage = fibStage(r.Next())
	f.ceaseStep = int32(r.Next())
	f.repairBudget = r.Next()
	f.tokens = nil
	if r.Next() == 1 {
		nTok := r.Count(3)
		f.tokens = make(map[int32]tokenInfo, nTok)
		for range nTok {
			u := int32(r.Next())
			f.tokens[u] = tokenInfo{d: int32(r.Next()), via: int32(r.Next())}
		}
	} else if n := r.Next(); n != 0 {
		return fmt.Errorf("fibonacci: nil token map with %d entries", n)
	}
	f.ceaseForwarded = nil
	if nc := r.Count(1); nc > 0 {
		f.ceaseForwarded = make(map[int64]bool, nc)
		for range nc {
			f.ceaseForwarded[r.Next()] = true
		}
	}
	f.committed = nil
	if nm := r.Count(1); nm > 0 {
		f.committed = make(map[int32]bool, nm)
		for range nm {
			f.committed[int32(r.Next())] = true
		}
	}
	f.outEdges = f.outEdges[:0]
	if ne := r.Count(1); ne > 0 {
		f.outEdges = make([]int64, 0, ne)
		for range ne {
			f.outEdges = append(f.outEdges, r.Next())
		}
	}
	return r.Err()
}
