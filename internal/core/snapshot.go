package core

import (
	"fmt"
	"slices"

	"spanner/internal/distsim"
)

// skelNode checkpointing: the full protocol state — tree pointers, per-call
// scratch, death-procedure queues — serialized to a flat word stream so
// distsim round-boundary checkpoints (and the driver's call-boundary
// manifests) can restart a killed Expand run byte-identically. Set-shaped
// state is emitted sorted and without duplicates so snapshots are
// deterministic; candIdx is not serialized (it is recomputed from cands).

var _ distsim.Snapshotter = (*skelNode)(nil)

func putCand(w []int64, c skelCand) []int64 {
	return append(w, int64(c.cluster), c.tau, int64(c.u), int64(c.v))
}

// Snapshot serializes the node.
func (s *skelNode) Snapshot() []int64 {
	w := make([]int64, 0, 48)
	flags := int64(0)
	for i, b := range []bool{s.dead, s.sampledNow, s.announceDone, s.hasBest,
		s.decided, s.deathStarted, s.abortSent} {
		if b {
			flags |= 1 << i
		}
	}
	w = append(w, flags, int64(s.self), int64(s.superCenter), int64(s.cluster),
		s.clusterTau, int64(s.p1), int64(s.p2))
	w = append(w, int64(len(s.children1)))
	for _, c := range s.children1 {
		w = append(w, int64(c))
	}
	ch2 := slices.Clone(s.children2)
	slices.Sort(ch2)
	ch2 = slices.Compact(ch2)
	w = append(w, int64(len(ch2)))
	for _, c := range ch2 {
		w = append(w, int64(c))
	}
	w = append(w, s.call, int64(s.abortQ), int64(s.chunk))
	w = append(w, int64(len(s.cands)))
	for _, c := range s.cands {
		w = putCand(w, c)
	}
	w = putCand(w, s.best)
	w = append(w, int64(s.bestFromChild), int64(s.reportsLeft))
	if !s.deathSeenOn {
		w = append(w, -1)
	} else {
		seen := slices.Clone(s.deathSeen.ids)
		slices.Sort(seen)
		w = append(w, int64(len(seen)))
		for _, c := range seen {
			w = append(w, int64(c))
		}
	}
	w = append(w, int64(len(s.deathQueue)))
	for _, c := range s.deathQueue {
		w = putCand(w, c)
	}
	w = append(w, int64(s.deathDoneLeft))
	w = append(w, int64(len(s.outEdges)))
	w = append(w, s.outEdges...)
	return w
}

// Restore rebuilds the node from a Snapshot.
func (s *skelNode) Restore(state []int64) error {
	r := wordCursor{buf: state, who: "skelNode"}
	flags := r.next()
	for i, b := range []*bool{&s.dead, &s.sampledNow, &s.announceDone, &s.hasBest,
		&s.decided, &s.deathStarted, &s.abortSent} {
		*b = flags&(1<<i) != 0
	}
	s.self = distsim.NodeID(r.next())
	s.superCenter = int32(r.next())
	s.cluster = int32(r.next())
	s.clusterTau = r.next()
	s.p1 = distsim.NodeID(r.next())
	s.p2 = distsim.NodeID(r.next())
	s.children1 = s.children1[:0]
	for i, k := 0, int(r.next()); i < k; i++ {
		s.children1 = append(s.children1, distsim.NodeID(r.next()))
	}
	s.children2 = s.children2[:0]
	for i, k := 0, int(r.next()); i < k; i++ {
		s.children2 = append(s.children2, distsim.NodeID(r.next()))
	}
	s.call = r.next()
	s.abortQ = int(r.next())
	s.chunk = int(r.next())
	s.cands = s.cands[:0]
	s.candIdx.reset()
	for i, k := 0, int(r.next()); i < k; i++ {
		c := r.cand()
		s.cands = append(s.cands, c)
		s.candIdx.add(c.cluster)
	}
	s.best = r.cand()
	s.bestFromChild = distsim.NodeID(r.next())
	s.reportsLeft = int(r.next())
	nSeen := int(r.next())
	s.deathSeenOn = nSeen >= 0
	s.deathSeen.reset()
	for i := 0; i < nSeen; i++ {
		s.deathSeen.add(int32(r.next()))
	}
	s.deathQueue = s.deathQueue[:0]
	for i, k := 0, int(r.next()); i < k; i++ {
		s.deathQueue = append(s.deathQueue, r.cand())
	}
	s.deathDoneLeft = int(r.next())
	s.outEdges = s.outEdges[:0]
	for i, k := 0, int(r.next()); i < k; i++ {
		s.outEdges = append(s.outEdges, r.next())
	}
	return r.err
}

// wordCursor is a bounds-checked reader over a snapshot word stream.
type wordCursor struct {
	buf []int64
	pos int
	who string
	err error
}

func (r *wordCursor) next() int64 {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.err = fmt.Errorf("core: truncated %s snapshot (offset %d)", r.who, r.pos)
		return 0
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

func (r *wordCursor) cand() skelCand {
	return skelCand{cluster: int32(r.next()), tau: r.next(), u: int32(r.next()), v: int32(r.next())}
}
