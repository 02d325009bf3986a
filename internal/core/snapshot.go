package core

import (
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
	r := distsim.NewSnapshotReader("core: skelNode snapshot", state)
	flags := r.Next()
	for i, b := range []*bool{&s.dead, &s.sampledNow, &s.announceDone, &s.hasBest,
		&s.decided, &s.deathStarted, &s.abortSent} {
		*b = flags&(1<<i) != 0
	}
	s.self = distsim.NodeID(r.Next())
	s.superCenter = int32(r.Next())
	s.cluster = int32(r.Next())
	s.clusterTau = r.Next()
	s.p1 = distsim.NodeID(r.Next())
	s.p2 = distsim.NodeID(r.Next())
	s.children1 = s.children1[:0]
	for range r.Count(1) {
		s.children1 = append(s.children1, distsim.NodeID(r.Next()))
	}
	s.children2 = s.children2[:0]
	for range r.Count(1) {
		s.children2 = append(s.children2, distsim.NodeID(r.Next()))
	}
	s.call = r.Next()
	s.abortQ = int(r.Next())
	s.chunk = int(r.Next())
	s.cands = s.cands[:0]
	s.candIdx.reset()
	for range r.Count(4) {
		c := readCand(&r)
		s.cands = append(s.cands, c)
		s.candIdx.add(c.cluster)
	}
	s.best = readCand(&r)
	s.bestFromChild = distsim.NodeID(r.Next())
	s.reportsLeft = int(r.Next())
	// -1 marks an unset death record; otherwise the word counts its ids.
	nSeen := r.Next()
	s.deathSeenOn = nSeen >= 0
	s.deathSeen.reset()
	if s.deathSeenOn {
		for range r.Fit(nSeen, 1) {
			s.deathSeen.add(int32(r.Next()))
		}
	}
	s.deathQueue = s.deathQueue[:0]
	for range r.Count(4) {
		s.deathQueue = append(s.deathQueue, readCand(&r))
	}
	s.deathDoneLeft = int(r.Next())
	s.outEdges = s.outEdges[:0]
	for range r.Count(1) {
		s.outEdges = append(s.outEdges, r.Next())
	}
	return r.Err()
}

// readCand reads a candidate written by putCand.
func readCand(r *distsim.SnapshotReader) skelCand {
	return skelCand{cluster: int32(r.Next()), tau: r.Next(), u: int32(r.Next()), v: int32(r.Next())}
}
