package serve

import (
	"spanner/internal/artifact"
	"spanner/internal/graph"
)

// Snapshot is one immutable serving generation: a loaded artifact plus the
// derived read-only structures queries touch — the spanner materialized as
// a CSR graph for path queries, and the routing scheme's landmark distance
// rows. Everything in a snapshot is built once at load/swap
// time and only read afterwards, which is what makes lock-free sharing
// across concurrent callers (and the atomic hot-swap) safe.
type Snapshot struct {
	// ID is the engine-assigned generation number, monotonically increasing
	// across swaps. Replies carry it so clients can tell which generation
	// answered.
	ID int64
	// Art is the loaded build artifact.
	Art *artifact.Artifact

	// spanner is Art.Spanner materialized as a graph, the structure Path
	// queries search.
	spanner *graph.Graph
	// lmDist[t][v] is the distance from v to routing landmark t — the
	// depth rows the scheme keeps from building or decoding its trees, so
	// Route replies attach the landmark-route bound without per-query tree
	// walks.
	lmDist [][]int32
	// part, when non-nil, marks this snapshot as one partition of a split:
	// distance queries with an uncovered endpoint are answered as composed
	// landmark bounds, and route queries are refused (the part graph lacks
	// the foreign edges routing tables assume).
	part *artifact.Part
}

func newSnapshot(a *artifact.Artifact) *Snapshot {
	return &Snapshot{
		Art:     a,
		spanner: a.Spanner.ToGraph(a.Graph.N()),
		lmDist:  a.Routing.LandmarkDistances(),
	}
}

func newPartSnapshot(p *artifact.Part) *Snapshot {
	s := newSnapshot(p.Art)
	s.part = p
	return s
}

// Part returns the partition this snapshot serves, or nil for a whole-graph
// snapshot.
func (s *Snapshot) Part() *artifact.Part { return s.part }

// Covered reports whether dist queries touching v are exact on this
// snapshot: always for whole-graph snapshots, only for the partition's
// owned ∪ boundary set on part snapshots.
func (s *Snapshot) Covered(v int32) bool {
	return s.part == nil || s.part.Covered(v)
}

// ComposeDist returns the landmark-relay bracket on dist(u,v): upper is
// min over every landmark tree t of d(u,t)+d(t,v) — a true upper bound,
// within 2·min(δ(u,L), δ(v,L)) of the exact distance — and lower is the
// triangle-inequality certificate max_t |d(u,t)−d(t,v)| ≤ dist(u,v). The
// landmark distance rows are global (every part carries the full routing
// scheme), so the bracket is exact even on a pruned part snapshot. Returns
// (graph.Unreachable, 0) when no landmark reaches both endpoints.
func (s *Snapshot) ComposeDist(u, v int32) (upper, lower int32) {
	const inf = int32(1<<31 - 1)
	upper, lower = inf, 0
	for t := range s.lmDist {
		du, dv := s.lmDist[t][u], s.lmDist[t][v]
		if du == graph.Unreachable || dv == graph.Unreachable {
			continue
		}
		if du+dv < upper {
			upper = du + dv
		}
		diff := du - dv
		if diff < 0 {
			diff = -diff
		}
		if diff > lower {
			lower = diff
		}
	}
	if upper == inf {
		return graph.Unreachable, 0
	}
	return upper, lower
}

// N returns the vertex count of the snapshot's graph.
func (s *Snapshot) N() int { return s.Art.Graph.N() }

// RouteBound returns the cached-landmark-distance upper bound on the
// landmark-phase route u→ℓ_v→v, or graph.Unreachable when either endpoint
// cannot reach v's landmark. The actual route is never longer than this
// unless it is shorter via a vicinity ball.
func (s *Snapshot) RouteBound(u, v int32) int32 {
	addr := s.Art.Routing.AddressOf(v)
	if addr.Landmark == graph.Unreachable {
		return graph.Unreachable
	}
	t, ok := s.Art.Routing.LandmarkIndexOf(addr.Landmark)
	if !ok {
		return graph.Unreachable
	}
	du, dv := s.lmDist[t][u], s.lmDist[t][v]
	if du == graph.Unreachable || dv == graph.Unreachable {
		return graph.Unreachable
	}
	return du + dv
}

// ApproxDist returns the landmark-relay upper bound on dist(u,v): the
// better of routing through v's landmark and through u's. It reads two
// cached array entries per direction — no BFS, no oracle walk — which is
// what lets the brownout path answer distance queries at the in-flight
// limit without an oracle walk. graph.Unreachable when neither relay
// connects the pair.
func (s *Snapshot) ApproxDist(u, v int32) int32 {
	b := s.RouteBound(u, v)
	if rb := s.RouteBound(v, u); rb != graph.Unreachable && (b == graph.Unreachable || rb < b) {
		b = rb
	}
	return b
}
