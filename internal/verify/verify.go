// Package verify measures the quality of a computed spanner against its
// input graph: subgraph validity, connectivity preservation, multiplicative
// and additive distortion (exact on small graphs, sampled on large ones),
// and the per-distance distortion profile the Fibonacci-spanner experiments
// plot (Theorem 7's four stages).
package verify

import (
	"fmt"
	"math/rand"

	"spanner/internal/graph"
)

// Report summarizes a spanner's quality.
type Report struct {
	N        int
	M        int // edges in the input graph
	SpannerM int // edges in the spanner

	// Valid is false if the spanner contains an edge not in the graph.
	Valid bool
	// Connected is true when the spanner preserves the input's connected
	// components exactly (the minimal "skeleton" requirement).
	Connected bool

	// Pairs is the number of (ordered-by-source) vertex pairs measured.
	Pairs int
	// MaxStretch and AvgStretch are over measured pairs with δ_G(u,v) ≥ 1.
	MaxStretch float64
	AvgStretch float64
	// MaxAdditive is max over measured pairs of δ_S(u,v) − δ_G(u,v).
	MaxAdditive int32
	// AvgAdditive is the mean additive surplus over measured pairs.
	AvgAdditive float64

	// ByDistance[d] aggregates pairs at original distance d (index 0 unused).
	ByDistance []DistanceRow
}

// DistanceRow aggregates distortion for pairs at one original distance.
type DistanceRow struct {
	Distance   int32
	Pairs      int
	MaxStretch float64
	AvgStretch float64
	MaxSpanner int32 // largest δ_S observed at this distance
}

// Options configures Measure.
type Options struct {
	// Sources bounds the number of BFS source vertices (0 = all vertices,
	// i.e. exact over all pairs). Sampled sources still measure distortion
	// to every other vertex.
	Sources int
	// Rng drives source sampling; required when Sources > 0.
	Rng *rand.Rand
}

// Measure compares the spanner edge set s against g.
func Measure(g *graph.Graph, s *graph.EdgeSet, opts Options) *Report {
	sg := s.ToGraph(g.N())
	rep := &Report{
		N:        g.N(),
		M:        g.M(),
		SpannerM: s.Len(),
		Valid:    s.Subset(g),
	}
	rep.Connected = graph.SameComponents(g, sg)

	n := g.N()
	sources := make([]int32, 0, n)
	if opts.Sources <= 0 || opts.Sources >= n {
		for v := int32(0); int(v) < n; v++ {
			sources = append(sources, v)
		}
	} else {
		perm := opts.Rng.Perm(n)
		for _, v := range perm[:opts.Sources] {
			sources = append(sources, int32(v))
		}
	}

	var sumStretch, sumAdd float64
	for _, src := range sources {
		dg := g.BFS(src)
		ds := sg.BFS(src)
		for v := int32(0); int(v) < n; v++ {
			d := dg[v]
			if d < 1 {
				continue // same vertex or different component
			}
			dsv := ds[v]
			if dsv == graph.Unreachable {
				// Connectivity violation; flagged via Connected, but record
				// the pair so stretch stats are not silently optimistic.
				rep.Connected = false
				continue
			}
			stretch := float64(dsv) / float64(d)
			add := dsv - d
			rep.Pairs++
			sumStretch += stretch
			sumAdd += float64(add)
			if stretch > rep.MaxStretch {
				rep.MaxStretch = stretch
			}
			if add > rep.MaxAdditive {
				rep.MaxAdditive = add
			}
			for int(d) >= len(rep.ByDistance) {
				rep.ByDistance = append(rep.ByDistance, DistanceRow{Distance: int32(len(rep.ByDistance))})
			}
			row := &rep.ByDistance[d]
			row.Pairs++
			row.AvgStretch += stretch // running sum; normalized below
			if stretch > row.MaxStretch {
				row.MaxStretch = stretch
			}
			if dsv > row.MaxSpanner {
				row.MaxSpanner = dsv
			}
		}
	}
	if rep.Pairs > 0 {
		rep.AvgStretch = sumStretch / float64(rep.Pairs)
		rep.AvgAdditive = sumAdd / float64(rep.Pairs)
	}
	for i := range rep.ByDistance {
		if rep.ByDistance[i].Pairs > 0 {
			rep.ByDistance[i].AvgStretch /= float64(rep.ByDistance[i].Pairs)
		}
	}
	return rep
}

// SizeRatio returns |S|/n, the "size per vertex" the paper's linear-size
// claims are about.
func (r *Report) SizeRatio() float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.SpannerM) / float64(r.N)
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("spanner{|S|=%d (%.2fn of m=%d) maxStretch=%.2f avgStretch=%.3f maxAdd=%d valid=%v connected=%v pairs=%d}",
		r.SpannerM, r.SizeRatio(), r.M, r.MaxStretch, r.AvgStretch, r.MaxAdditive, r.Valid, r.Connected, r.Pairs)
}

// WorstPair identifies a maximally distorted pair for debugging.
type WorstPair struct {
	U, V    int32
	DistG   int32
	DistS   int32
	Stretch float64
}

// WorstPairs returns the (up to) top-k most stretched pairs over BFS from
// the given sources — the pairs to inspect when a spanner misbehaves.
func WorstPairs(g *graph.Graph, s *graph.EdgeSet, sources []int32, k int) []WorstPair {
	sg := s.ToGraph(g.N())
	var worst []WorstPair
	for _, src := range sources {
		dg := g.BFS(src)
		ds := sg.BFS(src)
		for v := int32(0); int(v) < g.N(); v++ {
			if dg[v] < 1 || ds[v] == graph.Unreachable {
				continue
			}
			wp := WorstPair{U: src, V: v, DistG: dg[v], DistS: ds[v],
				Stretch: float64(ds[v]) / float64(dg[v])}
			worst = insertWorst(worst, wp, k)
		}
	}
	return worst
}

func insertWorst(worst []WorstPair, wp WorstPair, k int) []WorstPair {
	pos := len(worst)
	for pos > 0 && worst[pos-1].Stretch < wp.Stretch {
		pos--
	}
	if pos >= k {
		return worst
	}
	worst = append(worst, WorstPair{})
	copy(worst[pos+1:], worst[pos:])
	worst[pos] = wp
	if len(worst) > k {
		worst = worst[:k]
	}
	return worst
}

// StretchHistogram buckets measured pair stretches: bucket i counts pairs
// with stretch in [i, i+1) (bucket 0 unused; exact pairs land in bucket 1).
func (r *Report) StretchHistogram() []int {
	maxB := int(r.MaxStretch) + 1
	h := make([]int, maxB+1)
	for _, row := range r.ByDistance {
		if row.Pairs == 0 {
			continue
		}
		// Approximate per-row: attribute the row's pairs to its average
		// stretch bucket (the report does not retain per-pair data).
		b := int(row.AvgStretch)
		if b > maxB {
			b = maxB
		}
		h[b] += row.Pairs
	}
	return h
}

// PairStretch measures the distortion of a single pair (exact distances in
// both graphs, by the single-pair search of graph.Dist).
func PairStretch(g *graph.Graph, s *graph.EdgeSet, u, v int32) (dG, dS int32) {
	sg := s.ToGraph(g.N())
	return g.Dist(u, v), sg.Dist(u, v)
}
