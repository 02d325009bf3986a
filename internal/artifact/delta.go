package artifact

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"

	"spanner/internal/codec"
	"spanner/internal/graph"
	"spanner/internal/oracle"
	"spanner/internal/routing"
)

const (
	// deltaMagic spells "SPANDLT1" as little-endian ASCII.
	deltaMagic   int64 = 0x3154_4c44_4e41_5053
	deltaVersion int64 = 2
	// deltaMinLen is the shortest delta file: header, base checksum,
	// segment count and footer.
	deltaMinLen = 16 + 8 + 4 + 8
)

// ErrBaseMismatch reports a delta applied to an artifact that is not the
// base generation it was diffed against.
var ErrBaseMismatch = errors.New("artifact: delta base checksum mismatch")

// SegmentStats carries the dynamic maintainer's accounting through the
// codec so serving daemons can expose admitted/filtered/repaired counters
// for deltas they did not compute themselves.
type SegmentStats struct {
	Admitted, Filtered, Repaired, Rebuilds int64
}

// DeltaSegment is one ordered patch: edge keys to add to / delete from the
// graph and the spanner. Keys are canonical (u<v packed), sorted strictly
// increasing within each list — the deterministic-encoding contract the
// base codec already follows.
type DeltaSegment struct {
	Stats              SegmentStats
	GraphAdd, GraphDel []int64
	SpanAdd, SpanDel   []int64
}

// Updates returns the total number of edge-key operations in the segment.
func (s *DeltaSegment) Updates() int {
	return len(s.GraphAdd) + len(s.GraphDel) + len(s.SpanAdd) + len(s.SpanDel)
}

// Delta is a base generation reference plus ordered patch segments. Apply
// is strict: the base artifact's checksum must match BaseSum, and every
// patch operation must be consistent with the state it patches.
type Delta struct {
	// BaseSum is the checksum (Artifact.Checksum) of the base
	// generation this delta applies to.
	BaseSum  int64
	Segments []DeltaSegment
}

// Updates returns the total edge-key operations across all segments.
func (d *Delta) Updates() int {
	total := 0
	for i := range d.Segments {
		total += d.Segments[i].Updates()
	}
	return total
}

// Checksum returns the checksum of the artifact's image (codec.Sum) — the
// generation identity deltas bind to. Two artifacts have equal checksums
// iff they marshal to identical bytes. The value is computed at most once
// per artifact (Unmarshal stamps it from the footer it verified), so an
// artifact must not be mutated once built or decoded.
func (a *Artifact) Checksum() int64 {
	a.sum.once.Do(func() { a.sum.v = codec.Sum(a.image()) })
	return a.sum.v
}

// checksumMemo holds an artifact's checksum once computed; the zero value
// is empty and safe for concurrent use.
type checksumMemo struct {
	once sync.Once
	v    int64
}

// Diff computes the single-segment delta that patches base into next. Both
// artifacts must be over the same vertex count; oracle and routing sections
// are not diffed — Apply rebuilds them deterministically from the patched
// graph and the base's K and Seed.
func Diff(base, next *Artifact) (*Delta, error) {
	if base == nil || next == nil {
		return nil, errors.New("artifact: Diff requires two artifacts")
	}
	if base.Graph.N() != next.Graph.N() {
		return nil, fmt.Errorf("artifact: Diff across vertex counts (%d vs %d)", base.Graph.N(), next.Graph.N())
	}
	var seg DeltaSegment
	seg.GraphAdd, seg.GraphDel = diffGraphs(base.Graph, next.Graph)
	next.Spanner.ForEach(func(u, v int32) {
		if !base.Spanner.Has(u, v) {
			seg.SpanAdd = append(seg.SpanAdd, graph.EdgeKey(u, v))
		}
	})
	base.Spanner.ForEach(func(u, v int32) {
		if !next.Spanner.Has(u, v) {
			seg.SpanDel = append(seg.SpanDel, graph.EdgeKey(u, v))
		}
	})
	slices.Sort(seg.SpanAdd)
	slices.Sort(seg.SpanDel)
	return &Delta{BaseSum: base.Checksum(), Segments: []DeltaSegment{seg}}, nil
}

// diffGraphs returns the keys of the edges only next has (add) and only
// base has (del), both ascending. Neighbour lists are sorted, so one
// two-pointer merge per vertex over its higher neighbours visits each
// graph's edges in EdgeKey order.
func diffGraphs(base, next *graph.Graph) (add, del []int64) {
	for u := int32(0); int(u) < base.N(); u++ {
		a, b := base.Neighbors(u), next.Neighbors(u)
		i, _ := slices.BinarySearch(a, u+1)
		j, _ := slices.BinarySearch(b, u+1)
		for i < len(a) || j < len(b) {
			switch {
			case j == len(b) || i < len(a) && a[i] < b[j]:
				del = append(del, graph.EdgeKey(u, a[i]))
				i++
			case i == len(a) || b[j] < a[i]:
				add = append(add, graph.EdgeKey(u, b[j]))
				j++
			default:
				i, j = i+1, j+1
			}
		}
	}
	return add, del
}

// Apply patches base with the delta's segments in order and returns a new
// artifact: the patched graph and spanner, with the oracle and routing
// scheme rebuilt deterministically from the base's K and Seed — so applying
// a Diff(base, next) reproduces next byte-identically. Apply is strict:
// ErrBaseMismatch when base is not the bound generation, ErrCorrupt when a
// patch op conflicts with the state it patches (double add, missing
// delete, spanner edge outside the graph).
func (d *Delta) Apply(base *Artifact) (*Artifact, error) {
	if base == nil {
		return nil, errors.New("artifact: Apply requires a base artifact")
	}
	if got := base.Checksum(); got != d.BaseSum {
		return nil, fmt.Errorf("%w: base has %#x, delta wants %#x", ErrBaseMismatch, uint64(got), uint64(d.BaseSum))
	}
	n := base.Graph.N()
	edges := make([]int64, 0, base.Graph.M())
	base.Graph.ForEachEdge(func(u, v int32) { edges = append(edges, graph.EdgeKey(u, v)) })
	span := base.Spanner.Clone()
	for si := range d.Segments {
		seg := &d.Segments[si]
		var err error
		if edges, err = patchGraph(edges, seg, n, si); err != nil {
			return nil, err
		}
		for _, k := range seg.SpanAdd {
			if err := checkKey(k, n, si, "spanner add"); err != nil {
				return nil, err
			}
			if span.HasKey(k) {
				return nil, fmt.Errorf("%w: segment %d adds existing spanner edge %d", ErrCorrupt, si, k)
			}
			span.AddKey(k)
		}
		for _, k := range seg.SpanDel {
			if err := checkKey(k, n, si, "spanner del"); err != nil {
				return nil, err
			}
			if !span.HasKey(k) {
				return nil, fmt.Errorf("%w: segment %d deletes absent spanner edge %d", ErrCorrupt, si, k)
			}
			span.RemoveKey(k)
		}
	}
	g := graph.FromKeys(n, edges)
	if !span.Subset(g) {
		return nil, fmt.Errorf("%w: patched spanner has edges outside the patched graph", ErrCorrupt)
	}
	orc, err := oracle.New(g, base.K, base.Seed)
	if err != nil {
		return nil, fmt.Errorf("artifact: rebuild oracle after delta: %w", err)
	}
	rt, err := routing.New(g, base.Seed)
	if err != nil {
		return nil, fmt.Errorf("artifact: rebuild routing after delta: %w", err)
	}
	return &Artifact{Algo: base.Algo, Seed: base.Seed, K: base.K, Graph: g, Spanner: span, Oracle: orc, Routing: rt}, nil
}

// patchGraph applies one segment's graph adds, then its deletes, to the
// ascending edge keys and returns the patched keys, still ascending. Each
// list is merged against the keys in one pass; keys are checked in list
// order, so the first bad key is the one a key-by-key patch would report.
// A list that is not ascending is merged in sorted order.
func patchGraph(edges []int64, seg *DeltaSegment, n, si int) ([]int64, error) {
	add, del := seg.GraphAdd, seg.GraphDel
	if !slices.IsSorted(add) {
		add = slices.Clone(add)
		slices.Sort(add)
	}
	if !slices.IsSorted(del) {
		del = slices.Clone(del)
		slices.Sort(del)
	}
	out := make([]int64, 0, len(edges)+len(add))
	i := 0
	for _, k := range add {
		if err := checkKey(k, n, si, "graph add"); err != nil {
			return nil, err
		}
		for i < len(edges) && edges[i] < k {
			out = append(out, edges[i])
			i++
		}
		if i < len(edges) && edges[i] == k || len(out) > 0 && out[len(out)-1] == k {
			return nil, fmt.Errorf("%w: segment %d adds existing graph edge %d", ErrCorrupt, si, k)
		}
		out = append(out, k)
	}
	out = append(out, edges[i:]...)
	// Deletes compact out in place: the write cursor never passes the read
	// cursor.
	kept, i := out[:0], 0
	for _, k := range del {
		if err := checkKey(k, n, si, "graph del"); err != nil {
			return nil, err
		}
		for i < len(out) && out[i] < k {
			kept = append(kept, out[i])
			i++
		}
		if i == len(out) || out[i] != k {
			return nil, fmt.Errorf("%w: segment %d deletes absent graph edge %d", ErrCorrupt, si, k)
		}
		i++
	}
	return append(kept, out[i:]...), nil
}

func checkKey(k int64, n, seg int, what string) error {
	u, v := graph.UnpackEdgeKey(k)
	if u < 0 || v < 0 || int(u) >= n || int(v) >= n || u >= v {
		return fmt.Errorf("%w: segment %d %s key %d out of range", ErrCorrupt, seg, what, k)
	}
	return nil
}

// encode writes the delta's values (without the checksum footer):
//
//	deltaMagic | deltaVersion | baseSum | segCount |
//	per segment: 4 stats values, then 4 × (len | keys...) in the order
//	GraphAdd GraphDel SpanAdd SpanDel
//
// The segment count takes 4 bytes; everything else takes 8.
func (d *Delta) encode(w *codec.Writer) {
	w.Int64s([]int64{deltaMagic, deltaVersion, d.BaseSum})
	w.Int(int64(len(d.Segments)))
	for i := range d.Segments {
		seg := &d.Segments[i]
		w.Int64s([]int64{seg.Stats.Admitted, seg.Stats.Filtered, seg.Stats.Repaired, seg.Stats.Rebuilds})
		for _, list := range [][]int64{seg.GraphAdd, seg.GraphDel, seg.SpanAdd, seg.SpanDel} {
			w.Int64(int64(len(list)))
			w.Int64s(list)
		}
	}
}

// Marshal renders the delta as bytes: its image plus the checksum footer.
func (d *Delta) Marshal() []byte {
	w := codec.NewWriter(0)
	d.encode(w)
	return w.Seal()
}

// UnmarshalDelta decodes delta bytes produced by Marshal. Failures are
// typed (ErrTruncated, ErrChecksum, ErrMagic, ErrVersion, ErrCorrupt) and
// malformed input never panics (fuzzed by FuzzDeltaDecode).
func UnmarshalDelta(data []byte) (*Delta, error) {
	r, _, err := codec.Open(data, deltaMagic, deltaVersion, deltaMinLen)
	if err != nil {
		return nil, err
	}
	d := &Delta{BaseSum: r.Int64()}
	// Each segment holds 4 stats and 4 length values of 8 bytes.
	d.Segments = make([]DeltaSegment, r.Count(64))
	for si := range d.Segments {
		seg := &d.Segments[si]
		seg.Stats = SegmentStats{Admitted: r.Int64(), Filtered: r.Int64(), Repaired: r.Int64(), Rebuilds: r.Int64()}
		if seg.Stats.Admitted < 0 || seg.Stats.Filtered < 0 || seg.Stats.Repaired < 0 || seg.Stats.Rebuilds < 0 {
			return nil, fmt.Errorf("%w: segment %d has negative stats", ErrCorrupt, si)
		}
		for li, dst := range []*[]int64{&seg.GraphAdd, &seg.GraphDel, &seg.SpanAdd, &seg.SpanDel} {
			cnt := r.Count64(8)
			if cnt == 0 {
				continue
			}
			keys := make([]int64, cnt)
			r.Int64s(keys)
			prev := int64(-1)
			for _, k := range keys {
				u, v := graph.UnpackEdgeKey(k)
				if k <= prev || u < 0 || v <= u {
					return nil, fmt.Errorf("%w: segment %d list %d key %d not sorted canonical", ErrCorrupt, si, li, k)
				}
				prev = k
			}
			*dst = keys
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Left() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Left())
	}
	return d, nil
}

// SaveDelta writes the delta to path via temp file and rename (the same
// torn-write discipline as Save).
func SaveDelta(path string, d *Delta) error {
	return writeAtomic(path, d.Marshal())
}

// LoadDelta memory-loads a delta file written by SaveDelta.
func LoadDelta(path string) (*Delta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := UnmarshalDelta(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}
