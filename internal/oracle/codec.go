package oracle

import (
	"fmt"
	"slices"

	"spanner/internal/graph"
)

// Flat word-stream codec for a built oracle, following the conventions of
// the distsim checkpoints and the reliable-transport wire format: every
// structure is a length-prefixed int64 stream, map contents are emitted in
// sorted key order so the stream is deterministic, and decoding is
// bounds-checked so corrupt input returns an error instead of panicking.
// Decoding is canonical: it accepts only streams Words could have written
// (bunch and spanner keys strictly increasing, every value in range), so a
// decoded oracle re-encodes to exactly the words it came from.
// The graph itself is not part of the stream — the serving artifact carries
// it once and passes it back to FromWords.

// Words serializes the oracle (everything except the graph) to a flat word
// stream. Encoding the same oracle twice yields identical streams.
func (o *Oracle) Words() []int64 {
	n := o.g.N()
	w := make([]int64, 0, 2+n*(2*o.k+2))
	w = append(w, int64(o.k), int64(n))
	for _, l := range o.level {
		w = append(w, int64(l))
	}
	for i := 0; i < o.k; i++ {
		for v := 0; v < n; v++ {
			w = append(w, int64(o.witness[i][v]), int64(o.distTo[i][v]))
		}
	}
	for v := 0; v < n; v++ {
		b := o.bunch[v]
		if b == nil {
			w = append(w, -1)
			continue
		}
		keys := make([]int32, 0, len(b))
		for u := range b {
			keys = append(keys, u)
		}
		slices.Sort(keys)
		w = append(w, int64(len(keys)))
		for _, u := range keys {
			w = append(w, int64(u), int64(b[u]))
		}
	}
	spk := o.spanner.Keys()
	slices.Sort(spk)
	w = append(w, int64(len(spk)))
	w = append(w, spk...)
	return w
}

// wordReader consumes a codec word stream with bounds checking.
type wordReader struct {
	buf []int64
	pos int
	err error
}

func (r *wordReader) get() int64 {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.err = fmt.Errorf("oracle: truncated stream (offset %d)", r.pos)
		return 0
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

// count reads a non-negative length that cannot exceed the remaining words.
func (r *wordReader) count() int {
	n := r.get()
	if r.err != nil {
		return 0
	}
	if n < 0 || int(n) > len(r.buf)-r.pos {
		r.err = fmt.Errorf("oracle: corrupt length %d at offset %d", n, r.pos)
		return 0
	}
	return int(n)
}

// FromWords reconstructs an oracle over g from a Words stream. The decoded
// oracle's Query answers are identical to the encoded one's.
func FromWords(g *graph.Graph, words []int64) (*Oracle, error) {
	r := &wordReader{buf: words}
	k := int(r.get())
	n := int(r.get())
	if r.err != nil {
		return nil, r.err
	}
	if k < 1 || k > 64 {
		return nil, fmt.Errorf("oracle: implausible stretch parameter k=%d", k)
	}
	if n != g.N() {
		return nil, fmt.Errorf("oracle: stream is for %d vertices, graph has %d", n, g.N())
	}
	o := &Oracle{
		g:       g,
		k:       k,
		level:   make([]int8, n),
		witness: make([][]int32, k),
		distTo:  make([][]int32, k),
		bunch:   make([]map[int32]int32, n),
		spanner: graph.NewEdgeSet(2 * n),
	}
	for v := 0; v < n; v++ {
		lvl := r.get()
		if r.err == nil && (lvl < 0 || int(lvl) >= k) {
			return nil, fmt.Errorf("oracle: level %d of vertex %d out of [0,%d)", lvl, v, k)
		}
		o.level[v] = int8(lvl)
	}
	for i := 0; i < k; i++ {
		o.witness[i] = make([]int32, n)
		o.distTo[i] = make([]int32, n)
		for v := 0; v < n; v++ {
			wit, d := r.get(), r.get()
			if r.err == nil && (!inRange(wit, n) || !inRange(d, n)) {
				return nil, fmt.Errorf("oracle: level %d witness/distance of %d out of range: %d/%d", i, v, wit, d)
			}
			o.witness[i][v] = int32(wit)
			o.distTo[i][v] = int32(d)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	for v := 0; v < n; v++ {
		c := r.get()
		if r.err != nil {
			return nil, r.err
		}
		if c < 0 {
			if c != -1 {
				return nil, fmt.Errorf("oracle: corrupt bunch length %d", c)
			}
			continue
		}
		if c > int64(len(words)-r.pos)/2 {
			return nil, fmt.Errorf("oracle: truncated bunch of vertex %d", v)
		}
		b := make(map[int32]int32, c)
		for j, prev := int64(0), int64(-1); j < c; j++ {
			u, d := r.get(), r.get()
			if u <= prev || u >= int64(n) || d < 0 || d >= int64(n) {
				return nil, fmt.Errorf("oracle: bunch entry %d of vertex %d not sorted in range: %d at %d", j, v, u, d)
			}
			prev = u
			b[int32(u)] = int32(d)
		}
		o.bunch[v] = b
	}
	ne := r.count()
	for i, prev := 0, int64(-1); i < ne; i++ {
		key := r.get()
		u, v := graph.UnpackEdgeKey(key)
		if key <= prev || u < 0 || u >= v || int(v) >= n {
			return nil, fmt.Errorf("oracle: spanner edge key %d not sorted canonical in range", key)
		}
		prev = key
		o.spanner.AddKey(key)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(words) {
		return nil, fmt.Errorf("oracle: %d trailing words", len(words)-r.pos)
	}
	return o, nil
}

// inRange reports whether x is graph.Unreachable or a value in [0, n) —
// a vertex or a distance.
func inRange(x int64, n int) bool {
	return x >= int64(graph.Unreachable) && x < int64(n)
}
