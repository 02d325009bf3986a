package oracle

import (
	"fmt"

	"spanner/internal/flatmap"
	"spanner/internal/graph"
)

// Flat word-stream codec for a built oracle, following the conventions of
// the distsim checkpoints and the reliable-transport wire format: every
// structure is a length-prefixed int64 stream, bunches and spanner keys are
// emitted in ascending key order so the stream is deterministic, and decoding is
// bounds-checked so corrupt input returns an error instead of panicking.
// Decoding is canonical: it accepts only streams Words could have written
// (bunch and spanner keys strictly increasing, every value in range), so a
// decoded oracle re-encodes to exactly the words it came from.
// The graph itself is not part of the stream — the serving artifact carries
// it once and passes it back to FromWords.

// Words serializes the oracle (everything except the graph) to a flat word
// stream. Encoding the same oracle twice yields identical streams.
func (o *Oracle) Words() []int64 {
	w := make([]int64, 0, o.WordLen())
	o.EncodeWords(func(chunk []int64) { w = append(w, chunk...) })
	return w
}

// WordLen returns the length of the Words stream without building it.
func (o *Oracle) WordLen() int {
	n := o.g.N()
	return 2 + n + 2*o.k*n + o.bunch.WordLen() + 1 + len(o.spanner)
}

// encodeChunk is the number of words EncodeWords gathers before handing
// them on.
const encodeChunk = 4096

// EncodeWords streams the Words stream through emit in consecutive chunks,
// reading the bunches and the spanner keys in order from their storage.
// A chunk is only valid during its emit call.
func (o *Oracle) EncodeWords(emit func([]int64)) {
	n := o.g.N()
	w := make([]int64, 0, encodeChunk)
	flush := func() {
		emit(w)
		w = w[:0]
	}
	w = append(w, int64(o.k), int64(n))
	for _, l := range o.level {
		w = append(w, int64(l))
		if len(w) >= encodeChunk {
			flush()
		}
	}
	for i := 0; i < o.k; i++ {
		for v := 0; v < n; v++ {
			w = append(w, int64(o.witness[i][v]), int64(o.distTo[i][v]))
			if len(w) >= encodeChunk {
				flush()
			}
		}
	}
	for v := int32(0); int(v) < n; v++ {
		w = o.bunch.AppendWords(w, v)
		if len(w) >= encodeChunk {
			flush()
		}
	}
	w = append(w, int64(len(o.spanner)))
	flush()
	emit(o.spanner)
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
	o := newOracle(g, k)
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
	// Every bunch entry takes two words and every other bunch one, so the
	// words left bound the entries.
	b := flatmap.NewBuilder(n, max(len(words)-r.pos-n, 0)/2)
	for v := 0; v < n; v++ {
		c := r.get()
		if r.err != nil {
			return nil, r.err
		}
		if c < 0 {
			if c != -1 {
				return nil, fmt.Errorf("oracle: corrupt bunch length %d", c)
			}
			b.End(false)
			continue
		}
		if c > int64(len(words)-r.pos)/2 {
			return nil, fmt.Errorf("oracle: truncated bunch of vertex %d", v)
		}
		for j, prev := int64(0), int64(-1); j < c; j++ {
			u, d := r.get(), r.get()
			if u <= prev || u >= int64(n) || d < 0 || d >= int64(n) {
				return nil, fmt.Errorf("oracle: bunch entry %d of vertex %d not sorted in range: %d at %d", j, v, u, d)
			}
			prev = u
			b.Add(int32(u), int32(d))
		}
		b.End(true)
	}
	o.bunch = b.Rows()
	ne := r.count()
	o.spanner = make([]int64, ne)
	for i, prev := 0, int64(-1); i < ne; i++ {
		key := r.get()
		u, v := graph.UnpackEdgeKey(key)
		if key <= prev || u < 0 || u >= v || int(v) >= n {
			return nil, fmt.Errorf("oracle: spanner edge key %d not sorted canonical in range", key)
		}
		prev = key
		o.spanner[i] = key
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
