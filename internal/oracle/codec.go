package oracle

import (
	"fmt"

	"spanner/internal/codec"
	"spanner/internal/flatmap"
	"spanner/internal/graph"
)

// The oracle's section of the artifact image (package codec): every
// structure is length-prefixed, bunches and spanner keys are written in
// ascending key order so the image is deterministic, and decoding is
// bounds-checked so corrupt input returns an error instead of panicking.
// Every value is bounded by n and takes 4 bytes, except the spanner's
// length and edge keys, which take 8. Decoding is canonical: it accepts
// only images Encode could have written (bunch and spanner keys strictly
// increasing, every value in range), so a decoded oracle re-encodes to
// exactly the bytes it came from. The graph itself is not part of the
// section — the serving artifact carries it once and passes it to Decode.

// Words returns the section's logical values (everything except the
// graph). Encoding the same oracle twice yields identical values.
func (o *Oracle) Words() []int64 {
	w := codec.NewWords(o.WordLen())
	o.Encode(w)
	return w.Words()
}

// WordLen returns the number of values Encode writes.
func (o *Oracle) WordLen() int {
	n := o.g.N()
	return 2 + n + 2*o.k*n + o.bunch.WordLen() + 1 + len(o.spanner)
}

// ImageLen returns the number of bytes Encode writes into an image.
func (o *Oracle) ImageLen() int { return 4*o.WordLen() + 4*(1+len(o.spanner)) }

// Encode writes the section, reading the bunches and the spanner keys in
// order from their storage.
func (o *Oracle) Encode(w *codec.Writer) {
	n := o.g.N()
	w.Int(int64(o.k))
	w.Int(int64(n))
	for _, l := range o.level {
		w.Int(int64(l))
	}
	for i := 0; i < o.k; i++ {
		for v := 0; v < n; v++ {
			w.Int(int64(o.witness[i][v]))
			w.Int(int64(o.distTo[i][v]))
		}
	}
	o.bunch.Encode(w)
	w.Int64(int64(len(o.spanner)))
	w.Int64s(o.spanner)
}

// Decode reads a section Encode wrote for an oracle over g. The decoded
// oracle's Query answers are identical to the encoded one's.
func Decode(g *graph.Graph, r *codec.Reader) (*Oracle, error) {
	k, n := r.Int(), int(r.Int())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if k < 1 || k > 64 {
		return nil, fmt.Errorf("oracle: implausible stretch parameter k=%d", k)
	}
	if n != g.N() {
		return nil, fmt.Errorf("oracle: section is for %d vertices, graph has %d", n, g.N())
	}
	if (1+2*int(k))*n > r.Left()/4 {
		return nil, fmt.Errorf("oracle: %w: %d levels of %d vertices", codec.ErrTruncated, k, n)
	}
	o := newOracle(g, int(k))
	for v := range o.level {
		lvl := r.Int()
		if lvl < 0 || lvl >= k {
			return nil, fmt.Errorf("oracle: level %d of vertex %d out of [0,%d)", lvl, v, k)
		}
		o.level[v] = int8(lvl)
	}
	for i := range o.witness {
		o.witness[i] = make([]int32, n)
		o.distTo[i] = make([]int32, n)
		for v := 0; v < n; v++ {
			wit, d := r.Int(), r.Int()
			if !inRange(wit, n) || !inRange(d, n) {
				return nil, fmt.Errorf("oracle: level %d witness/distance of %d out of range: %d/%d", i, v, wit, d)
			}
			o.witness[i][v] = int32(wit)
			o.distTo[i][v] = int32(d)
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	var err error
	if o.bunch, err = flatmap.Decode(r, n, n); err != nil {
		return nil, fmt.Errorf("oracle: bunch %w", err)
	}
	o.spanner = make([]int64, r.Count64(8))
	r.Int64s(o.spanner)
	if err := r.Err(); err != nil {
		return nil, err
	}
	prev := int64(-1)
	for _, key := range o.spanner {
		u, v := graph.UnpackEdgeKey(key)
		if key <= prev || u < 0 || u >= v || int(v) >= n {
			return nil, fmt.Errorf("oracle: spanner edge key %d not sorted canonical in range", key)
		}
		prev = key
	}
	return o, nil
}

// inRange reports whether x is graph.Unreachable or a value in [0, n) —
// a vertex or a distance.
func inRange(x int64, n int) bool {
	return x >= int64(graph.Unreachable) && x < int64(n)
}
