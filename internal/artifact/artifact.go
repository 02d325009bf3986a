// Package artifact persists a completed build — the input graph, the
// spanner edge set, a Thorup–Zwick distance oracle and a compact routing
// scheme — as one versioned, checksummed binary file, so that building
// (an expensive one-time distributed computation) and serving (cheap
// queries against the result) are decoupled processes: a build farm writes
// artifacts, query daemons memory-load and hot-swap them.
//
// The files are format version 2 of package codec's byte image: a magic
// value, a version value, length-prefixed sections of 4-byte values (8
// bytes for edge keys, the seed, checksums, and lengths and counts not
// bounded by a vertex count), and an XXH64 checksum footer over
// everything before it.
// Encoding is deterministic — the same build always produces the same
// bytes — and decoding is bounds-checked: truncated, corrupted or
// version-skewed inputs (a version-1 file among them) return typed errors
// and never panic (fuzzed by FuzzArtifactDecode).
package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"

	"spanner/internal/codec"
	"spanner/internal/graph"
	"spanner/internal/oracle"
	"spanner/internal/routing"
)

const (
	// magic spells "SPANART1" as little-endian ASCII; the version value,
	// not the magic, names the format version.
	magic   int64 = 0x3154_5241_4e41_5053
	version int64 = 2
	// minLen is the shortest artifact file: the header, the fixed-width
	// values before the sections, and the footer.
	minLen = 16 + 8 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 8
)

// Typed decode failures, matchable with errors.Is through any wrapping.
var (
	// ErrTruncated reports input shorter than its own length prefixes claim.
	ErrTruncated = codec.ErrTruncated
	// ErrChecksum reports a footer mismatch (bit rot, torn write).
	ErrChecksum = codec.ErrChecksum
	// ErrMagic reports input that is not an artifact file at all.
	ErrMagic = codec.ErrMagic
	// ErrVersion reports a file written by another format version.
	ErrVersion = codec.ErrVersion
	// ErrCorrupt reports structurally invalid content behind a valid
	// checksum (hand-edited or adversarial input).
	ErrCorrupt = errors.New("artifact: corrupt content")
)

// Artifact is a complete, self-contained serving snapshot.
type Artifact struct {
	// Algo records which builder produced Spanner (provenance only).
	Algo string
	// Seed is the RNG seed the oracle and routing scheme were built with.
	Seed int64
	// K is the oracle's stretch parameter (stretch 2K−1).
	K int

	Graph   *graph.Graph
	Spanner *graph.EdgeSet
	Oracle  *oracle.Oracle
	Routing *routing.Scheme

	sum checksumMemo
}

// Build assembles an artifact from a finished spanner construction: it
// builds the distance oracle and routing scheme over g (deterministically
// from seed) and bundles them with the spanner for serving.
func Build(g *graph.Graph, spanner *graph.EdgeSet, algo string, k int, seed int64) (*Artifact, error) {
	if g == nil || spanner == nil {
		return nil, fmt.Errorf("artifact: Build requires a graph and a spanner")
	}
	orc, err := oracle.New(g, k, seed)
	if err != nil {
		return nil, err
	}
	rt, err := routing.New(g, seed)
	if err != nil {
		return nil, err
	}
	return &Artifact{Algo: algo, Seed: seed, K: k, Graph: g, Spanner: spanner, Oracle: orc, Routing: rt}, nil
}

// wordLen returns the number of values in the artifact's image.
func (a *Artifact) wordLen() int {
	return 10 + len(a.Algo) + a.Graph.M() + a.Spanner.Len() + a.Oracle.WordLen() + a.Routing.WordLen()
}

// imageLen returns the byte length of the artifact's image without the
// footer: seven 8-byte values beside the edge keys, three 4-byte ones
// beside the name, and the two sections.
func (a *Artifact) imageLen() int {
	return 8*(7+a.Graph.M()+a.Spanner.Len()) + 4*(3+len(a.Algo)) + a.Oracle.ImageLen() + a.Routing.ImageLen()
}

// encode writes the artifact's values (without the checksum footer). The
// oracle and routing sections are written from their storage.
func (a *Artifact) encode(w *codec.Writer) {
	n := a.Graph.N()
	w.Int64s([]int64{magic, version, a.Seed})
	w.Int(int64(a.K))
	w.Int(int64(len(a.Algo)))
	for i := 0; i < len(a.Algo); i++ {
		w.Int(int64(a.Algo[i]))
	}
	w.Int(int64(n))
	w.Int64(int64(a.Graph.M()))
	for u := int32(0); int(u) < n; u++ {
		for _, v := range a.Graph.Neighbors(u) {
			if u < v {
				w.Int64(graph.EdgeKey(u, v))
			}
		}
	}
	spk := a.Spanner.Keys()
	slices.Sort(spk)
	w.Int64(int64(len(spk)))
	w.Int64s(spk)
	w.Int64(int64(a.Oracle.WordLen()))
	a.Oracle.Encode(w)
	w.Int64(int64(a.Routing.WordLen()))
	a.Routing.Encode(w)
}

// image renders the artifact's bytes without the footer, with room for it.
func (a *Artifact) image() []byte {
	w := codec.NewWriter(a.imageLen() + 8)
	a.encode(w)
	return w.Bytes()
}

// Words returns the artifact's logical values (without the checksum
// footer Marshal appends).
func (a *Artifact) Words() []int64 {
	w := codec.NewWords(a.wordLen())
	a.encode(w)
	return w.Words()
}

// Marshal renders the artifact as its on-disk bytes: the image plus the
// checksum footer. The footer is the memoized Checksum, computed here
// from the image when nothing has asked for it yet.
func (a *Artifact) Marshal() []byte {
	buf := a.image()
	a.sum.once.Do(func() { a.sum.v = codec.Sum(buf) })
	return binary.LittleEndian.AppendUint64(buf, uint64(a.sum.v))
}

// Unmarshal decodes artifact bytes produced by Marshal. All failures are
// typed (ErrTruncated, ErrChecksum, ErrMagic, ErrVersion, ErrCorrupt or a
// wrapped section error); malformed input never panics. Decoding is
// canonical: every accepted input is exactly what Marshal writes for the
// decoded artifact, so the verified footer is its Checksum.
func Unmarshal(data []byte) (*Artifact, error) {
	r, sum, err := codec.Open(data, magic, version, minLen)
	if err != nil {
		return nil, err
	}
	return decodeBody(r, sum)
}

// decodeBody decodes an artifact image from just past its header to the
// end of r; sum is the image's checksum.
func decodeBody(r *codec.Reader, sum int64) (*Artifact, error) {
	a := &Artifact{Seed: r.Int64()}
	k := r.Int()
	if r.Err() == nil && (k < 1 || k > 64) {
		return nil, fmt.Errorf("%w: implausible oracle parameter k=%d", ErrCorrupt, k)
	}
	a.K = int(k)
	name := make([]byte, r.Count(4))
	for i := range name {
		c := r.Int()
		if c < 0 || c > 255 {
			return nil, fmt.Errorf("%w: algo name byte %d", ErrCorrupt, c)
		}
		name[i] = byte(c)
	}
	a.Algo = string(name)
	// Each vertex has at least its oracle level ahead, so a count beyond
	// the bytes left / 4 cannot be honest; bounding it keeps a hostile
	// count from sizing the graph.
	n := r.Int()
	if n < 0 || n > int64(r.Left()/4) {
		return nil, fmt.Errorf("%w: vertex count %d", ErrCorrupt, n)
	}
	m := r.Count64(8)
	if err := r.Err(); err != nil {
		return nil, err
	}
	b := graph.NewBuilder(int(n))
	prev := int64(-1)
	for i := 0; i < m; i++ {
		key := r.Int64()
		u, v := graph.UnpackEdgeKey(key)
		if key <= prev || u < 0 || u >= v || int64(v) >= n {
			return nil, fmt.Errorf("%w: graph edge key %d at index %d", ErrCorrupt, key, i)
		}
		prev = key
		b.AddEdge(u, v)
	}
	a.Graph = b.Build()
	if a.Graph.M() != m {
		return nil, fmt.Errorf("%w: %d duplicate graph edges", ErrCorrupt, m-a.Graph.M())
	}
	sp := r.Count64(8)
	if err := r.Err(); err != nil {
		return nil, err
	}
	a.Spanner = graph.NewEdgeSet(sp)
	prev = -1
	for i := 0; i < sp; i++ {
		key := r.Int64()
		u, v := graph.UnpackEdgeKey(key)
		if key <= prev || u < 0 || u >= v || int64(v) >= n {
			return nil, fmt.Errorf("%w: spanner edge key %d at index %d", ErrCorrupt, key, i)
		}
		if !a.Graph.HasEdge(u, v) {
			return nil, fmt.Errorf("%w: spanner edge (%d,%d) is not a graph edge", ErrCorrupt, u, v)
		}
		prev = key
		a.Spanner.AddKey(key)
	}
	var err error
	ow := r.Count64(4)
	if a.Oracle, err = oracle.Decode(a.Graph, r); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if a.Oracle.K() != a.K || a.Oracle.WordLen() != ow {
		return nil, fmt.Errorf("%w: oracle section of k=%d and %d values, header says k=%d and %d",
			ErrCorrupt, a.Oracle.K(), a.Oracle.WordLen(), a.K, ow)
	}
	rw := r.Count64(4)
	if a.Routing, err = routing.Decode(a.Graph, r); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if a.Routing.WordLen() != rw {
		return nil, fmt.Errorf("%w: routing section of %d values, its length says %d", ErrCorrupt, a.Routing.WordLen(), rw)
	}
	if r.Left() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Left())
	}
	a.sum.once.Do(func() { a.sum.v = sum })
	return a, nil
}

// Save writes the artifact to path via a temp file and rename, so a killed
// writer never leaves a torn file under the final name (the same discipline
// as distsim.WriteWordsFile).
func Save(path string, a *Artifact) error {
	return writeAtomic(path, a.Marshal())
}

// Load memory-loads an artifact file written by Save.
func Load(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}
