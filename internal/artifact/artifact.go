// Package artifact persists a completed build — the input graph, the
// spanner edge set, a Thorup–Zwick distance oracle and a compact routing
// scheme — as one versioned, checksummed binary file, so that building
// (an expensive one-time distributed computation) and serving (cheap
// queries against the result) are decoupled processes: a build farm writes
// artifacts, query daemons memory-load and hot-swap them.
//
// The format follows the repo's word-stream conventions (the reliable
// transport's wire frames and the distsim checkpoints): the artifact is a
// flat little-endian int64 stream with a magic word, a version word,
// length-prefixed sections, and an FNV-1a checksum footer over everything
// before it. Encoding is deterministic — the same build always produces the
// same bytes — and decoding is bounds-checked: truncated, corrupted or
// version-skewed inputs return typed errors and never panic (fuzzed by
// FuzzArtifactDecode).
package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"

	"spanner/internal/graph"
	"spanner/internal/oracle"
	"spanner/internal/routing"
)

const (
	// magic spells "SPANART1" as little-endian ASCII.
	magic   int64 = 0x3154_5241_4e41_5053
	version int64 = 1
)

// Typed decode failures, matchable with errors.Is through any wrapping.
var (
	// ErrTruncated reports input shorter than its own length prefixes claim.
	ErrTruncated = errors.New("artifact: truncated input")
	// ErrChecksum reports an FNV footer mismatch (bit rot, torn write).
	ErrChecksum = errors.New("artifact: checksum mismatch")
	// ErrMagic reports input that is not an artifact at all.
	ErrMagic = errors.New("artifact: bad magic (not an artifact file)")
	// ErrVersion reports an artifact written by an incompatible format
	// version.
	ErrVersion = errors.New("artifact: unsupported format version")
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

// fnvOffset is the FNV-1a offset basis, the hash of no bytes.
const fnvOffset uint64 = 1469598103934665603

// fnvFold continues FNV-1a hash h over the little-endian bytes of words.
func fnvFold(h uint64, words []int64) uint64 {
	const prime = 1099511628211
	for _, w := range words {
		x := uint64(w)
		h = (h ^ x&0xff) * prime
		h = (h ^ x>>8&0xff) * prime
		h = (h ^ x>>16&0xff) * prime
		h = (h ^ x>>24&0xff) * prime
		h = (h ^ x>>32&0xff) * prime
		h = (h ^ x>>40&0xff) * prime
		h = (h ^ x>>48&0xff) * prime
		h = (h ^ x>>56) * prime
	}
	return h
}

// fnvWords folds FNV-1a over a word slice — the same integrity footer the
// reliable wire format and the distsim checkpoints use.
func fnvWords(words []int64) int64 { return int64(fnvFold(fnvOffset, words)) }

// fnvBytes folds FNV-1a over bytes: the fnvWords of the words they encode.
func fnvBytes(data []byte) int64 {
	h := fnvOffset
	for _, b := range data {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return int64(h)
}

// wordLen returns the length of the artifact's word stream.
func (a *Artifact) wordLen() int {
	return 10 + len(a.Algo) + a.Graph.M() + a.Spanner.Len() + a.Oracle.WordLen() + a.Routing.WordLen()
}

// encode streams the artifact's word stream (without the checksum footer)
// through emit in consecutive chunks; a chunk is only valid during its
// emit call. The oracle and routing sections stream from their storage,
// so no caller needs the whole stream in memory.
func (a *Artifact) encode(emit func([]int64)) {
	const chunk = 4096
	n := a.Graph.N()
	w := make([]int64, 0, chunk)
	w = append(w, magic, version, a.Seed, int64(a.K), int64(len(a.Algo)))
	for i := 0; i < len(a.Algo); i++ {
		w = append(w, int64(a.Algo[i]))
	}
	w = append(w, int64(n), int64(a.Graph.M()))
	for u := int32(0); int(u) < n; u++ {
		for _, v := range a.Graph.Neighbors(u) {
			if u < v {
				w = append(w, graph.EdgeKey(u, v))
			}
		}
		if len(w) >= chunk {
			emit(w)
			w = w[:0]
		}
	}
	spk := a.Spanner.Keys()
	slices.Sort(spk)
	w = append(w, int64(len(spk)))
	emit(w)
	emit(spk)
	emit([]int64{int64(a.Oracle.WordLen())})
	a.Oracle.EncodeWords(emit)
	emit([]int64{int64(a.Routing.WordLen())})
	a.Routing.EncodeWords(emit)
}

// Words serializes the artifact to its word stream (without the checksum
// footer Marshal appends).
func (a *Artifact) Words() []int64 { return streamWords(a.wordLen(), a.encode) }

// Marshal renders the artifact as its on-disk bytes: the word stream plus
// FNV footer, little-endian. The footer is the memoized Checksum, folded
// here as the stream is written when nothing has asked for it yet.
func (a *Artifact) Marshal() []byte {
	var buf []byte
	a.sum.once.Do(func() { buf, a.sum.v = streamBytes(a.wordLen(), a.encode, true) })
	if buf == nil {
		buf, _ = streamBytes(a.wordLen(), a.encode, false)
	}
	return binary.LittleEndian.AppendUint64(buf, uint64(a.sum.v))
}

// streamWords collects the stream encode emits; size is its length.
func streamWords(size int, encode func(emit func([]int64))) []int64 {
	w := make([]int64, 0, size)
	encode(func(chunk []int64) { w = append(w, chunk...) })
	return w
}

// streamSum folds FNV-1a over the stream encode emits.
func streamSum(encode func(emit func([]int64))) int64 {
	h := fnvOffset
	encode(func(chunk []int64) { h = fnvFold(h, chunk) })
	return int64(h)
}

// streamBytes renders the stream encode emits, of size words, as
// little-endian bytes with room for a footer word, folding FNV-1a over it
// when fold is set.
func streamBytes(size int, encode func(emit func([]int64)), fold bool) ([]byte, int64) {
	buf := make([]byte, 0, 8*(size+1))
	h := fnvOffset
	encode(func(chunk []int64) {
		if fold {
			h = fnvFold(h, chunk)
		}
		for _, w := range chunk {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
		}
	})
	return buf, int64(h)
}

// reader consumes the artifact word stream with bounds checking.
type reader struct {
	buf []int64
	pos int
	err error
}

func (r *reader) get() int64 {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.err = fmt.Errorf("%w: offset %d", ErrTruncated, r.pos)
		return 0
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

// count reads a length prefix and validates it against the remaining words
// (at wordsPerEntry words each), so corrupt prefixes cannot trigger huge
// allocations.
func (r *reader) count(wordsPerEntry int) int {
	n := r.get()
	if r.err != nil {
		return 0
	}
	if n < 0 || int64(wordsPerEntry)*n > int64(len(r.buf)-r.pos) {
		r.err = fmt.Errorf("%w: length %d at offset %d", ErrTruncated, n, r.pos)
		return 0
	}
	return int(n)
}

func (r *reader) slice(n int) []int64 {
	if r.err != nil {
		return nil
	}
	s := r.buf[r.pos : r.pos+n]
	r.pos += n
	return s
}

// Unmarshal decodes artifact bytes produced by Marshal. All failures are
// typed (ErrTruncated, ErrChecksum, ErrMagic, ErrVersion, ErrCorrupt or a
// wrapped section error); malformed input never panics. Decoding is
// canonical: every accepted input is exactly what Marshal writes for the
// decoded artifact, so the verified footer is its Checksum.
func Unmarshal(data []byte) (*Artifact, error) {
	if len(data)%8 != 0 || len(data) < 8*8 {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	words := make([]int64, len(data)/8)
	for i := range words {
		words[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
	}
	body, sum := words[:len(words)-1], words[len(words)-1]
	if body[0] != magic {
		return nil, ErrMagic
	}
	if body[1] != version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, body[1], version)
	}
	if fnvBytes(data[:len(data)-8]) != sum {
		return nil, ErrChecksum
	}
	r := &reader{buf: body, pos: 2}
	a := &Artifact{Seed: r.get()}
	k := r.get()
	if r.err == nil && (k < 1 || k > 64) {
		return nil, fmt.Errorf("%w: implausible oracle parameter k=%d", ErrCorrupt, k)
	}
	a.K = int(k)
	nameLen := r.count(1)
	name := make([]byte, nameLen)
	for i := range name {
		c := r.get()
		if r.err == nil && (c < 0 || c > 255) {
			return nil, fmt.Errorf("%w: algo name byte %d", ErrCorrupt, c)
		}
		name[i] = byte(c)
	}
	a.Algo = string(name)
	n := r.get()
	if r.err == nil && (n < 0 || n > 1<<31-1) {
		return nil, fmt.Errorf("%w: vertex count %d", ErrCorrupt, n)
	}
	m := r.count(1)
	if r.err != nil {
		return nil, r.err
	}
	b := graph.NewBuilder(int(n))
	prev := int64(-1)
	for i := 0; i < m; i++ {
		key := r.get()
		if r.err != nil {
			return nil, r.err
		}
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
	sp := r.count(1)
	if r.err != nil {
		return nil, r.err
	}
	a.Spanner = graph.NewEdgeSet(sp)
	prev = -1
	for i := 0; i < sp; i++ {
		key := r.get()
		if r.err != nil {
			return nil, r.err
		}
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
	ow := r.slice(r.count(1))
	rw := r.slice(r.count(1))
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing words", ErrCorrupt, len(body)-r.pos)
	}
	var err error
	if a.Oracle, err = oracle.FromWords(a.Graph, ow); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if a.Oracle.K() != a.K {
		return nil, fmt.Errorf("%w: oracle k=%d, header k=%d", ErrCorrupt, a.Oracle.K(), a.K)
	}
	if a.Routing, err = routing.FromWords(a.Graph, rw); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
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
