// Partitioned artifacts: a built artifact can be split into K parts, each
// holding a slice of the graph plus a replicated boundary, and a partition
// map that describes the split and pins every part by checksum. Both are
// word-stream files in the artifact format conventions: magic word, version
// word, length-prefixed sections, FNV-1a footer, deterministic encoding,
// bounds-checked decoding with typed errors (fuzzed by
// FuzzPartitionMapDecode and FuzzPartDecode).
//
// The map and the parts reference each other without a checksum cycle: a
// split is identified by SplitID — an FNV fold of (base artifact checksum,
// K, seed) — which every part carries, while the map additionally pins each
// part's exact file content by checksum. A router loads the map, verifies
// each part against its pinned checksum, and refuses mixed-split or
// tampered part sets.
package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

const (
	// partMagic spells "SPANPRT1" as little-endian ASCII.
	partMagic   int64 = 0x3154_5250_4e41_5053
	partVersion int64 = 1
	// mapMagic spells "SPANMAP1" as little-endian ASCII.
	mapMagic   int64 = 0x3150_414d_4e41_5053
	mapVersion int64 = 1
)

// Typed partition-set validation failures, matchable with errors.Is.
var (
	// ErrPartChecksum reports a part whose content checksum does not match
	// the checksum pinned for it in the partition map.
	ErrPartChecksum = errors.New("artifact: part checksum does not match partition map")
	// ErrSplitMismatch reports a part that belongs to a different split
	// (different base artifact, K or seed) than the partition map.
	ErrSplitMismatch = errors.New("artifact: part belongs to a different split")
)

// ComputeSplitID derives the deterministic identity of a split from the
// base artifact's checksum, the partition count and the assignment seed.
// Every part and the map carry it, so a part from a stale or foreign split
// can be rejected without a checksum cycle between map and parts.
func ComputeSplitID(baseChecksum int64, k int, seed int64) int64 {
	return fnvWords([]int64{partMagic, baseChecksum, int64(k), seed})
}

// Part is one partition's self-contained serving slice: the embedded
// artifact holds the induced subgraph over the covered vertices plus the
// full spanner (so path queries stay exact everywhere), the full oracle
// witness/distance tables with bunches pruned to the covered set (so dist
// queries between covered vertices are bit-identical to the unpartitioned
// oracle), and the full routing scheme words (landmark trees, used for
// composed cross-partition bounds).
type Part struct {
	// ID is this partition's index in [0, K).
	ID int
	// K is the number of partitions in the split.
	K int
	// SplitID identifies the split this part belongs to (ComputeSplitID).
	SplitID int64
	// Owned[v] is true when this partition owns vertex v.
	Owned []bool
	// Boundary[v] is true when v is replicated into this partition as a
	// cut-edge endpoint owned elsewhere. Disjoint from Owned; the covered
	// set is the union.
	Boundary []bool

	Art *Artifact
}

// Covered reports whether v's bunch is present in this part, i.e. whether
// dist queries with v as an endpoint are answered exactly here.
func (p *Part) Covered(v int32) bool {
	return v >= 0 && int(v) < len(p.Owned) && (p.Owned[v] || p.Boundary[v])
}

// Owns reports whether this partition owns vertex v.
func (p *Part) Owns(v int32) bool {
	return v >= 0 && int(v) < len(p.Owned) && p.Owned[v]
}

// appendVertexList appends the sorted list of set indices as a
// length-prefixed section.
func appendVertexList(w []int64, set []bool) []int64 {
	cnt := 0
	for _, b := range set {
		if b {
			cnt++
		}
	}
	w = append(w, int64(cnt))
	for v, b := range set {
		if b {
			w = append(w, int64(v))
		}
	}
	return w
}

// encode streams the part's word stream (without the checksum footer)
// through emit: its header and vertex sets, then the embedded artifact's
// stream.
func (p *Part) encode(emit func([]int64)) {
	w := []int64{partMagic, partVersion, p.SplitID, int64(p.ID), int64(p.K)}
	w = appendVertexList(w, p.Owned)
	w = appendVertexList(w, p.Boundary)
	emit(append(w, int64(p.Art.wordLen())))
	p.Art.encode(emit)
}

// wordLen returns the length of the part's word stream.
func (p *Part) wordLen() int {
	cnt := 0
	for _, set := range [][]bool{p.Owned, p.Boundary} {
		for _, in := range set {
			if in {
				cnt++
			}
		}
	}
	return 8 + cnt + p.Art.wordLen()
}

// Words serializes the part to its word stream (without the checksum
// footer Marshal appends).
func (p *Part) Words() []int64 { return streamWords(p.wordLen(), p.encode) }

// Checksum returns the FNV fold of the part's word stream — the value the
// partition map pins and replicas report as their generation checksum.
func (p *Part) Checksum() int64 { return streamSum(p.encode) }

// Marshal renders the part as its on-disk bytes: word stream plus FNV
// footer, little-endian.
func (p *Part) Marshal() []byte {
	buf, sum := streamBytes(p.wordLen(), p.encode, true)
	return binary.LittleEndian.AppendUint64(buf, uint64(sum))
}

// decodeWords converts little-endian bytes to words and peels the FNV
// footer, validating magic, version and checksum.
func decodeWords(data []byte, wantMagic, wantVersion int64, minWords int) ([]int64, error) {
	if len(data)%8 != 0 || len(data) < 8*minWords {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	words := make([]int64, len(data)/8)
	for i := range words {
		words[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
	}
	body, sum := words[:len(words)-1], words[len(words)-1]
	if body[0] != wantMagic {
		return nil, ErrMagic
	}
	if body[1] != wantVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, body[1], wantVersion)
	}
	if fnvWords(body) != sum {
		return nil, ErrChecksum
	}
	return body, nil
}

// readVertexSet decodes a sorted vertex list section into a []bool of
// length n, rejecting out-of-range, unsorted or duplicate entries.
func readVertexSet(r *reader, n int, what string) ([]bool, error) {
	cnt := r.count(1)
	if r.err != nil {
		return nil, r.err
	}
	set := make([]bool, n)
	prev := int64(-1)
	for i := 0; i < cnt; i++ {
		v := r.get()
		if r.err != nil {
			return nil, r.err
		}
		if v <= prev || v >= int64(n) {
			return nil, fmt.Errorf("%w: %s vertex %d at index %d", ErrCorrupt, what, v, i)
		}
		prev = v
		set[v] = true
	}
	return set, nil
}

// UnmarshalPart decodes part bytes produced by Part.Marshal. All failures
// are typed; malformed input never panics.
func UnmarshalPart(data []byte) (*Part, error) {
	body, err := decodeWords(data, partMagic, partVersion, 9)
	if err != nil {
		return nil, err
	}
	r := &reader{buf: body, pos: 2}
	p := &Part{SplitID: r.get(), ID: int(r.get()), K: int(r.get())}
	if r.err != nil {
		return nil, r.err
	}
	if p.K < 1 || p.K > 1<<20 || p.ID < 0 || p.ID >= p.K {
		return nil, fmt.Errorf("%w: partition id %d of %d", ErrCorrupt, p.ID, p.K)
	}
	// The vertex sets are bounded by n, which lives inside the embedded
	// artifact further along the stream, so decode them against a
	// permissive bound first and re-validate against the artifact's n
	// afterwards. The oracle section always holds > n words, so any valid
	// vertex id fits under len(body).
	permissive := len(body)
	owned, err := readVertexSet(r, permissive, "owned")
	if err != nil {
		return nil, err
	}
	boundary, err := readVertexSet(r, permissive, "boundary")
	if err != nil {
		return nil, err
	}
	alen := r.count(1)
	if r.err != nil {
		return nil, r.err
	}
	aw := r.slice(alen)
	if r.pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing words", ErrCorrupt, len(body)-r.pos)
	}
	// The part's footer already covered the embedded words: decode them in
	// place, hashing them once for the artifact's checksum.
	if len(aw) < 7 {
		return nil, fmt.Errorf("embedded artifact: %w: %d bytes", ErrTruncated, 8*(len(aw)+1))
	}
	if err := checkHeader(aw); err != nil {
		return nil, fmt.Errorf("embedded artifact: %w", err)
	}
	art, err := decodeBody(aw, fnvWords(aw))
	if err != nil {
		return nil, fmt.Errorf("embedded artifact: %w", err)
	}
	n := art.Graph.N()
	p.Owned = make([]bool, n)
	p.Boundary = make([]bool, n)
	for v := 0; v < len(owned) && v < n; v++ {
		p.Owned[v] = owned[v]
	}
	for v := 0; v < len(boundary) && v < n; v++ {
		p.Boundary[v] = boundary[v]
	}
	for v := n; v < len(owned); v++ {
		if owned[v] {
			return nil, fmt.Errorf("%w: owned vertex %d beyond n=%d", ErrCorrupt, v, n)
		}
	}
	for v := n; v < len(boundary); v++ {
		if boundary[v] {
			return nil, fmt.Errorf("%w: boundary vertex %d beyond n=%d", ErrCorrupt, v, n)
		}
	}
	for v := 0; v < n; v++ {
		if p.Owned[v] && p.Boundary[v] {
			return nil, fmt.Errorf("%w: vertex %d both owned and boundary", ErrCorrupt, v)
		}
	}
	p.Art = art
	return p, nil
}

// SavePart writes the part via temp file and rename (same torn-write
// discipline as Save).
func SavePart(path string, p *Part) error {
	return writeAtomic(path, p.Marshal())
}

// LoadPart memory-loads a part file written by SavePart.
func LoadPart(path string) (*Part, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := UnmarshalPart(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// PartRef pins one partition inside a PartitionMap.
type PartRef struct {
	// ID is the partition index in [0, K).
	ID int
	// Checksum is the part's content checksum (Part.Checksum).
	Checksum int64
	// Path is the part's file name relative to the map file (advisory; the
	// checksum, not the path, is authoritative).
	Path string
	// Vertices is the number of vertices the partition owns.
	Vertices int
}

// PartitionMap describes a complete split: which partition owns every
// vertex, and the exact content checksum of each part.
type PartitionMap struct {
	// K is the number of partitions.
	K int
	// SplitID identifies the split (ComputeSplitID over base checksum, K,
	// seed); every part of the split carries the same value.
	SplitID int64
	// BaseChecksum is the checksum of the unpartitioned artifact the split
	// was derived from.
	BaseChecksum int64
	// N is the global vertex count.
	N int
	// Owner[v] is the partition id owning vertex v.
	Owner []int32
	// Parts lists the K partitions in id order.
	Parts []PartRef
}

// Words serializes the map to its word stream (without the checksum footer
// Marshal appends).
func (m *PartitionMap) Words() []int64 {
	w := make([]int64, 0, 8+m.N+6*len(m.Parts))
	w = append(w, mapMagic, mapVersion, m.SplitID, m.BaseChecksum, int64(m.K), int64(m.N))
	for _, o := range m.Owner {
		w = append(w, int64(o))
	}
	w = append(w, int64(len(m.Parts)))
	for _, p := range m.Parts {
		w = append(w, int64(p.ID), p.Checksum, int64(p.Vertices), int64(len(p.Path)))
		for i := 0; i < len(p.Path); i++ {
			w = append(w, int64(p.Path[i]))
		}
	}
	return w
}

// Checksum returns the FNV fold of the map's word stream.
func (m *PartitionMap) Checksum() int64 { return fnvWords(m.Words()) }

// Marshal renders the map as its on-disk bytes.
func (m *PartitionMap) Marshal() []byte {
	words := m.Words()
	words = append(words, fnvWords(words))
	buf := make([]byte, 8*len(words))
	for i, v := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	return buf
}

// UnmarshalPartitionMap decodes map bytes produced by PartitionMap.Marshal.
// Structural failures — truncation, owner ids out of range, duplicate or
// out-of-range partition ids, part count not matching K — are typed and
// never panic.
func UnmarshalPartitionMap(data []byte) (*PartitionMap, error) {
	body, err := decodeWords(data, mapMagic, mapVersion, 8)
	if err != nil {
		return nil, err
	}
	r := &reader{buf: body, pos: 2}
	m := &PartitionMap{SplitID: r.get(), BaseChecksum: r.get(), K: int(r.get())}
	if r.err != nil {
		return nil, r.err
	}
	if m.K < 1 || m.K > 1<<20 {
		return nil, fmt.Errorf("%w: partition count %d", ErrCorrupt, m.K)
	}
	n := r.count(1)
	if r.err != nil {
		return nil, r.err
	}
	m.N = n
	m.Owner = make([]int32, n)
	for v := 0; v < n; v++ {
		o := r.get()
		if r.err != nil {
			return nil, r.err
		}
		if o < 0 || o >= int64(m.K) {
			return nil, fmt.Errorf("%w: owner %d of vertex %d out of [0,%d)", ErrCorrupt, o, v, m.K)
		}
		m.Owner[v] = int32(o)
	}
	np := r.count(4)
	if r.err != nil {
		return nil, r.err
	}
	if np != m.K {
		return nil, fmt.Errorf("%w: %d part refs for K=%d", ErrCorrupt, np, m.K)
	}
	seen := make([]bool, m.K)
	m.Parts = make([]PartRef, 0, np)
	for i := 0; i < np; i++ {
		id := r.get()
		sum := r.get()
		verts := r.get()
		if r.err != nil {
			return nil, r.err
		}
		if id < 0 || id >= int64(m.K) {
			return nil, fmt.Errorf("%w: part ref id %d out of [0,%d)", ErrCorrupt, id, m.K)
		}
		if seen[id] {
			return nil, fmt.Errorf("%w: duplicate partition id %d", ErrCorrupt, id)
		}
		seen[id] = true
		if verts < 0 || verts > int64(n) {
			return nil, fmt.Errorf("%w: part %d owns %d of %d vertices", ErrCorrupt, id, verts, n)
		}
		plen := r.count(1)
		if r.err != nil {
			return nil, r.err
		}
		path := make([]byte, plen)
		for j := range path {
			c := r.get()
			if r.err == nil && (c < 0 || c > 255) {
				return nil, fmt.Errorf("%w: part path byte %d", ErrCorrupt, c)
			}
			path[j] = byte(c)
		}
		m.Parts = append(m.Parts, PartRef{ID: int(id), Checksum: sum, Path: string(path), Vertices: int(verts)})
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing words", ErrCorrupt, len(body)-r.pos)
	}
	return m, nil
}

// Verify checks that part p is the exact part this map pins for its id:
// same split, known id, and content checksum equal to the pinned value.
func (m *PartitionMap) Verify(p *Part) error {
	if p.SplitID != m.SplitID || p.K != m.K {
		return fmt.Errorf("%w: part split %016x/K=%d, map split %016x/K=%d",
			ErrSplitMismatch, uint64(p.SplitID), p.K, uint64(m.SplitID), m.K)
	}
	if p.ID < 0 || p.ID >= len(m.Parts) {
		return fmt.Errorf("%w: part id %d not in map", ErrSplitMismatch, p.ID)
	}
	ref := m.Parts[p.ID]
	if got := p.Checksum(); got != ref.Checksum {
		return fmt.Errorf("%w: part %d has checksum %016x, map pins %016x",
			ErrPartChecksum, p.ID, uint64(got), uint64(ref.Checksum))
	}
	return nil
}

// SavePartitionMap writes the map via temp file and rename.
func SavePartitionMap(path string, m *PartitionMap) error {
	return writeAtomic(path, m.Marshal())
}

// LoadPartitionMap memory-loads a map file written by SavePartitionMap.
func LoadPartitionMap(path string) (*PartitionMap, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := UnmarshalPartitionMap(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// writeAtomic writes data to path via temp file, sync and rename.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".artifact-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
