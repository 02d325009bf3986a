// Partitioned artifacts: a built artifact can be split into K parts, each
// holding a slice of the graph plus a replicated boundary, and a partition
// map that describes the split and pins every part by checksum. Both are
// codec images in the artifact's conventions: magic, version,
// length-prefixed sections, checksum footer, deterministic encoding,
// bounds-checked decoding with typed errors (fuzzed by
// FuzzPartitionMapDecode and FuzzPartDecode).
//
// The map and the parts reference each other without a checksum cycle: a
// split is identified by SplitID — a checksum over (base artifact
// checksum, K, seed) — which every part carries, while the map additionally pins each
// part's exact file content by checksum. A router loads the map, verifies
// each part against its pinned checksum, and refuses mixed-split or
// tampered part sets.
package artifact

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"spanner/internal/codec"
)

const (
	// partMagic spells "SPANPRT1" as little-endian ASCII.
	partMagic   int64 = 0x3154_5250_4e41_5053
	partVersion int64 = 2
	// partMinLen is the shortest part file: header, split id, id, K, the
	// two set lengths, the artifact length, an artifact's header and the
	// footer.
	partMinLen = 16 + 8 + 4 + 4 + 4 + 4 + 8 + 16 + 8
	// mapMagic spells "SPANMAP1" as little-endian ASCII.
	mapMagic   int64 = 0x3150_414d_4e41_5053
	mapVersion int64 = 2
	// mapMinLen is the shortest map file: header, split id, base checksum,
	// K, N, the part count and the footer.
	mapMinLen = 16 + 8 + 8 + 4 + 4 + 4 + 8
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
	w := codec.NewWriter(32)
	w.Int64s([]int64{partMagic, baseChecksum, int64(k), seed})
	return codec.Sum(w.Bytes())
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

// writeVertexList writes the sorted list of set indices as a
// length-prefixed section.
func writeVertexList(w *codec.Writer, set []bool) {
	w.Int(int64(setSize(set)))
	for v, b := range set {
		if b {
			w.Int(int64(v))
		}
	}
}

// setSize returns the number of members of set.
func setSize(set []bool) int {
	cnt := 0
	for _, in := range set {
		if in {
			cnt++
		}
	}
	return cnt
}

// encode writes the part's values (without the checksum footer): its
// header and vertex sets, then the embedded artifact's image.
func (p *Part) encode(w *codec.Writer) {
	w.Int64s([]int64{partMagic, partVersion, p.SplitID})
	w.Int(int64(p.ID))
	w.Int(int64(p.K))
	writeVertexList(w, p.Owned)
	writeVertexList(w, p.Boundary)
	w.Int64(int64(p.Art.wordLen()))
	p.Art.encode(w)
}

// image renders the part's image, with room for the footer.
func (p *Part) image() *codec.Writer {
	size := 16 + 8 + 4*(4+setSize(p.Owned)+setSize(p.Boundary)) + 8 + p.Art.imageLen()
	w := codec.NewWriter(size + 8)
	p.encode(w)
	return w
}

// Checksum returns the checksum of the part's image — the value the
// partition map pins and replicas report as their generation checksum.
func (p *Part) Checksum() int64 { return codec.Sum(p.image().Bytes()) }

// Marshal renders the part as its on-disk bytes: image plus checksum
// footer.
func (p *Part) Marshal() []byte { return p.image().Seal() }

// readVertexSet decodes a sorted vertex list section into a []bool of
// length n, rejecting out-of-range, unsorted or duplicate entries.
func readVertexSet(r *codec.Reader, n int, what string) ([]bool, error) {
	cnt := r.Count(4)
	if err := r.Err(); err != nil {
		return nil, err
	}
	set := make([]bool, n)
	prev := int64(-1)
	for i := 0; i < cnt; i++ {
		v := r.Int()
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
	r, _, err := codec.Open(data, partMagic, partVersion, partMinLen)
	if err != nil {
		return nil, err
	}
	p := &Part{SplitID: r.Int64(), ID: int(r.Int()), K: int(r.Int())}
	if p.K < 1 || p.K > 1<<20 || p.ID < 0 || p.ID >= p.K {
		return nil, fmt.Errorf("%w: partition id %d of %d", ErrCorrupt, p.ID, p.K)
	}
	// The vertex sets are bounded by n, which lives inside the embedded
	// artifact further along the image, so decode them against a
	// permissive bound first and re-validate against the artifact's n
	// afterwards. The oracle section always holds > n values of 4 bytes,
	// so any valid vertex id fits under the bytes left / 4.
	permissive := r.Left() / 4
	owned, err := readVertexSet(r, permissive, "owned")
	if err != nil {
		return nil, err
	}
	boundary, err := readVertexSet(r, permissive, "boundary")
	if err != nil {
		return nil, err
	}
	alen := r.Count64(4)
	// The part's footer already covered the embedded image: decode it in
	// place, hashing it once for the artifact's checksum.
	sum := codec.Sum(r.Rest())
	if err := r.Header(magic, version); err != nil {
		return nil, fmt.Errorf("embedded artifact: %w", err)
	}
	art, err := decodeBody(r, sum)
	if err != nil {
		return nil, fmt.Errorf("embedded artifact: %w", err)
	}
	if art.wordLen() != alen {
		return nil, fmt.Errorf("%w: embedded artifact of %d values, its length says %d", ErrCorrupt, art.wordLen(), alen)
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

// encode writes the map's values (without the checksum footer). The split
// id and the checksums take 8 bytes; everything else takes 4.
func (m *PartitionMap) encode(w *codec.Writer) {
	w.Int64s([]int64{mapMagic, mapVersion, m.SplitID, m.BaseChecksum})
	w.Int(int64(m.K))
	w.Int(int64(m.N))
	w.Int32s(m.Owner)
	w.Int(int64(len(m.Parts)))
	for _, p := range m.Parts {
		w.Int(int64(p.ID))
		w.Int64(p.Checksum)
		w.Int(int64(p.Vertices))
		w.Int(int64(len(p.Path)))
		for i := 0; i < len(p.Path); i++ {
			w.Int(int64(p.Path[i]))
		}
	}
}

// image renders the map's image, with room for the footer.
func (m *PartitionMap) image() *codec.Writer {
	w := codec.NewWriter(mapMinLen + 4*len(m.Owner) + 20*len(m.Parts))
	m.encode(w)
	return w
}

// Checksum returns the checksum of the map's image.
func (m *PartitionMap) Checksum() int64 { return codec.Sum(m.image().Bytes()) }

// Marshal renders the map as its on-disk bytes.
func (m *PartitionMap) Marshal() []byte { return m.image().Seal() }

// UnmarshalPartitionMap decodes map bytes produced by PartitionMap.Marshal.
// Structural failures — truncation, owner ids out of range, duplicate or
// out-of-range partition ids, part count not matching K — are typed and
// never panic.
func UnmarshalPartitionMap(data []byte) (*PartitionMap, error) {
	r, _, err := codec.Open(data, mapMagic, mapVersion, mapMinLen)
	if err != nil {
		return nil, err
	}
	m := &PartitionMap{SplitID: r.Int64(), BaseChecksum: r.Int64(), K: int(r.Int())}
	if m.K < 1 || m.K > 1<<20 {
		return nil, fmt.Errorf("%w: partition count %d", ErrCorrupt, m.K)
	}
	m.N = r.Count(4)
	m.Owner = make([]int32, m.N)
	r.Int32s(m.Owner)
	for v, o := range m.Owner {
		if o < 0 || int(o) >= m.K {
			return nil, fmt.Errorf("%w: owner %d of vertex %d out of [0,%d)", ErrCorrupt, o, v, m.K)
		}
	}
	// A part ref is at least an id, a checksum, a count and a path length.
	np := r.Count(20)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if np != m.K {
		return nil, fmt.Errorf("%w: %d part refs for K=%d", ErrCorrupt, np, m.K)
	}
	seen := make([]bool, m.K)
	m.Parts = make([]PartRef, 0, np)
	for i := 0; i < np; i++ {
		id, sum, verts := r.Int(), r.Int64(), r.Int()
		if id < 0 || id >= int64(m.K) {
			return nil, fmt.Errorf("%w: part ref id %d out of [0,%d)", ErrCorrupt, id, m.K)
		}
		if seen[id] {
			return nil, fmt.Errorf("%w: duplicate partition id %d", ErrCorrupt, id)
		}
		seen[id] = true
		if verts < 0 || verts > int64(m.N) {
			return nil, fmt.Errorf("%w: part %d owns %d of %d vertices", ErrCorrupt, id, verts, m.N)
		}
		path := make([]byte, r.Count(4))
		for j := range path {
			c := r.Int()
			if c < 0 || c > 255 {
				return nil, fmt.Errorf("%w: part path byte %d", ErrCorrupt, c)
			}
			path[j] = byte(c)
		}
		m.Parts = append(m.Parts, PartRef{ID: int(id), Checksum: sum, Path: string(path), Vertices: int(verts)})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Left() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Left())
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
