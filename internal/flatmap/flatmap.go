// Package flatmap stores one small int32→int32 map per vertex in four flat
// arrays: every row's entries sorted by key in one entry slab, and a
// per-row open-addressed hash index over them in one slot slab. The oracle's
// bunches and the routing scheme's vicinity tables are such maps. A table
// is a handful of allocations whatever the vertex count, Encode writes
// each row in key order as stored, and a lookup probes the row's index —
// hashing, because binary search over the sorted rows is slower than a Go
// map.
//
// A row is either present (possibly empty) or absent; Encode writes an
// absent row as -1 and a present one as its length, so the distinction
// survives a round trip. Rows are immutable once built.
package flatmap

import (
	"fmt"
	"slices"

	"spanner/internal/codec"
)

// Entry is one key/value pair of a row.
type Entry struct{ Key, Val int32 }

// Staged is an entry bound for row Row, as FromStaged collects them.
type Staged struct {
	Row int32
	Entry
}

// Rows is n per-vertex maps. Row v's entries are ent[off[v]:off[v+1]],
// sorted by key; its index is slot[hoff[v]:hoff[v+1]], a power-of-two
// linear-probing table of entry positions (-1 for an empty slot) that is
// never full. An absent row has an empty index; a present one has at
// least one slot.
type Rows struct {
	off, hoff []int32
	ent       []Entry
	slot      []int32
}

// hash spreads a key over the slot bits; the index masks its low bits.
func hash(key int32) uint32 {
	h := uint32(key) * 0x9e3779b9
	return h ^ h>>16
}

// slots returns the index size for a row of c entries: the smallest power
// of two above 1.5c, so the load stays below 2/3 and a probe always ends
// at an empty slot.
func slots(c int32) int32 {
	s := int32(1)
	for s <= c+c/2 {
		s <<= 1
	}
	return s
}

// Get returns row v's value for key. An absent row holds no key.
func (r *Rows) Get(v, key int32) (int32, bool) {
	lo, hi := r.hoff[v], r.hoff[v+1]
	if lo == hi {
		return 0, false
	}
	idx := r.slot[lo:hi]
	mask := uint32(len(idx) - 1)
	for h := hash(key) & mask; ; h = (h + 1) & mask {
		e := idx[h]
		if e < 0 {
			return 0, false
		}
		if r.ent[e].Key == key {
			return r.ent[e].Val, true
		}
	}
}

// N returns the number of rows.
func (r *Rows) N() int { return len(r.off) - 1 }

// Len returns the number of entries over all rows.
func (r *Rows) Len() int { return len(r.ent) }

// Row returns row v's entries in ascending key order. The slice aliases
// the table and must not be modified.
func (r *Rows) Row(v int32) []Entry { return r.ent[r.off[v]:r.off[v+1]] }

// Present reports whether row v is present (it may still be empty).
func (r *Rows) Present(v int32) bool { return r.hoff[v+1] > r.hoff[v] }

// WordLen returns the number of values Encode writes: per row, -1 when
// absent, else its length followed by key, value pairs.
func (r *Rows) WordLen() int { return r.N() + 2*len(r.ent) }

// Encode writes the rows as 4-byte values.
func (r *Rows) Encode(w *codec.Writer) {
	for v := int32(0); int(v) < r.N(); v++ {
		if !r.Present(v) {
			w.Int(-1)
			continue
		}
		row := r.Row(v)
		w.Int(int64(len(row)))
		for _, e := range row {
			w.Int(int64(e.Key))
			w.Int(int64(e.Val))
		}
	}
}

// Decode reads n rows written by Encode. It accepts only what Encode could
// have written for keys and values in [0, limit): keys strictly increasing
// within a row, and -1 as the only negative length.
func Decode(rd *codec.Reader, n, limit int) (*Rows, error) {
	// A first pass over the row lengths sizes the entry slab exactly.
	scan, entries := *rd, 0
	for v := 0; v < n; v++ {
		switch c := scan.Int(); {
		case c < -1:
			return nil, fmt.Errorf("row %d has corrupt length %d", v, c)
		case c > 0:
			scan.Skip(8 * int(c))
			entries += int(c)
		}
	}
	if err := scan.Err(); err != nil {
		return nil, err
	}
	b := NewBuilder(n, entries)
	for v := 0; v < n; v++ {
		c := rd.Int()
		for j, prev := int64(0), int64(-1); j < c; j++ {
			key, val := rd.Int(), rd.Int()
			if key <= prev || key >= int64(limit) || val < 0 || val >= int64(limit) {
				return nil, fmt.Errorf("row %d entry %d not sorted in range: %d -> %d", v, j, key, val)
			}
			prev = key
			b.Add(int32(key), int32(val))
		}
		b.End(c >= 0)
	}
	return b.Rows(), nil
}

// Builder lays out rows in row order: Add appends to the current row and
// End closes it. Keys within a row must be added strictly increasing.
type Builder struct {
	r Rows
	v int32
}

// NewBuilder returns a builder for n rows; entries is a capacity hint.
func NewBuilder(n, entries int) *Builder {
	return &Builder{r: Rows{
		off:  make([]int32, n+1),
		hoff: make([]int32, n+1),
		ent:  make([]Entry, 0, entries),
	}}
}

// Add appends an entry to the current row.
func (b *Builder) Add(key, val int32) {
	b.r.ent = append(b.r.ent, Entry{Key: key, Val: val})
}

// End closes the current row, present or absent; an absent row must have
// no entries.
func (b *Builder) End(present bool) {
	b.v++
	b.r.off[b.v] = int32(len(b.r.ent))
	if present {
		b.r.hoff[b.v] = 1
	}
}

// Rows indexes the laid-out rows and returns them. Every row must have
// been ended.
func (b *Builder) Rows() *Rows {
	b.r.index()
	return &b.r
}

// index turns the presence marks hoff[v+1] ∈ {0, 1} into slot offsets and
// fills each present row's index.
func (r *Rows) index() {
	n := r.N()
	for v := 0; v < n; v++ {
		size := int32(0)
		if r.hoff[v+1] != 0 {
			size = slots(r.off[v+1] - r.off[v])
		}
		r.hoff[v+1] = r.hoff[v] + size
	}
	r.slot = make([]int32, r.hoff[n])
	for i := range r.slot {
		r.slot[i] = -1
	}
	for v := 0; v < n; v++ {
		idx := r.slot[r.hoff[v]:r.hoff[v+1]]
		mask := uint32(len(idx) - 1)
		for e := r.off[v]; e < r.off[v+1]; e++ {
			h := hash(r.ent[e].Key) & mask
			for idx[h] >= 0 {
				h = (h + 1) & mask
			}
			idx[h] = e
		}
	}
}

// FromStaged lays out n rows from staged entries. A row with no staged
// entry is absent. Keys must be distinct within a row; a row staged out of
// key order is sorted, and rows staged in order keep it at no cost.
func FromStaged(n int, stage []Staged) *Rows {
	r := Rows{
		off:  make([]int32, n+1),
		hoff: make([]int32, n+1),
		ent:  make([]Entry, len(stage)),
	}
	for _, s := range stage {
		r.off[s.Row+1]++
	}
	for v := 0; v < n; v++ {
		if r.off[v+1] > 0 {
			r.hoff[v+1] = 1
		}
		r.off[v+1] += r.off[v]
	}
	next := make([]int32, n)
	copy(next, r.off[:n])
	for _, s := range stage {
		r.ent[next[s.Row]] = s.Entry
		next[s.Row]++
	}
	for v := 0; v < n; v++ {
		row := r.ent[r.off[v]:r.off[v+1]]
		if !slices.IsSortedFunc(row, byKey) {
			slices.SortFunc(row, byKey)
		}
	}
	r.index()
	return &r
}

func byKey(a, b Entry) int { return int(a.Key) - int(b.Key) }

// Prune returns a copy holding only the rows v with keep[v] (v < len(keep));
// every other row becomes absent.
func (r *Rows) Prune(keep []bool) *Rows {
	n := r.N()
	kept := 0
	for v := 0; v < n && v < len(keep); v++ {
		if keep[v] {
			kept += int(r.off[v+1] - r.off[v])
		}
	}
	b := NewBuilder(n, kept)
	for v := int32(0); int(v) < n; v++ {
		keepRow := int(v) < len(keep) && keep[v] && r.Present(v)
		if keepRow {
			b.r.ent = append(b.r.ent, r.Row(v)...)
		}
		b.End(keepRow)
	}
	return b.Rows()
}
