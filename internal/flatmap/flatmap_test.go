package flatmap

import (
	"math/rand"
	"slices"
	"testing"

	"spanner/internal/codec"
)

// TestRowsMatchMaps lays out random rows — absent, present but empty,
// and long enough to wrap their probe sequences — both from staged entries
// in shuffled order and row by row, and checks every lookup, row and
// encoding against per-row Go maps.
func TestRowsMatchMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(20)
		want := make([]map[int32]int32, n)
		var stage []Staged
		for v := range want {
			if rng.Intn(4) == 0 {
				continue // absent
			}
			want[v] = map[int32]int32{}
			for c := rng.Intn(40); c > 0; c-- {
				key := int32(rng.Intn(64))
				if _, dup := want[v][key]; dup {
					continue
				}
				want[v][key] = int32(rng.Intn(1000))
				stage = append(stage, Staged{Row: int32(v), Entry: Entry{Key: key, Val: want[v][key]}})
			}
		}
		rng.Shuffle(len(stage), func(i, j int) { stage[i], stage[j] = stage[j], stage[i] })
		staged := FromStaged(n, stage)

		b := NewBuilder(n, len(stage))
		for v := range want {
			for _, e := range staged.Row(int32(v)) {
				b.Add(e.Key, e.Val)
			}
			b.End(want[v] != nil)
		}
		built := b.Rows()

		for name, r := range map[string]*Rows{"staged": staged, "built": built} {
			if r.N() != n || r.Len() != len(stage) {
				t.Fatalf("%s: %d rows, %d entries; want %d, %d", name, r.N(), r.Len(), n, len(stage))
			}
			for v := range want {
				// FromStaged drops rows that got no entry.
				present := want[v] != nil && (name == "built" || len(want[v]) > 0)
				if r.Present(int32(v)) != present {
					t.Fatalf("%s trial %d: Present(%d) = %v, want %v", name, trial, v, r.Present(int32(v)), present)
				}
				row := r.Row(int32(v))
				if len(row) != len(want[v]) {
					t.Fatalf("%s trial %d: row %d has %d entries, want %d", name, trial, v, len(row), len(want[v]))
				}
				for i, e := range row {
					if i > 0 && row[i-1].Key >= e.Key {
						t.Fatalf("%s trial %d: row %d not sorted", name, trial, v)
					}
				}
				for key := int32(-1); key <= 64; key++ {
					got, ok := r.Get(int32(v), key)
					w, wok := want[v][key]
					if ok != wok || got != w {
						t.Fatalf("%s trial %d: Get(%d, %d) = %d,%v, want %d,%v", name, trial, v, key, got, ok, w, wok)
					}
				}
			}
			words := codec.NewWords(0)
			r.Encode(words)
			if len(words.Words()) != r.WordLen() {
				t.Fatalf("%s: WordLen %d, rows encode to %d words", name, r.WordLen(), len(words.Words()))
			}
			img := codec.NewWriter(0)
			r.Encode(img)
			rd := codec.NewReader(img.Bytes())
			dec, err := Decode(rd, n, 1000)
			if err != nil || rd.Left() != 0 {
				t.Fatalf("%s: decode: %v, %d bytes left", name, err, rd.Left())
			}
			for v := range want {
				if dec.Present(int32(v)) != r.Present(int32(v)) || !slices.Equal(dec.Row(int32(v)), r.Row(int32(v))) {
					t.Fatalf("%s trial %d: row %d changed in a round trip", name, trial, v)
				}
			}
		}

		keep := make([]bool, rng.Intn(n+1))
		for v := range keep {
			keep[v] = rng.Intn(2) == 0
		}
		pruned := built.Prune(keep)
		for v := range want {
			kept := v < len(keep) && keep[v] && want[v] != nil
			if pruned.Present(int32(v)) != kept {
				t.Fatalf("trial %d: pruned Present(%d) = %v, want %v", trial, v, pruned.Present(int32(v)), kept)
			}
			for key := range want[v] {
				if _, ok := pruned.Get(int32(v), key); ok != kept {
					t.Fatalf("trial %d: pruned Get(%d, %d) found = %v, want %v", trial, v, key, ok, kept)
				}
			}
		}
	}
}
