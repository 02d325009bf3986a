// Package pinned holds the fixtures shared by the pinned-output tests of
// the distributed builders: the input graphs, the row type and the hash
// that fingerprints an output. A pinned row records a run's rounds,
// messages, words, largest message and output hash; a change to the
// simulator must reproduce every row exactly.
package pinned

import (
	"math/rand"
	"slices"
	"testing"

	"spanner/internal/graph"
)

// Row is one pinned run.
type Row struct {
	Rounds   int
	Messages int64
	Words    int64
	MaxWords int
	Hash     uint64
}

// Hash is FNV-1a over the sorted keys followed by extra (order kept).
func Hash(keys []int64, extra ...int64) uint64 {
	keys = slices.Clone(keys)
	slices.Sort(keys)
	h := uint64(1469598103934665603)
	for _, w := range append(keys, extra...) {
		for shift := 0; shift < 64; shift += 8 {
			h ^= uint64(byte(uint64(w) >> shift))
			h *= 1099511628211
		}
	}
	return h
}

// Graphs are the inputs for one seed: a sparse gnp on 300 vertices, a
// 16×16 grid, and a gnp on 200 vertices with 40 isolated vertices appended.
func Graphs(seed int64) map[string]*graph.Graph {
	sparse := graph.Gnp(200, 6.0/200, rand.New(rand.NewSource(seed)))
	var edges [][2]int32
	for v := int32(0); int(v) < sparse.N(); v++ {
		for _, w := range sparse.Neighbors(v) {
			if v < w {
				edges = append(edges, [2]int32{v, w})
			}
		}
	}
	return map[string]*graph.Graph{
		"gnp":      graph.Gnp(300, 8.0/300, rand.New(rand.NewSource(seed))),
		"grid":     graph.Grid(16, 16),
		"isolated": graph.FromEdges(240, edges),
	}
}

// Check fails t when got differs from want[name], printing got as a table
// entry.
func Check(t testing.TB, want map[string]Row, name string, got Row) {
	t.Helper()
	if w, ok := want[name]; !ok || w != got {
		t.Errorf("%s: got %+v, pinned %+v\n\t%q: {Rounds: %d, Messages: %d, Words: %d, MaxWords: %d, Hash: %#x},",
			name, got, w, name, got.Rounds, got.Messages, got.Words, got.MaxWords, got.Hash)
	}
}
