package distsim

import (
	"fmt"
	"math/rand"
	"testing"

	"spanner/internal/faults"
	"spanner/internal/pinned"
)

// pinnedBFS holds RunBFS's outputs (hash over Dist, Nearest and Parent, and
// for the faulted run the fault counters) as recorded before the engine's
// round buffers were rewritten.
var pinnedBFS = map[string]pinned.Row{
	"faulted":       {Rounds: 8, Messages: 2308, Words: 4616, MaxWords: 2, Hash: 0xcd56f8a1bf85b76c},
	"gnp/1/r0":      {Rounds: 5, Messages: 2308, Words: 4616, MaxWords: 2, Hash: 0x6aa399bb6718bcf8},
	"gnp/1/r3":      {Rounds: 3, Messages: 1292, Words: 2584, MaxWords: 2, Hash: 0x696bf1fb9f31d9b0},
	"gnp/2/r0":      {Rounds: 5, Messages: 2308, Words: 4616, MaxWords: 2, Hash: 0x688a82d113fb662b},
	"gnp/2/r3":      {Rounds: 3, Messages: 1073, Words: 2146, MaxWords: 2, Hash: 0x272fdd9efcda3511},
	"gnp/3/r0":      {Rounds: 5, Messages: 2366, Words: 4732, MaxWords: 2, Hash: 0x2c9a25310927c1b7},
	"gnp/3/r3":      {Rounds: 3, Messages: 1071, Words: 2142, MaxWords: 2, Hash: 0xdd5b1c15f2e5d46d},
	"grid/1/r0":     {Rounds: 12, Messages: 960, Words: 1920, MaxWords: 2, Hash: 0x399386e23f6f6c00},
	"grid/1/r3":     {Rounds: 3, Messages: 114, Words: 228, MaxWords: 2, Hash: 0x2f0465f491800bfa},
	"grid/2/r0":     {Rounds: 17, Messages: 960, Words: 1920, MaxWords: 2, Hash: 0x3c7299ea6c6d1d04},
	"grid/2/r3":     {Rounds: 3, Messages: 147, Words: 294, MaxWords: 2, Hash: 0x9d0645272978dc7a},
	"grid/3/r0":     {Rounds: 22, Messages: 960, Words: 1920, MaxWords: 2, Hash: 0xa303fbb240a8cca9},
	"grid/3/r3":     {Rounds: 3, Messages: 88, Words: 176, MaxWords: 2, Hash: 0x1449ae5fddd1f514},
	"isolated/1/r0": {Rounds: 6, Messages: 1134, Words: 2268, MaxWords: 2, Hash: 0x3b8b254f458e4ff0},
	"isolated/1/r3": {Rounds: 3, Messages: 421, Words: 842, MaxWords: 2, Hash: 0xefbf56255c23e8bf},
	"isolated/2/r0": {Rounds: 6, Messages: 1114, Words: 2228, MaxWords: 2, Hash: 0x2f5075340a8ba72f},
	"isolated/2/r3": {Rounds: 3, Messages: 405, Words: 810, MaxWords: 2, Hash: 0xc09ade1f51b5b500},
	"isolated/3/r0": {Rounds: 6, Messages: 1176, Words: 2352, MaxWords: 2, Hash: 0xc9f1faff4851cac8},
	"isolated/3/r3": {Rounds: 3, Messages: 561, Words: 1122, MaxWords: 2, Hash: 0xa886be9636ec96e},
}

// TestPinnedOutputs compares RunBFS, unbounded and truncated, and one run
// under a drop/duplicate/corrupt/delay plan against the pinned rows; run it
// with -cpu 1,2,4 to cover the worker counts.
func TestPinnedOutputs(t *testing.T) {
	t.Run("pooled", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			for gname, g := range pinned.Graphs(seed) {
				rng := rand.New(rand.NewSource(seed))
				sources := []int32{int32(rng.Intn(g.N())), int32(rng.Intn(g.N())), int32(rng.Intn(g.N()))}
				for _, radius := range []int64{0, 3} {
					res, err := RunBFSRadius(g, sources, radius, Config{})
					if err != nil {
						t.Fatal(err)
					}
					pinned.Check(t, pinnedBFS, fmt.Sprintf("%s/%d/r%d", gname, seed, radius),
						bfsRow(res, nil))
				}
			}
		}
		g := pinned.Graphs(1)["gnp"]
		res, err := RunBFS(g, []int32{0, 150}, Config{
			Faults: &faults.Plan{Seed: 77, Drop: 0.2, Duplicate: 0.1, Corrupt: 0.05,
				Delay: 0.1, DelayRounds: 2}})
		if err != nil {
			t.Fatal(err)
		}
		f := res.Metrics.Faults
		pinned.Check(t, pinnedBFS, "faulted", bfsRow(res, []int64{f.Dropped, f.DroppedLink,
			f.DroppedCrash, f.Duplicated, f.Corrupted, f.Delayed}))
	})
}

func bfsRow(res *BFSResult, extra []int64) pinned.Row {
	var words []int64
	for v := range res.Dist {
		words = append(words, int64(res.Dist[v]), int64(res.Nearest[v]), int64(res.Parent[v]))
	}
	m := res.Metrics
	return pinned.Row{Rounds: m.Rounds, Messages: m.Messages, Words: m.Words,
		MaxWords: m.MaxMsgWords, Hash: pinned.Hash(nil, append(words, extra...)...)}
}
