package fibonacci

import (
	"fmt"
	"testing"

	"spanner/internal/distsim"
	"spanner/internal/pinned"
)

// pinnedFib holds BuildDistributed's outputs (hash over the sorted spanner
// keys, then the ceased and repair counts) as recorded before the engine's
// round buffers were rewritten. T: 3 caps the ball waves so the
// cessation/repair path runs too.
var pinnedFib = map[string]pinned.Row{
	"gnp/1/T0":      {Rounds: 14, Messages: 5780, Words: 20792, MaxWords: 6, Hash: 0xa38010650c7101bc},
	"gnp/1/T3":      {Rounds: 32, Messages: 14500, Words: 51236, MaxWords: 28, Hash: 0xf14afc89ab93d7a0},
	"gnp/2/T0":      {Rounds: 11, Messages: 4622, Words: 13860, MaxWords: 4, Hash: 0xf3c610c7a7d25dd5},
	"gnp/2/T3":      {Rounds: 35, Messages: 16381, Words: 69500, MaxWords: 36, Hash: 0x4edad4b58ab52246},
	"gnp/3/T0":      {Rounds: 15, Messages: 6666, Words: 27528, MaxWords: 8, Hash: 0xb1076a16e8d26e8},
	"gnp/3/T3":      {Rounds: 38, Messages: 15596, Words: 57404, MaxWords: 34, Hash: 0xf98dad4550db0846},
	"grid/1/T0":     {Rounds: 50, Messages: 2907, Words: 9654, MaxWords: 4, Hash: 0x8b58456f7be28ac3},
	"grid/1/T3":     {Rounds: 103, Messages: 9696, Words: 32748, MaxWords: 10, Hash: 0x82f382aa7ed8ab28},
	"grid/2/T0":     {Rounds: 36, Messages: 1794, Words: 5508, MaxWords: 4, Hash: 0x8b58456f7be28ac3},
	"grid/2/T3":     {Rounds: 62, Messages: 11067, Words: 43226, MaxWords: 16, Hash: 0x696295b5150c8102},
	"grid/3/T0":     {Rounds: 52, Messages: 3754, Words: 13268, MaxWords: 6, Hash: 0x8b58456f7be28ac3},
	"grid/3/T3":     {Rounds: 132, Messages: 11059, Words: 40508, MaxWords: 14, Hash: 0x836d22b749cf4bd3},
	"isolated/1/T0": {Rounds: 15, Messages: 2995, Words: 10526, MaxWords: 6, Hash: 0x36e277120d2a0b48},
	"isolated/1/T3": {Rounds: 42, Messages: 8570, Words: 30780, MaxWords: 22, Hash: 0x7fffc2fcc1556a76},
	"isolated/2/T0": {Rounds: 13, Messages: 2232, Words: 6692, MaxWords: 4, Hash: 0x18b1abed3053860c},
	"isolated/2/T3": {Rounds: 24, Messages: 6039, Words: 29282, MaxWords: 20, Hash: 0xa0dba697fa42e6ca},
	"isolated/3/T0": {Rounds: 18, Messages: 3348, Words: 11400, MaxWords: 6, Hash: 0xb70551165835411e},
	"isolated/3/T3": {Rounds: 37, Messages: 7955, Words: 28952, MaxWords: 36, Hash: 0x9fbc72dc47a012bb},
}

// TestPinnedOutputs compares BuildDistributed against the pinned rows; run
// it with -cpu 1,2,4 to cover the worker counts.
func TestPinnedOutputs(t *testing.T) {
	t.Run("pooled", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			for gname, g := range pinned.Graphs(seed) {
				for _, capT := range []int{0, 3} {
					res, err := BuildDistributed(g, Options{Order: 2, T: capT, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					pinned.Check(t, pinnedFib, fmt.Sprintf("%s/%d/T%d", gname, seed, capT),
						pinRow(res.Metrics, pinned.Hash(res.Spanner.Keys(),
							int64(res.Ceased), int64(res.Repairs))))
				}
			}
		}
	})
}

func pinRow(m distsim.Metrics, hash uint64) pinned.Row {
	return pinned.Row{Rounds: m.Rounds, Messages: m.Messages, Words: m.Words,
		MaxWords: m.MaxMsgWords, Hash: hash}
}
