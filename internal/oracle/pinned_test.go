package oracle

import (
	"fmt"
	"testing"

	"spanner/internal/distsim"
	"spanner/internal/pinned"
)

// pinnedOracle holds the distributed oracle's outputs (hash over the sorted
// spanner keys, then the oracle's serialized words) as recorded before the
// engine's round buffers were rewritten.
var pinnedOracle = map[string]pinned.Row{
	"gnp/1":      {Rounds: 19, Messages: 17176, Words: 73078, MaxWords: 27, Hash: 0xf20d17e40f5f9305},
	"gnp/2":      {Rounds: 21, Messages: 17688, Words: 87876, MaxWords: 57, Hash: 0xd43a0ee77ae63cd2},
	"gnp/3":      {Rounds: 21, Messages: 18127, Words: 84341, MaxWords: 31, Hash: 0x8da7e679052fda70},
	"grid/1":     {Rounds: 58, Messages: 11710, Words: 42988, MaxWords: 25, Hash: 0x8c6db38de15e8aaf},
	"grid/2":     {Rounds: 54, Messages: 12320, Words: 42082, MaxWords: 25, Hash: 0xd6d04eb8330e695c},
	"grid/3":     {Rounds: 68, Messages: 12135, Words: 43435, MaxWords: 17, Hash: 0x8904c6dae65261ea},
	"isolated/1": {Rounds: 24, Messages: 8747, Words: 38191, MaxWords: 23, Hash: 0x37105a308beb72a6},
	"isolated/2": {Rounds: 24, Messages: 8728, Words: 35304, MaxWords: 41, Hash: 0xbb1333a103d3d144},
	"isolated/3": {Rounds: 24, Messages: 9065, Words: 38465, MaxWords: 51, Hash: 0x98f4ed09ae0c2737},
}

// TestPinnedOutputs compares the distributed oracle against the pinned
// rows; run it with -cpu 1,2,4 to cover the worker counts.
func TestPinnedOutputs(t *testing.T) {
	t.Run("pooled", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			for gname, g := range pinned.Graphs(seed) {
				o, m, _, err := newDistributed(g, 3, seed, nil, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				pinned.Check(t, pinnedOracle, fmt.Sprintf("%s/%d", gname, seed),
					pinRow(m, pinned.Hash(o.Spanner().Keys(), o.Words()...)))
			}
		}
	})
}

func pinRow(m distsim.Metrics, hash uint64) pinned.Row {
	return pinned.Row{Rounds: m.Rounds, Messages: m.Messages, Words: m.Words,
		MaxWords: m.MaxMsgWords, Hash: hash}
}
