package baseline

import (
	"fmt"
	"math/rand"
	"testing"

	"spanner/internal/distsim"
	"spanner/internal/faults"
	"spanner/internal/graph"
	"spanner/internal/pinned"
)

// pinnedBaswanaSen holds BaswanaSenDistributedOpts's outputs (the hash folds
// the sorted spanner keys, and for the faulted run also the fault counters
// and whether a degradation report was attached). A change to the simulator
// must leave every row identical at every GOMAXPROCS.
var pinnedBaswanaSen = map[string]pinned.Row{
	"faulted":       {Rounds: 11, Messages: 5571, Words: 26751, MaxWords: 5, Hash: 0x76d351206994b92b},
	"gnp/1/k2":      {Rounds: 3, Messages: 3384, Words: 16516, MaxWords: 5, Hash: 0x9191343311e04291},
	"gnp/1/k3":      {Rounds: 5, Messages: 5727, Words: 27467, MaxWords: 5, Hash: 0x6f4bbdabf9e7623d},
	"gnp/2/k2":      {Rounds: 3, Messages: 3708, Words: 18012, MaxWords: 5, Hash: 0xec77e2e4bf101a},
	"gnp/2/k3":      {Rounds: 5, Messages: 5903, Words: 28307, MaxWords: 5, Hash: 0xff6eb27f9ffcbd28},
	"gnp/3/k2":      {Rounds: 3, Messages: 3676, Words: 17904, MaxWords: 5, Hash: 0x86b2fb2a0b353b1d},
	"gnp/3/k3":      {Rounds: 5, Messages: 5316, Words: 25576, MaxWords: 5, Hash: 0x8f7b96c88976471d},
	"grid/1/k2":     {Rounds: 3, Messages: 1271, Words: 6147, MaxWords: 5, Hash: 0x7c7c7e43a5c2c203},
	"grid/1/k3":     {Rounds: 5, Messages: 1813, Words: 8565, MaxWords: 5, Hash: 0xe2d5b187887e1007},
	"grid/2/k2":     {Rounds: 3, Messages: 1338, Words: 6438, MaxWords: 5, Hash: 0x7c7c7e43a5c2c203},
	"grid/2/k3":     {Rounds: 5, Messages: 1834, Words: 8662, MaxWords: 5, Hash: 0x45708f699c5bf141},
	"grid/3/k2":     {Rounds: 3, Messages: 1370, Words: 6578, MaxWords: 5, Hash: 0x7c7c7e43a5c2c203},
	"grid/3/k3":     {Rounds: 5, Messages: 1768, Words: 8348, MaxWords: 5, Hash: 0x643479b8803bdb94},
	"isolated/1/k2": {Rounds: 3, Messages: 1643, Words: 7979, MaxWords: 5, Hash: 0x673b23419c118d01},
	"isolated/1/k3": {Rounds: 5, Messages: 2663, Words: 12735, MaxWords: 5, Hash: 0x3e176b62dec9663e},
	"isolated/2/k2": {Rounds: 3, Messages: 1766, Words: 8530, MaxWords: 5, Hash: 0x826f567ff7793712},
	"isolated/2/k3": {Rounds: 5, Messages: 2647, Words: 12599, MaxWords: 5, Hash: 0xb14927b53f5d2e41},
	"isolated/3/k2": {Rounds: 3, Messages: 1843, Words: 8915, MaxWords: 5, Hash: 0x66b88e312347274a},
	"isolated/3/k3": {Rounds: 5, Messages: 2459, Words: 11767, MaxWords: 5, Hash: 0xf418c3d106b2fcf4},
}

// TestPinnedOutputs compares distributed Baswana–Sen at k=2 and k=3 over
// pinned.Graphs for three seeds, and one k=3 run under a fault plan with
// Degrade, against the pinned rows; run it with -cpu 1,2,4.
func TestPinnedOutputs(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for gname, g := range pinned.Graphs(seed) {
			for _, k := range []int{2, 3} {
				res, m, err := BaswanaSenDistributedOpts(g, k, DistOptions{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				pinned.Check(t, pinnedBaswanaSen, fmt.Sprintf("%s/%d/k%d", gname, seed, k),
					pinRow(m, pinned.Hash(res.Spanner.Keys())))
			}
		}
	}
	g := graph.Gnp(300, 8.0/300, rand.New(rand.NewSource(1)))
	res, m, err := BaswanaSenDistributedOpts(g, 3, DistOptions{Seed: 1, Degrade: true,
		Faults: &faults.Plan{Seed: 5, Drop: 0.02, Duplicate: 0.02, Delay: 0.05, DelayRounds: 2}})
	if err != nil {
		t.Fatal(err)
	}
	f := m.Faults
	degraded := int64(0)
	if res.Degradation != nil {
		degraded = 1
	}
	pinned.Check(t, pinnedBaswanaSen, "faulted", pinRow(m, pinned.Hash(res.Spanner.Keys(),
		m.CapExceeded, f.Dropped, f.DroppedLink, f.DroppedCrash, f.Duplicated, f.Corrupted,
		f.Delayed, degraded)))
}

func pinRow(m distsim.Metrics, hash uint64) pinned.Row {
	return pinned.Row{Rounds: m.Rounds, Messages: m.Messages, Words: m.Words,
		MaxWords: m.MaxMsgWords, Hash: hash}
}
