package core

import (
	"fmt"
	"math/rand"
	"testing"

	"spanner/internal/distsim"
	"spanner/internal/faults"
	"spanner/internal/graph"
	"spanner/internal/pinned"
	"spanner/internal/reliable"
)

// pinnedSkeleton holds BuildSkeletonDistributed's outputs (the hash folds
// the sorted spanner keys, and for the faulted and reliable runs also the
// fault counters and the transport ledger) as recorded before the engine's
// round buffers were rewritten. A change to the engine must leave every row
// identical, in both execution modes and at every GOMAXPROCS.
var pinnedSkeleton = map[string]pinned.Row{
	"gnp/1":      {Rounds: 40, Messages: 10722, Words: 49355, MaxWords: 8, Hash: 0xeb0884b2f65bb6f6},
	"gnp/2":      {Rounds: 55, Messages: 13244, Words: 61583, MaxWords: 6, Hash: 0x5201019c2a2a3602},
	"gnp/3":      {Rounds: 54, Messages: 13543, Words: 63132, MaxWords: 8, Hash: 0x9f17ff282a43457f},
	"grid/1":     {Rounds: 37, Messages: 3576, Words: 15458, MaxWords: 8, Hash: 0x98bee35f1d41b11a},
	"grid/2":     {Rounds: 70, Messages: 4147, Words: 18116, MaxWords: 8, Hash: 0x5bfc32202831642a},
	"grid/3":     {Rounds: 58, Messages: 4190, Words: 18324, MaxWords: 8, Hash: 0x875bd72704272194},
	"isolated/1": {Rounds: 41, Messages: 5247, Words: 23748, MaxWords: 8, Hash: 0x6370d0fed46ff2b1},
	"isolated/2": {Rounds: 55, Messages: 6165, Words: 28132, MaxWords: 6, Hash: 0x5d5beec00abee191},
	"isolated/3": {Rounds: 55, Messages: 6304, Words: 28940, MaxWords: 8, Hash: 0xdfdb4b8c8064e714},
	"faulted":    {Rounds: 46, Messages: 11795, Words: 57916, MaxWords: 8, Hash: 0xb87ba0cabbe2325c},
	"reliable":   {Rounds: 1303, Messages: 213798, Words: 922084, MaxWords: 14, Hash: 0x745256bc337607a6},
}

func pinRow(m distsim.Metrics, hash uint64) pinned.Row {
	return pinned.Row{Rounds: m.Rounds, Messages: m.Messages, Words: m.Words,
		MaxWords: m.MaxMsgWords, Hash: hash}
}

// metricsExtra lists the fault counters and the transport ledger.
func metricsExtra(m distsim.Metrics) []int64 {
	f, t := m.Faults, m.Transport
	return []int64{m.CapExceeded, f.Dropped, f.DroppedLink, f.DroppedCrash, f.Duplicated,
		f.Corrupted, f.Delayed, t.Messages, t.Words, t.Delivered, int64(t.MaxMsgWords),
		int64(t.VirtualRounds), t.Retransmits, t.Acks, t.Heartbeats, t.DupBatches,
		t.ChecksumDrops, t.LinksAbandoned}
}

// TestPinnedOutputs compares BuildSkeletonDistributed against outputs
// recorded before the engine rewrite: 3 seeds × {gnp, grid, isolated}, a
// run under a fault plan with Degrade, and a reliable-wrapped run under a
// lossy plan. Run it with -cpu 1,2,4 to cover the worker counts.
func TestPinnedOutputs(t *testing.T) {
	t.Run("pooled", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			for gname, g := range pinned.Graphs(seed) {
				res, err := BuildSkeletonDistributed(g, Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				m := res.Metrics
				pinned.Check(t, pinnedSkeleton, fmt.Sprintf("%s/%d", gname, seed), pinRow(m, pinned.Hash(res.Spanner.Keys())))
			}
		}
		g := graph.Gnp(300, 8.0/300, rand.New(rand.NewSource(1)))
		res, err := BuildSkeletonDistributed(g, Options{Seed: 1, Degrade: true,
			Faults: &faults.Plan{Seed: 5, Drop: 0.02, Duplicate: 0.02, Delay: 0.05, DelayRounds: 2}})
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		pinned.Check(t, pinnedSkeleton, "faulted", pinRow(m, pinned.Hash(res.Spanner.Keys(), metricsExtra(m)...)))
		small := graph.Gnp(100, 6.0/100, rand.New(rand.NewSource(1)))
		res, err = BuildSkeletonDistributed(small, Options{Seed: 1,
			Reliable: &reliable.Policy{Seed: 9, Slack: 24},
			Faults: &faults.Plan{Seed: 7, Drop: 0.05, Duplicate: 0.02, Corrupt: 0.01,
				Delay: 0.05, DelayRounds: 3}})
		if err != nil {
			t.Fatal(err)
		}
		m = res.Metrics
		pinned.Check(t, pinnedSkeleton, "reliable", pinRow(m, pinned.Hash(res.Spanner.Keys(), metricsExtra(m)...)))
	})
}
