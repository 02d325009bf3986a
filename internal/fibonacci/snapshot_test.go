package fibonacci

import (
	"math/rand"
	"testing"

	"spanner/internal/ckpttest"
	"spanner/internal/distsim"
	"spanner/internal/graph"
)

// TestResumeRejectsBadSnapshotCounts damages the token and out-edge counts
// of a ball-wave node's snapshot inside an engine checkpoint: resuming from
// it must fail with an error.
func TestResumeRejectsBadSnapshotCounts(t *testing.T) {
	g := graph.ConnectedGnp(60, 0.15, rand.New(rand.NewSource(1)))
	handlers := func() []distsim.Handler {
		nodes := make([]fibNode, g.N())
		handlers := make([]distsim.Handler, g.N())
		for v := range nodes {
			nodes[v] = fibNode{self: distsim.NodeID(v), isSource: v%2 == 0, isOwner: true,
				radius: 3, distNext: 1<<31 - 1, msgCap: 8, stage: stageBall}
			handlers[v] = &nodes[v]
		}
		return handlers
	}
	dir := t.TempDir()
	net, err := distsim.NewNetwork(g, handlers(), distsim.Config{MaxMsgWords: 8,
		Checkpoint: &distsim.CheckpointConfig{Dir: dir, Every: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	ckpts, err := distsim.Checkpoints(dir)
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no checkpoint written: %v", err)
	}
	ckpttest.BadCounts(t, ckpts[0], 0, []ckpttest.Count{
		{Name: "tokens", At: func([]int64) int { return 9 }, PerEntry: 3},
		{Name: "out-edges", At: func(s []int64) int {
			ceases := 10 + 3*int(s[9])
			committed := ceases + 1 + int(s[ceases])
			return committed + 1 + int(s[committed])
		}, PerEntry: 1},
	}, func() error {
		_, err := distsim.ResumeFrom(g, handlers(), distsim.Config{MaxMsgWords: 8}, ckpts[0])
		return err
	})
}
