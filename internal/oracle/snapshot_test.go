package oracle

import (
	"math/rand"
	"testing"

	"spanner/internal/ckpttest"
	"spanner/internal/distsim"
	"spanner/internal/graph"
)

// TestResumeRejectsBadSnapshotCounts damages the token and fresh-list
// counts of a cluster-flood node's snapshot inside an engine checkpoint:
// resuming from it must fail with an error.
func TestResumeRejectsBadSnapshotCounts(t *testing.T) {
	g := graph.ConnectedGnp(60, 0.1, rand.New(rand.NewSource(1)))
	handlers := func() []distsim.Handler {
		nodes := make([]tzNode, g.N())
		handlers := make([]distsim.Handler, g.N())
		for v := range nodes {
			nodes[v] = tzNode{self: distsim.NodeID(v), isSource: v%3 == 0, distNext: 1<<31 - 1}
			handlers[v] = &nodes[v]
		}
		return handlers
	}
	dir := t.TempDir()
	net, err := distsim.NewNetwork(g, handlers(), distsim.Config{
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
		{Name: "tokens", At: func([]int64) int { return 3 }, PerEntry: 2},
		{Name: "fresh", At: func(s []int64) int { return 4 + 2*int(s[3]) }, PerEntry: 1},
	}, func() error {
		_, err := distsim.ResumeFrom(g, handlers(), distsim.Config{}, ckpts[0])
		return err
	})
}
