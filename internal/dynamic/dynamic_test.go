package dynamic

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"spanner/internal/baseline"
	"spanner/internal/graph"
	"spanner/internal/verify"
)

// pathGraph returns the path 0-1-…-(n−1) plus any extra edges.
func pathGraph(n int, extra ...[2]int32) *graph.Graph {
	var edges [][2]int32
	for i := int32(1); int(i) < n; i++ {
		edges = append(edges, [2]int32{i - 1, i})
	}
	edges = append(edges, extra...)
	return graph.FromEdges(n, edges)
}

// pathSpanner is the path's own edges as an edge set.
func pathSpanner(n int) *graph.EdgeSet {
	s := graph.NewEdgeSet(n)
	for i := int32(1); int(i) < n; i++ {
		s.Add(i-1, i)
	}
	return s
}

// testMaintainer builds a maintainer over a random connected graph with a
// greedy 3-spanner — the standard fixture for churn tests.
func testMaintainer(t testing.TB, n int, seed int64, cfg Config) (*Maintainer, *graph.Graph) {
	t.Helper()
	g := graph.ConnectedGnp(n, 10/float64(n), rand.New(rand.NewSource(seed)))
	res, err := baseline.Greedy(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Bound == 0 {
		cfg.Bound = 3
	}
	m, err := NewMaintainer(g, res.Spanner, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, g
}

func TestNewMaintainerRejectsInvalidSpanner(t *testing.T) {
	g := pathGraph(4)
	empty := graph.NewEdgeSet(4)
	if _, err := NewMaintainer(g, empty, Config{Bound: 3}); !errors.Is(err, ErrInvalidSpanner) {
		t.Fatalf("empty spanner accepted: %v", err)
	}
	fake := graph.NewEdgeSet(4)
	fake.Add(0, 3) // not a graph edge
	if _, err := NewMaintainer(g, fake, Config{Bound: 3}); !errors.Is(err, ErrInvalidSpanner) {
		t.Fatalf("non-subgraph spanner accepted: %v", err)
	}
}

func TestNewMaintainerClonesInputs(t *testing.T) {
	g := pathGraph(6)
	s := pathSpanner(6)
	m, err := NewMaintainer(g, s, Config{Bound: 3})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Len()
	// (0,5) spans distance 5 > 3, so it is admitted into the maintained
	// spanner — but the caller's edge set must stay untouched.
	if _, err := m.ApplyBatch(Batch{{Op: OpInsert, U: 0, V: 5}}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != before || s.Has(0, 5) {
		t.Fatal("maintainer mutated the caller's spanner edge set")
	}
	if !m.Spanner().Has(0, 5) {
		t.Fatal("admitted edge missing from the maintained spanner")
	}
}

func TestDeriveBound(t *testing.T) {
	// Path 0..4 plus chord (0,4): the chord stretches to 4 in the path.
	g := pathGraph(5, [2]int32{0, 4})
	b, err := DeriveBound(g, pathSpanner(5))
	if err != nil {
		t.Fatal(err)
	}
	if b != 4 {
		t.Fatalf("derived bound %d, want 4", b)
	}
	// A spanner that disconnects a certificate cannot derive a bound.
	s := pathSpanner(5)
	s.Remove(1, 2)
	if _, err := DeriveBound(g, s); err == nil {
		t.Fatal("derived a bound across a disconnected certificate")
	}
	// Floor: the path's own edges stretch 1, floored at 3.
	b, err = DeriveBound(pathGraph(5), pathSpanner(5))
	if err != nil {
		t.Fatal(err)
	}
	if b != 3 {
		t.Fatalf("derived bound %d, want floor 3", b)
	}
}

func TestInsertFilteredWhenCovered(t *testing.T) {
	// Path 0-1-2: inserting (0,2) is covered at distance 2 ≤ 3.
	m, err := NewMaintainer(pathGraph(3), pathSpanner(3), Config{Bound: 3, VerifyEach: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.ApplyBatch(Batch{{Op: OpInsert, U: 0, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Filtered != 1 || rep.Admitted != 0 {
		t.Fatalf("filtered=%d admitted=%d, want 1/0", rep.Filtered, rep.Admitted)
	}
	if m.Spanner().Has(0, 2) {
		t.Fatal("covered edge entered the spanner")
	}
	if !rep.Verified() {
		t.Fatalf("certificate broken after filtered insert: %d violations", rep.PostViolations)
	}
	if len(rep.GraphAdd) != 1 || len(rep.SpanAdd) != 0 {
		t.Fatalf("delta keys GraphAdd=%v SpanAdd=%v", rep.GraphAdd, rep.SpanAdd)
	}
}

func TestInsertAdmittedWhenUncovered(t *testing.T) {
	// Path 0..5: inserting (0,5) spans distance 5 > 3 — must be admitted.
	m, err := NewMaintainer(pathGraph(6), pathSpanner(6), Config{Bound: 3, VerifyEach: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.ApplyBatch(Batch{{Op: OpInsert, U: 0, V: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted != 1 || rep.Filtered != 0 {
		t.Fatalf("admitted=%d filtered=%d, want 1/0", rep.Admitted, rep.Filtered)
	}
	if !m.Spanner().Has(0, 5) {
		t.Fatal("uncovered edge missing from the spanner")
	}
	if !rep.Verified() {
		t.Fatalf("certificate broken after admitted insert: %d violations", rep.PostViolations)
	}
}

func TestInsertDuplicateAndDeleteMiss(t *testing.T) {
	m, err := NewMaintainer(pathGraph(4), pathSpanner(4), Config{Bound: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.ApplyBatch(Batch{
		{Op: OpInsert, U: 0, V: 1}, // already present
		{Op: OpDelete, U: 0, V: 3}, // absent
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.InsertDups != 1 || rep.DeleteMisses != 1 || rep.Inserted != 0 || rep.Deleted != 0 {
		t.Fatalf("unexpected accounting: %+v", rep)
	}
	if len(rep.GraphAdd)+len(rep.GraphDel)+len(rep.SpanAdd)+len(rep.SpanDel) != 0 {
		t.Fatalf("no-op batch produced delta keys: %+v", rep)
	}
}

func TestDeleteTriggersLocalizedRepair(t *testing.T) {
	// C4: path 0-1-2-3 plus chord (0,3); spanner is the path (chord covered
	// at distance 3). Deleting (1,2) breaks the chord's certificate — its
	// endpoints become unreachable in the spanner — so repair must re-admit
	// the chord.
	g := pathGraph(4, [2]int32{0, 3})
	m, err := NewMaintainer(g, pathSpanner(4), Config{Bound: 3, VerifyEach: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.ApplyBatch(Batch{{Op: OpDelete, U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SpannerDeleted != 1 {
		t.Fatalf("SpannerDeleted=%d, want 1", rep.SpannerDeleted)
	}
	if rep.Heal == nil || !rep.Heal.Verified {
		t.Fatalf("repair did not run or did not verify: %v", rep.Heal)
	}
	if rep.RepairedEdges == 0 {
		t.Fatal("repair added no edges despite a broken certificate")
	}
	if !m.Spanner().Has(0, 3) {
		t.Fatal("repair did not restore coverage of the chord")
	}
	if !rep.Verified() {
		t.Fatalf("certificate broken after repair: %d violations", rep.PostViolations)
	}
}

func TestDeleteReinsertSameBatchCancels(t *testing.T) {
	m, err := NewMaintainer(pathGraph(4), pathSpanner(4), Config{Bound: 3, VerifyEach: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.ApplyBatch(Batch{
		{Op: OpDelete, U: 1, V: 2},
		{Op: OpInsert, U: 1, V: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.GraphAdd) != 0 || len(rep.GraphDel) != 0 {
		t.Fatalf("delete+reinsert did not cancel: add=%v del=%v", rep.GraphAdd, rep.GraphDel)
	}
	if !rep.Verified() {
		t.Fatalf("certificate broken: %d violations", rep.PostViolations)
	}
}

func TestRebuildEscalation(t *testing.T) {
	m, _ := testMaintainer(t, 120, 3, Config{Policy: RebuildPolicy{MaxBatches: 2}, VerifyEach: true})
	batches, err := GenerateStream(m.Graph(), StreamConfig{Seed: 3, Batches: 4, BatchSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := 0
	for i, b := range batches {
		rep, err := m.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Rebuilt {
			rebuilt++
		}
		// MaxBatches=2 triggers on every second batch.
		if want := (i+1)%2 == 0; rep.Rebuilt != want {
			t.Fatalf("batch %d: Rebuilt=%v, want %v", i+1, rep.Rebuilt, want)
		}
		if !rep.Verified() {
			t.Fatalf("batch %d: %d violations", i+1, rep.PostViolations)
		}
	}
	if m.Rebuilds() != rebuilt || rebuilt != 2 {
		t.Fatalf("rebuilds=%d (reports %d), want 2", m.Rebuilds(), rebuilt)
	}
}

func TestChurnKeepsCertificateValid(t *testing.T) {
	// The headline invariant: after every batch the maintained spanner
	// satisfies the same bound a from-scratch rebuild would be held to.
	m, _ := testMaintainer(t, 200, 7, Config{VerifyEach: true})
	batches, err := GenerateStream(m.Graph(), StreamConfig{Seed: 7, Batches: 10, BatchSize: 25})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		rep, err := m.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Verified() {
			t.Fatalf("batch %d: %d violations at bound %d", i+1, rep.PostViolations, m.Bound())
		}
	}
	// Belt and braces: re-verify from outside the maintainer.
	if viol := verify.ViolatedEdges(m.Graph(), m.Spanner(), m.Bound()); len(viol) > 0 {
		t.Fatalf("external verifier found %d violations", len(viol))
	}
}

func TestMaintainerDeterminism(t *testing.T) {
	run := func() ([]*BatchReport, []int64) {
		m, g := testMaintainer(t, 150, 9, Config{})
		batches, err := GenerateStream(g, StreamConfig{Seed: 9, Batches: 6, BatchSize: 20})
		if err != nil {
			t.Fatal(err)
		}
		var reps []*BatchReport
		for _, b := range batches {
			rep, err := m.ApplyBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			rep.Elapsed = 0 // wall clock is the one nondeterministic field
			rep.Heal = nil  // contains no keys; drop for comparison
			reps = append(reps, rep)
		}
		keys := m.Spanner().Keys()
		sortKeys(keys)
		return reps, keys
	}
	r1, k1 := run()
	r2, k2 := run()
	if !reflect.DeepEqual(k1, k2) {
		t.Fatal("same seed produced different maintained spanners")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("same seed produced different batch reports")
	}
}

func TestApplyBatchRejectsBadUpdates(t *testing.T) {
	m, _ := testMaintainer(t, 40, 1, Config{Policy: RebuildPolicy{MaxBatches: 2}})
	for _, b := range []Batch{
		{{Op: OpInsert, U: -1, V: 2}},
		{{Op: OpInsert, U: 0, V: 40}},
		{{Op: OpDelete, U: 5, V: 5}},
	} {
		if _, err := m.ApplyBatch(b); !errors.Is(err, ErrBadUpdate) {
			t.Fatalf("batch %v accepted: %v", b, err)
		}
	}
	// Rejected batches neither count nor spend the rebuild budget.
	if got := m.Batches(); got != 0 {
		t.Fatalf("Batches() = %d after three rejected batches, want 0", got)
	}
	rep, err := m.ApplyBatch(Batch{{Op: OpDelete, U: 0, V: 39}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seq != 1 || rep.Rebuilt {
		t.Fatalf("first good batch: Seq=%d Rebuilt=%v, want 1/false", rep.Seq, rep.Rebuilt)
	}
}
