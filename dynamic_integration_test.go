package spanner_test

import (
	"bytes"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"spanner"
)

// TestDynamicMaintenanceMatchesRebuildBound is the subsystem's acceptance
// check: after every batch the maintained spanner satisfies the same
// stretch bound a from-scratch rebuild of the current graph would — both
// through the maintainer's own per-batch verification (VerifyEach) and
// through an independent external sweep.
func TestDynamicMaintenanceMatchesRebuildBound(t *testing.T) {
	g := spanner.ConnectedGnp(400, 8/400.0, spanner.NewRand(5))
	res, err := spanner.BaswanaSen(g, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := spanner.NewDynamicMaintainer(g, res.Spanner, spanner.DynamicConfig{VerifyEach: true})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := spanner.GenerateUpdateStream(g, spanner.UpdateStreamConfig{Seed: 5, Batches: 8, BatchSize: 24})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range stream {
		rep, err := m.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Verified() {
			t.Fatalf("batch %d: %d stretch violations after apply", rep.Seq, rep.PostViolations)
		}
		// Independent check, not trusting the maintainer's own verifier.
		if bad := spanner.SpannerViolatedEdges(m.Graph(), m.Spanner(), m.Bound()); len(bad) != 0 {
			t.Fatalf("batch %d: external sweep found %d violations at bound %d", rep.Seq, len(bad), m.Bound())
		}
	}

	// A from-scratch rebuild of the final graph targets the same bound; the
	// maintained spanner must be valid at exactly that bound, so the two
	// are interchangeable as certificates.
	kRepair := (m.Bound() + 1) / 2
	fresh, err := spanner.Greedy(m.Graph(), kRepair)
	if err != nil {
		t.Fatal(err)
	}
	if bad := spanner.SpannerViolatedEdges(m.Graph(), fresh.Spanner, m.Bound()); len(bad) != 0 {
		t.Fatalf("rebuild violates its own bound %d: %d edges", m.Bound(), len(bad))
	}
}

// TestDynamicDeltaRoundTripByteIdentical checks the delta acceptance
// criterion: the per-batch segments, applied onto the pre-churn base
// artifact (including a save/load cycle of the delta file), reproduce the
// artifact built from the post-churn state byte for byte.
func TestDynamicDeltaRoundTripByteIdentical(t *testing.T) {
	g := spanner.ConnectedGnp(300, 8/300.0, spanner.NewRand(7))
	res, err := spanner.BaswanaSen(g, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	base, err := spanner.BuildArtifact(g, res.Spanner, "baswana-sen", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	m, err := spanner.NewDynamicMaintainer(g, res.Spanner, spanner.DynamicConfig{})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := spanner.GenerateUpdateStream(g, spanner.UpdateStreamConfig{Seed: 7, Batches: 6, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	var segs []spanner.ArtifactDeltaSegment
	for _, b := range stream {
		rep, err := m.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, rep.Segment())
	}
	d := &spanner.ArtifactDelta{BaseSum: base.Checksum(), Segments: segs}

	path := filepath.Join(t.TempDir(), "churn.spandlt")
	if err := spanner.SaveDelta(path, d); err != nil {
		t.Fatal(err)
	}
	loaded, err := spanner.LoadDelta(path)
	if err != nil {
		t.Fatal(err)
	}
	patched, err := loaded.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	final, err := spanner.BuildArtifact(m.Graph(), m.Spanner(), "baswana-sen", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, want := spanner.MarshalArtifact(patched), spanner.MarshalArtifact(final)
	if !bytes.Equal(got, want) {
		t.Fatalf("patched artifact differs from rebuilt: %d vs %d bytes, checksums %d vs %d",
			len(got), len(want), patched.Checksum(), final.Checksum())
	}
}

// TestDynamicUpdateUnderLoad gives /update the same guarantee as /swap:
// a delta applied while concurrent clients are querying drops nothing and
// wrongs nothing — every reply matches the oracle of the generation that
// stamped it.
func TestDynamicUpdateUnderLoad(t *testing.T) {
	artA := buildServeArtifact(t, 200, 3, 31)
	m, err := spanner.NewDynamicMaintainer(artA.Graph, artA.Spanner, spanner.DynamicConfig{})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := spanner.GenerateUpdateStream(artA.Graph, spanner.UpdateStreamConfig{Seed: 31, Batches: 1, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.ApplyBatch(stream[0])
	if err != nil {
		t.Fatal(err)
	}
	d := &spanner.ArtifactDelta{BaseSum: artA.Checksum(), Segments: []spanner.ArtifactDeltaSegment{rep.Segment()}}
	// The post-update generation, reconstructed up front so both answer
	// books exist before any query lands.
	artB, err := d.Apply(artA)
	if err != nil {
		t.Fatal(err)
	}

	eng, err := spanner.NewServeEngine(artA, spanner.ServeConfig{CacheSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const pairs = 64
	type pair struct{ u, v int32 }
	ps := make([]pair, pairs)
	wantA := make([]int32, pairs)
	wantB := make([]int32, pairs)
	for i := range ps {
		u := int32((i * 37) % 200)
		v := int32((i*91 + 13) % 200)
		ps[i] = pair{u, v}
		wantA[i] = artA.Oracle.Query(u, v)
		wantB[i] = artB.Oracle.Query(u, v)
	}
	genA := eng.SnapshotID()

	const workers = 8
	const iters = 300
	var answered, wrong, updated atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				j := (i + off) % pairs
				r := eng.Query(spanner.ServeRequest{Type: spanner.ServeQueryDist, U: ps[j].u, V: ps[j].v})
				if r.Err != nil {
					t.Errorf("query (%d,%d) failed: %v", ps[j].u, ps[j].v, r.Err)
					return
				}
				answered.Add(1)
				var want int32
				switch r.SnapshotID {
				case genA:
					want = wantA[j]
				case updated.Load():
					want = wantB[j]
				default:
					t.Errorf("reply from unknown generation %d", r.SnapshotID)
					return
				}
				if r.Dist != want {
					wrong.Add(1)
				}
			}
		}(w * 7)
	}
	// Land the delta mid-load; its generation id is published first so a
	// reply can never outrun it.
	updated.Store(genA + 1)
	genB, err := eng.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if genB != genA+1 {
		t.Fatalf("generation %d after %d", genB, genA)
	}
	wg.Wait()

	if got := answered.Load(); got != workers*iters {
		t.Fatalf("dropped answers: %d of %d", workers*iters-got, workers*iters)
	}
	if w := wrong.Load(); w != 0 {
		t.Fatalf("%d replies did not match their generation's oracle", w)
	}
	r := eng.Query(spanner.ServeRequest{Type: spanner.ServeQueryDist, U: ps[0].u, V: ps[0].v})
	if r.SnapshotID != genB || r.Dist != wantB[0] {
		t.Fatalf("post-update reply %+v, want generation %d dist %d", r, genB, wantB[0])
	}
}
