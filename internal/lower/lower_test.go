package lower

import (
	"math"
	"math/rand"
	"testing"

	"spanner/internal/graph"
)

func TestFixtureValidation(t *testing.T) {
	if _, err := NewFixture(-1, 3, 2); err == nil {
		t.Fatal("negative tau must error")
	}
	if _, err := NewFixture(1, 2, 2); err == nil {
		t.Fatal("lambda < 3 must error")
	}
	if _, err := NewFixture(1, 3, 1); err == nil {
		t.Fatal("kappa < 2 must error")
	}
}

func TestFixtureCounts(t *testing.T) {
	for _, tc := range []struct{ tau, lambda, kappa int }{
		{0, 3, 2}, {1, 3, 2}, {2, 4, 3}, {5, 3, 4}, {3, 6, 5},
	} {
		f, err := NewFixture(tc.tau, tc.lambda, tc.kappa)
		if err != nil {
			t.Fatal(err)
		}
		if f.G.N() != NumVertices(tc.tau, tc.lambda, tc.kappa) {
			t.Fatalf("%+v: n = %d, formula %d", tc, f.G.N(), NumVertices(tc.tau, tc.lambda, tc.kappa))
		}
		if f.G.M() != NumEdges(tc.tau, tc.lambda, tc.kappa) {
			t.Fatalf("%+v: m = %d, formula %d", tc, f.G.M(), NumEdges(tc.tau, tc.lambda, tc.kappa))
		}
		// Paper bounds: n_τ < (κ+1)λ(τ+6) and m_τ > κλ².
		if float64(f.G.N()) >= float64(tc.kappa+1)*float64(tc.lambda)*float64(tc.tau+6) {
			t.Fatalf("%+v: paper n bound violated", tc)
		}
		if f.G.M() <= tc.kappa*tc.lambda*tc.lambda {
			t.Fatalf("%+v: paper m bound violated", tc)
		}
		if !f.G.IsConnected() {
			t.Fatalf("%+v: fixture must be connected", tc)
		}
	}
}

func TestSpineDistance(t *testing.T) {
	f, err := NewFixture(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := f.SpineDistance()
	got := f.G.Dist(f.SpineU, f.SpineV)
	if got != want {
		t.Fatalf("spine distance %d, formula %d", got, want)
	}
	// The spine must be the unique shortest route: removing one critical
	// edge must lengthen it by exactly 2 (the 3-hop in-block detour).
	keep := graph.NewEdgeSet(f.G.M())
	f.G.ForEachEdge(keep.Add)
	cut := f.Critical[1]
	removed := graph.NewEdgeSet(f.G.M())
	keep.ForEach(func(u, v int32) {
		if !(u == minI32(cut[0], cut[1]) && v == maxI32(cut[0], cut[1])) {
			removed.Add(u, v)
		}
	})
	h := removed.ToGraph(f.G.N())
	if d := h.BFS(f.SpineU)[f.SpineV]; d != want+2 {
		t.Fatalf("one dropped critical edge: distance %d, want %d", d, want+2)
	}
}

func minI32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func maxI32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

func TestNeighborhoodSymmetry(t *testing.T) {
	// The τ-neighborhood of every block vertex must look the same; we check
	// the degree sequence at each BFS level up to τ, which is a (partial
	// but discriminating) isomorphism invariant.
	tau := 3
	f, err := NewFixture(tau, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	signature := func(v int32) []int {
		dist := f.G.NewDistScratch()
		var sig []int
		counts := map[int32]int{}
		reached := f.G.TruncatedBFSInto(v, int32(tau), dist, nil)
		for _, x := range reached {
			counts[dist[x]]++
		}
		graph.ResetDistScratch(dist, reached)
		for d := int32(0); d <= int32(tau); d++ {
			sig = append(sig, counts[d])
		}
		return sig
	}
	ref := signature(f.Left[1][1])
	for i := 0; i < f.Kappa; i++ {
		for j := 0; j < f.Lambda; j++ {
			for _, v := range []int32{f.Left[i][j], f.Right[i][j]} {
				sig := signature(v)
				for d := range ref {
					if sig[d] != ref[d] {
						t.Fatalf("vertex (%d,%d) level-%d count %d != ref %d", i, j, d, sig[d], ref[d])
					}
				}
			}
		}
	}
}

func TestDiscardExperimentMatchesPrediction(t *testing.T) {
	f, err := NewFixture(2, 8, 20)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const runs = 30
	var sumAdd, sumPred float64
	for r := 0; r < runs; r++ {
		res, err := f.DiscardExperiment(2, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.DistH < res.DistG {
			t.Fatal("spanner distance below graph distance")
		}
		// Structural claim of Theorem 3: every dropped critical edge costs
		// exactly +2 (the 3-hop in-block detour).
		if int(res.Additive) != 2*res.DroppedCritical {
			t.Fatalf("additive %d != 2×dropped %d", res.Additive, res.DroppedCritical)
		}
		if res.SpannerEdges != f.G.M()-res.DroppedCritical {
			t.Fatal("only critical edges may be discarded")
		}
		sumAdd += float64(res.DistH)
		sumPred = res.PredictedDistH
	}
	avg := sumAdd / runs
	if math.Abs(avg-sumPred)/sumPred > 0.15 {
		t.Fatalf("mean measured distance %v deviates from prediction %v", avg, sumPred)
	}
}

func TestDiscardExperimentValidation(t *testing.T) {
	f, err := NewFixture(1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.DiscardExperiment(1.5, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("c < 2 must error")
	}
}

func TestTheoremFixtures(t *testing.T) {
	f5, err := Theorem5Fixture(20000, 4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if f5.Kappa != 8 { // κ = 2β
		t.Fatalf("Theorem 5 fixture κ = %d, want 2β = 8", f5.Kappa)
	}
	f6, err := Theorem6Fixture(20000, 2, 0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if f6.G.N() == 0 || !f6.G.IsConnected() {
		t.Fatal("Theorem 6 fixture malformed")
	}
	if MinRoundsTheorem5(10000, 4, 0.1) <= 0 || MinRoundsTheorem6(10000, 0.5, 0.1) <= 0 {
		t.Fatal("round bounds must be positive")
	}
}

// TestAverageCaseDistortion verifies footnote 7 / Theorem 4's second
// statement: random pairs — not just the adversarial spine — suffer
// additive distortion proportional to the critical edges between them.
func TestAverageCaseDistortion(t *testing.T) {
	f, err := NewFixture(1, 6, 30)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	res, err := f.AveragePairExperiment(2, 80, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != 80 {
		t.Fatalf("sampled %d pairs", res.Pairs)
	}
	if res.AvgAdditive < 0 {
		t.Fatal("subgraph distances cannot shrink")
	}
	// A random pair spans Θ(κ) blocks in expectation, so the average
	// additive distortion must be a visible fraction of 2pκ.
	expected := 2 * res.P * float64(f.Kappa)
	if res.AvgAdditive < expected/8 {
		t.Fatalf("average additive %v implausibly small vs spine-scale %v", res.AvgAdditive, expected)
	}
	if _, err := f.AveragePairExperiment(1, 10, rng); err == nil {
		t.Fatal("c < 2 must error")
	}
}

func TestDistortionGrowsWithDroppedFraction(t *testing.T) {
	// Larger compression c ⇒ larger forced drop probability ⇒ more
	// distortion: the essence of the time/size/distortion tradeoff.
	f, err := NewFixture(1, 6, 30)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	avgAt := func(c float64) float64 {
		var sum float64
		for r := 0; r < 20; r++ {
			res, err := f.DiscardExperiment(c, rng)
			if err != nil {
				t.Fatal(err)
			}
			sum += float64(res.Additive)
		}
		return sum / 20
	}
	lo, hi := avgAt(2), avgAt(10)
	if hi <= lo {
		t.Fatalf("distortion should grow with compression: c=2→%v, c=10→%v", lo, hi)
	}
}
