package spanner

// This file is the experiment harness: one benchmark per reproduced table/
// figure, as indexed in DESIGN.md §5 (E1–E12). Each benchmark times the
// underlying construction and, once per run, logs the table the experiment
// regenerates; EXPERIMENTS.md records the paper-vs-measured comparison.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The workloads are sized so the full suite completes in a few minutes on a
// laptop; crank the constants for larger-scale runs.

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spanner/internal/cluster"
	"spanner/internal/core"
	"spanner/internal/distsim"
	"spanner/internal/faults"
	"spanner/internal/fibonacci"
	"spanner/internal/graph"
	"spanner/internal/lower"
	"spanner/internal/reliable"
	"spanner/internal/seq"
	"spanner/internal/verify"
)

// E1 — Fig. 1: the comparative table of distributed spanner algorithms.
// The paper's table lists asymptotic guarantees; we regenerate the measured
// counterpart and check the qualitative ordering.
func BenchmarkFig1ComparisonTable(b *testing.B) {
	rng := NewRand(1)
	g := ConnectedGnp(4000, 16.0/4000, rng)
	type algoRun struct {
		name  string
		run   func(seed int64) (*EdgeSet, int, int) // spanner, rounds, maxMsg
		bound string
	}
	algos := []algoRun{
		{"skeleton-seq", func(seed int64) (*EdgeSet, int, int) {
			res, err := BuildSkeleton(g, SkeletonOptions{D: 4, Seed: seed})
			if err != nil {
				b.Fatal(err)
			}
			return res.Spanner, 0, 0
		}, "O(n) size, O(2^{log*n} log n) stretch"},
		{"skeleton-dist", func(seed int64) (*EdgeSet, int, int) {
			res, err := BuildSkeletonDistributed(g, SkeletonOptions{D: 4, Seed: seed})
			if err != nil {
				b.Fatal(err)
			}
			return res.Spanner, res.Metrics.Rounds, res.Metrics.MaxMsgWords
		}, "O(log n)-word messages"},
		{"fibonacci", func(seed int64) (*EdgeSet, int, int) {
			res, err := BuildFibonacci(g, FibonacciOptions{Seed: seed})
			if err != nil {
				b.Fatal(err)
			}
			return res.Spanner, 0, 0
		}, "near-linear size, staged stretch"},
		{"baswana-sen-k3", func(seed int64) (*EdgeSet, int, int) {
			res, m, err := BaswanaSenDistributed(g, 3, seed)
			if err != nil {
				b.Fatal(err)
			}
			return res.Spanner, m.Rounds, m.MaxMsgWords
		}, "5-spanner, O(k) time"},
		{"greedy-logn", func(seed int64) (*EdgeSet, int, int) {
			res, err := LinearGreedy(g)
			if err != nil {
				b.Fatal(err)
			}
			return res.Spanner, 0, 0
		}, "girth > 2 log n"},
		{"bfs-tree", func(seed int64) (*EdgeSet, int, int) {
			return BFSTree(g), 0, 0
		}, "n−1 edges"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range algos {
			a.run(int64(i))
		}
	}
	b.StopTimer()
	b.Logf("Fig.1 comparison on %v:", g)
	b.Logf("%-16s %8s %7s %7s %7s %7s  %s", "algorithm", "|S|/n", "max", "avg", "rounds", "maxMsg", "guarantee")
	var skeletonRatio, bsRatio float64
	for _, a := range algos {
		s, rounds, maxMsg := a.run(7)
		rep := Measure(g, s, MeasureOptions{Sources: 24, Rng: NewRand(99)})
		if a.name == "skeleton-seq" {
			skeletonRatio = rep.SizeRatio()
		}
		if a.name == "baswana-sen-k3" {
			bsRatio = rep.SizeRatio()
		}
		b.Logf("%-16s %8.3f %7.2f %7.3f %7d %7d  %s",
			a.name, rep.SizeRatio(), rep.MaxStretch, rep.AvgStretch, rounds, maxMsg, a.bound)
	}
	if skeletonRatio >= bsRatio {
		b.Errorf("ordering violated: skeleton (%v per vertex) should be sparser than Baswana-Sen k=3 (%v)", skeletonRatio, bsRatio)
	}
}

// E1b — robustness: the skeleton's linear-size claim across graph
// families (the theorems quantify over all graphs; this sweeps the
// regimes the generators cover).
func BenchmarkFig1AcrossFamilies(b *testing.B) {
	rng := NewRand(21)
	reg, err := RandomRegular(2000, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	families := []struct {
		name string
		g    *Graph
	}{
		{"gnp", ConnectedGnp(2000, 16.0/2000, rng)},
		{"smallworld", WattsStrogatz(2000, 5, 0.1, rng)},
		{"communities", Communities(2000, 8, 0.05, 0.001, rng)},
		{"pa", PreferentialAttachment(2000, 6, rng)},
		{"regular", reg},
		{"torus", Torus(45, 45)},
		{"hypercube", Hypercube(11)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range families {
			if _, err := BuildSkeleton(f.g, SkeletonOptions{Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.Logf("skeleton across families:")
	b.Logf("%-12s %8s %8s %8s %8s", "family", "n", "m/n", "|S|/n", "max")
	for _, f := range families {
		res, err := BuildSkeleton(f.g, SkeletonOptions{Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		rep := Measure(f.g, res.Spanner, MeasureOptions{Sources: 12, Rng: NewRand(1)})
		b.Logf("%-12s %8d %8.2f %8.3f %8.2f", f.name, f.g.N(),
			float64(f.g.M())/float64(f.g.N()), rep.SizeRatio(), rep.MaxStretch)
		if !rep.Connected || !rep.Valid {
			b.Errorf("%s: %v", f.name, rep)
		}
		if rep.SizeRatio() > 6 {
			b.Errorf("%s: size ratio %v not linear-like", f.name, rep.SizeRatio())
		}
		if rep.MaxStretch > res.DistortionBound {
			b.Errorf("%s: stretch above bound", f.name)
		}
	}
}

// E2 — Lemma 6 / Theorem 2: expected skeleton size Dn/e + O(n log D).
func BenchmarkSkeletonSizeVsD(b *testing.B) {
	rng := NewRand(2)
	g := ConnectedGnp(6000, 20.0/6000, rng)
	ds := []int{4, 6, 8, 12, 16, 24}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range ds {
			if _, err := BuildSkeleton(g, SkeletonOptions{D: d, Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.Logf("skeleton size vs D on %v (Lemma 6: bound = n(D/e + ...)):", g)
	b.Logf("%4s %10s %10s %10s", "D", "|S|/n", "bound/n", "D/e+lnD")
	for _, d := range ds {
		var total int
		const runs = 3
		for seed := int64(0); seed < runs; seed++ {
			res, err := BuildSkeleton(g, SkeletonOptions{D: d, Seed: seed})
			if err != nil {
				b.Fatal(err)
			}
			total += res.Spanner.Len()
		}
		ratio := float64(total) / runs / float64(g.N())
		bound := SkeletonSizeBound(g.N(), float64(d)) / float64(g.N())
		core := float64(d)/math.E + math.Log(float64(d))
		b.Logf("%4d %10.3f %10.3f %10.3f", d, ratio, bound, core)
		if ratio > bound {
			b.Errorf("D=%d: measured %v above Lemma 6 bound %v", d, ratio, bound)
		}
	}
}

// E3 — Lemma 5 / Theorem 2: skeleton stretch growth with n follows the
// O(2^{log* n}·log n) shape.
func BenchmarkSkeletonStretchVsN(b *testing.B) {
	sizes := []int{1000, 2000, 4000, 8000}
	graphs := make([]*Graph, len(sizes))
	for i, n := range sizes {
		graphs[i] = ConnectedGnp(n, 14/float64(n), NewRand(int64(n)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			if _, err := BuildSkeleton(g, SkeletonOptions{Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.Logf("skeleton stretch vs n (bound κ⁻¹2^{log*n−log*D+7}log_D n):")
	b.Logf("%8s %10s %12s", "n", "maxStretch", "bound")
	for _, g := range graphs {
		res, err := BuildSkeleton(g, SkeletonOptions{Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		rep := Measure(g, res.Spanner, MeasureOptions{Sources: 24, Rng: NewRand(1)})
		b.Logf("%8d %10.2f %12.1f", g.N(), rep.MaxStretch, res.DistortionBound)
		if rep.MaxStretch > res.DistortionBound {
			b.Errorf("n=%d: stretch %v above bound %v", g.N(), rep.MaxStretch, res.DistortionBound)
		}
	}
}

// E4 — Theorem 2: distributed rounds O(t + log n) and message cap
// O(log^κ n) words.
func BenchmarkSkeletonRoundsVsN(b *testing.B) {
	sizes := []int{500, 1000, 2000, 4000}
	graphs := make([]*Graph, len(sizes))
	for i, n := range sizes {
		graphs[i] = ConnectedGnp(n, 12/float64(n), NewRand(int64(n)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			if _, err := BuildSkeletonDistributed(g, SkeletonOptions{Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.Logf("distributed skeleton costs vs n:")
	b.Logf("%8s %8s %12s %8s %8s", "n", "rounds", "messages", "maxMsg", "cap")
	for _, g := range graphs {
		res, err := BuildSkeletonDistributed(g, SkeletonOptions{Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("%8d %8d %12d %8d %8d", g.N(), res.Metrics.Rounds,
			res.Metrics.Messages, res.Metrics.MaxMsgWords, res.MaxMsgWords)
		if res.Metrics.MaxMsgWords > res.MaxMsgWords {
			b.Errorf("n=%d: message above cap", g.N())
		}
		if res.Metrics.Rounds > 40*int(math.Log2(float64(g.N()))) {
			b.Errorf("n=%d: %d rounds far above O(log n) regime", g.N(), res.Metrics.Rounds)
		}
	}
}

// E4b — per-call cost profile of the distributed skeleton: which part of
// the tower schedule costs what (the early high-probability calls touch
// every edge; the capped tail works on a few contracted clusters).
func BenchmarkSkeletonCallProfile(b *testing.B) {
	rng := NewRand(22)
	g := ConnectedGnp(3000, 14.0/3000, rng)
	b.ResetTimer()
	var res *SkeletonDistributedResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = BuildSkeletonDistributed(g, SkeletonOptions{Seed: 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("per-call profile on %v:", g)
	b.Logf("%6s %6s %6s %8s %12s %8s", "call", "round", "iter", "rounds", "messages", "maxMsg")
	for i, m := range res.CallMetrics {
		c := res.Calls[i]
		b.Logf("%6d %6d %6d %8d %12d %8d", i, c.Round, c.Iter, m.Rounds, m.Messages, m.MaxMsgWords)
	}
	// Message volume per call stays Θ(m) (every live original vertex
	// announces each call) while per-call round counts grow with the
	// cluster radii — the shape Theorem 2's O(rᵢⱼ + sᵢ·log^{1-κ} n)
	// per-call analysis describes.
	first, last := res.CallMetrics[0], res.CallMetrics[len(res.CallMetrics)-1]
	if last.Rounds < first.Rounds {
		b.Errorf("per-call rounds should grow with cluster radii (%d -> %d)", first.Rounds, last.Rounds)
	}
	if last.Messages > 4*first.Messages {
		b.Errorf("per-call messages should stay Θ(m): %d -> %d", first.Messages, last.Messages)
	}
}

// E5 — Theorem 7 / Corollary 1: the four distortion stages. The bound
// passes 2^{o+1} → 3(o+1) → ~3 → 1+ε as distance grows; measured stretch
// must sit below it at every distance and itself improve with distance.
// The workload is a circulant C_n(1..w): dense enough that the spanner
// drops local edges (distortion > 1 at short range) with diameter n/2w
// (populating the long-range stages).
func BenchmarkFibonacciDistortionStages(b *testing.B) {
	g := Circulant(3000, 30)
	opts := FibonacciOptions{Order: 3, Ell: 8, Seed: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildFibonacci(g, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	res, err := BuildFibonacci(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	o, ell := res.Params.Order, res.Params.Ell
	rep := Measure(g, res.Spanner, MeasureOptions{Sources: 64, Rng: NewRand(8)})
	b.Logf("fibonacci stages on %v (o=%d, ℓ=%d): bound stages 2^{o+1}=%d, 3(o+1)=%d, →3, →1+ε",
		g, o, ell, 1<<(o+1), 3*(o+1))
	b.Logf("%6s %10s %10s %12s", "d", "max", "avg", "bound")
	var shortMax, longMax float64
	for _, d := range []int32{1, 2, 4, 8, 16, 25, 50} {
		if int(d) >= len(rep.ByDistance) || rep.ByDistance[d].Pairs == 0 {
			continue
		}
		row := rep.ByDistance[d]
		bound := FibonacciStretchBoundAt(int64(d), o, ell)
		b.Logf("%6d %10.3f %10.3f %12.2f", d, row.MaxStretch, row.AvgStretch, bound)
		if row.MaxStretch > bound {
			b.Errorf("d=%d: measured %v above Theorem 7 bound %v", d, row.MaxStretch, bound)
		}
		if d == 1 {
			shortMax = row.MaxStretch
		}
		if d == 50 {
			longMax = row.MaxStretch
		}
	}
	if shortMax <= 1 {
		b.Errorf("expected measurable short-range distortion, got %v", shortMax)
	}
	if longMax >= shortMax {
		b.Errorf("distortion should improve with distance: d=1 %v vs d=50 %v", shortMax, longMax)
	}
	// The bound itself must exhibit the improving stages.
	s1 := FibonacciStretchBoundAt(1, o, ell)
	s2 := FibonacciStretchBoundAt(1<<o, o, ell)
	s3 := FibonacciStretchBoundAt(int64(math.Pow(6, float64(o))), o, ell)
	if !(s1 > s2 && s2 > s3) {
		b.Errorf("bound stages not improving: %v, %v, %v", s1, s2, s3)
	}
}

// E6 — Lemma 8: Fibonacci spanner size shrinks toward
// O(ℓ^φ·n^{1+1/(F_{o+3}−1)}) as the order grows.
func BenchmarkFibonacciSizeVsOrder(b *testing.B) {
	rng := NewRand(5)
	g := ConnectedGnp(4000, 200.0/4000, rng) // dense: compression visible
	orders := []int{1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range orders {
			if _, err := BuildFibonacci(g, FibonacciOptions{Order: o, Epsilon: 1, Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.Logf("fibonacci size vs order on %v (Lemma 8):", g)
	b.Logf("%6s %10s %12s %14s", "o", "|S|", "|S|/n", "bound")
	prev := math.Inf(1)
	for _, o := range orders {
		res, err := BuildFibonacci(g, FibonacciOptions{Order: o, Epsilon: 1, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		size := float64(res.Spanner.Len())
		b.Logf("%6d %10.0f %12.2f %14.0f", o, size, size/float64(g.N()), res.Params.SizeBound())
		if size > res.Params.SizeBound() {
			b.Errorf("o=%d: size %v above Lemma 8 bound %v", o, size, res.Params.SizeBound())
		}
		if size > prev*1.5 {
			b.Errorf("o=%d: size grew sharply with order (%v -> %v)", o, prev, size)
		}
		prev = size
	}
}

// E7 — Sect. 4.4: distributed Fibonacci message caps. Larger t ⇒ smaller
// cap n^{1/t}-ish; the cessation rule must keep every observed message
// within it.
func BenchmarkFibonacciMessageCap(b *testing.B) {
	rng := NewRand(6)
	g := ConnectedGnp(1500, 20.0/1500, rng)
	ts := []int{2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range ts {
			if _, err := BuildFibonacciDistributed(g, FibonacciOptions{Order: 2, T: t, Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.Logf("fibonacci distributed message caps on %v:", g)
	b.Logf("%4s %8s %8s %8s %8s %8s %8s", "t", "order", "cap", "maxMsg", "rounds", "ceased", "repairs")
	for _, t := range ts {
		res, err := BuildFibonacciDistributed(g, FibonacciOptions{Order: 2, T: t, Seed: 13})
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("%4d %8d %8d %8d %8d %8d %8d", t, res.Params.Order, res.Params.MessageCap(),
			res.Metrics.MaxMsgWords, res.Metrics.Rounds, res.Ceased, res.Repairs)
		if res.Metrics.MaxMsgWords > res.Params.MessageCap() {
			b.Errorf("t=%d: observed message above cap", t)
		}
	}
}

// E8 — Theorem 3/4: realized distortion on G(τ,λ,κ) matches the prediction
// δ·(1 + 2p/(τ+2)) and the additive term grows with κ ∝ n/τ².
func BenchmarkLowerBoundAdditiveVsTau(b *testing.B) {
	taus := []int{0, 2, 4, 8, 16}
	fixtures := make([]*LowerBoundFixture, len(taus))
	for i, tau := range taus {
		kappa := 3000 / (8 * (tau + 6))
		f, err := NewLowerBoundFixture(tau, 8, kappa)
		if err != nil {
			b.Fatal(err)
		}
		fixtures[i] = f
	}
	rng := NewRand(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fixtures {
			if _, err := f.DiscardExperiment(2, rng); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.Logf("additive distortion vs τ at fixed vertex budget (Theorem 4 shape):")
	b.Logf("%4s %6s %8s %10s %10s", "τ", "κ", "n", "measured", "predicted")
	prevAdd := math.Inf(1)
	for i, f := range fixtures {
		var sum, pred float64
		const runs = 40
		for r := 0; r < runs; r++ {
			res, err := f.DiscardExperiment(2, rng)
			if err != nil {
				b.Fatal(err)
			}
			sum += float64(res.Additive)
			pred = res.PredictedDistH - float64(res.DistG)
		}
		avg := sum / runs
		b.Logf("%4d %6d %8d %10.1f %10.1f", taus[i], f.Kappa, f.G.N(), avg, pred)
		if avg > prevAdd*1.3 {
			b.Errorf("τ=%d: additive distortion should fall as τ grows", taus[i])
		}
		prevAdd = avg
	}
}

// E9 — Theorem 5: an additive β-spanner of size n^{1+δ} built in fewer
// than Ω(√(n^{1−δ}/β)) rounds is forced above β.
func BenchmarkLowerBoundTheorem5(b *testing.B) {
	type cfg struct {
		n    int
		beta float64
	}
	cfgs := []cfg{{1 << 12, 2}, {1 << 12, 6}, {1 << 14, 2}, {1 << 14, 6}}
	rng := NewRand(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cfgs {
			f, err := Theorem5Fixture(c.n, c.beta, 0.1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.DiscardExperiment(2, rng); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.Logf("Theorem 5 instances (δ=0.1): forced additive distortion must exceed β")
	b.Logf("%8s %5s %12s %10s", "n", "β", "minRounds", "measured")
	for _, c := range cfgs {
		f, err := Theorem5Fixture(c.n, c.beta, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		const runs = 60
		for r := 0; r < runs; r++ {
			res, err := f.DiscardExperiment(2, rng)
			if err != nil {
				b.Fatal(err)
			}
			sum += float64(res.Additive)
		}
		avg := sum / runs
		b.Logf("%8d %5.0f %12.1f %10.2f", c.n, c.beta, MinRoundsTheorem5(c.n, c.beta, 0.1), avg)
		if avg <= c.beta {
			b.Errorf("n=%d β=%v: expected additive > β, got %v", c.n, c.beta, avg)
		}
	}
}

// E10 — Theorem 6: sublinear additive guarantees d + c·d^{1−μ} are forced
// to fail below Ω(n^{μ(1−δ)/(1+μ)}) rounds.
func BenchmarkLowerBoundTheorem6(b *testing.B) {
	ns := []int{1 << 12, 1 << 14, 1 << 16}
	rng := NewRand(9)
	// The Theorem 6 proof discards a 3/4 fraction (its λ = 4(τ+6)n^δ gives
	// density 4n^δ), so the adversary runs at compression c = 4.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range ns {
			f, err := Theorem6Fixture(n, 2, 0.5, 0.1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.DiscardExperiment(4, rng); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.Logf("Theorem 6 instances (guarantee d + 2·√d, δ=0.1, μ=0.5):")
	b.Logf("%8s %12s %12s %10s", "n", "minRounds", "guarantee", "measured")
	for _, n := range ns {
		f, err := Theorem6Fixture(n, 2, 0.5, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		const runs = 40
		for r := 0; r < runs; r++ {
			res, err := f.DiscardExperiment(4, rng)
			if err != nil {
				b.Fatal(err)
			}
			sum += float64(res.Additive)
		}
		avg := sum / runs
		guarantee := 2 * math.Sqrt(float64(f.SpineDistance()))
		b.Logf("%8d %12.1f %12.1f %10.1f", n, MinRoundsTheorem6(n, 0.5, 0.1), guarantee, avg)
		if avg <= guarantee {
			b.Errorf("n=%d: measured %v should exceed sublinear guarantee %v", n, avg, guarantee)
		}
	}
}

// E11 — Lemma 6 eq. (4): Monte-Carlo worst-case per-vertex edge
// contribution stays below X^t_p = p⁻¹(ln(t+1) − ζ) + t.
func BenchmarkExpandContributionBound(b *testing.B) {
	p := 0.2
	tSteps := 8
	qs := make([]int, tSteps)
	for i := range qs {
		qs[i] = int(1/p) + 2*i + 1 // near-adversarial ball growth
	}
	rng := NewRand(10)
	simulate := func(trials int) float64 {
		total := 0.0
		for trial := 0; trial < trials; trial++ {
			for _, q := range qs {
				c0 := rng.Float64() < p
				joined := false
				for j := 0; j < q; j++ {
					if rng.Float64() < p {
						joined = true
					}
				}
				switch {
				case c0:
				case joined:
					total++
				default:
					total += float64(q)
				}
				if !c0 && !joined {
					break
				}
			}
		}
		return total / float64(trials)
	}
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		mean = simulate(20000)
	}
	b.StopTimer()
	bound := seq.XBound(p, tSteps)
	b.Logf("X^%d_%.1f: Monte-Carlo %.3f vs bound %.3f", tSteps, p, mean, bound)
	if mean > bound {
		b.Errorf("Monte Carlo mean %v above Lemma 6 bound %v", mean, bound)
	}
}

// E12a — ablation D1: contraction. Running the tower schedule without
// contraction (iterated Baswana–Sen) loses the linear-size guarantee.
func BenchmarkAblationContraction(b *testing.B) {
	rng := NewRand(11)
	g := ConnectedGnp(4000, 20.0/4000, rng)
	sched := core.Schedule(g.N(), core.Options{D: 4})
	run := func(contract bool, seed int64) *graph.EdgeSet {
		st := cluster.New(g, NewRand(seed))
		for _, call := range sched {
			if st.Done() {
				break
			}
			if contract && call.ContractBefore {
				st.Contract()
			}
			st.Expand(call.P, call.AbortQ)
		}
		if !st.Done() {
			st.Expand(0, 0)
		}
		return st.Spanner()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(true, int64(i))
		run(false, int64(i))
	}
	b.StopTimer()
	with := run(true, 3)
	without := run(false, 3)
	repW := verify.Measure(g, with, verify.Options{Sources: 16, Rng: NewRand(1)})
	repWo := verify.Measure(g, without, verify.Options{Sources: 16, Rng: NewRand(1)})
	b.Logf("ablation D1 (contraction) on %v:", g)
	b.Logf("  with contraction:    |S|/n=%.3f maxStretch=%.1f", repW.SizeRatio(), repW.MaxStretch)
	b.Logf("  without contraction: |S|/n=%.3f maxStretch=%.1f", repWo.SizeRatio(), repWo.MaxStretch)
	if repWo.SizeRatio() < repW.SizeRatio() {
		b.Logf("  note: contraction did not pay off at this scale")
	}
}

// E12b — ablation D2: the capped tail. The Pure variant's schedule keeps
// multiplying by 1/sᵢ; the Capped variant switches to (log n)^{-κ} rounds,
// trading a few extra calls for bounded messages.
func BenchmarkAblationCappedTail(b *testing.B) {
	// Large enough that the pure schedule reaches s₂ = 256: the tower's
	// message/abort thresholds scale with sᵢ, while the capped variant
	// clamps the sampling ratio at log^κ n.
	n := 1 << 22
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Schedule(n, core.Options{Variant: core.Pure})
		core.Schedule(n, core.Options{Variant: core.Capped})
	}
	b.StopTimer()
	pure := core.Schedule(n, core.Options{Variant: core.Pure})
	capped := core.Schedule(n, core.Options{Variant: core.Capped})
	maxP := func(s []core.Call) float64 {
		worst := 0.0
		for _, c := range s {
			if c.P > 0 && 1/c.P > worst {
				worst = 1 / c.P
			}
		}
		return worst
	}
	b.Logf("ablation D2 (n=%d): pure schedule %d calls (max 1/p=%.0f), capped %d calls (max 1/p=%.0f)",
		n, len(pure), maxP(pure), len(capped), maxP(capped))
	if maxP(capped) > math.Log2(float64(n))+1 {
		b.Errorf("capped variant must clamp 1/p at log^κ n")
	}
	if maxP(pure) <= maxP(capped) {
		b.Errorf("at n=%d the pure schedule should use a larger sampling ratio than the capped one", n)
	}
}

// E12c — ablation D3: ball-flood pruning. Without the Thorup–Zwick rule
// the ball wave forwards every token within ℓ^i, blowing up words sent.
func BenchmarkAblationBallPruning(b *testing.B) {
	rng := NewRand(12)
	g := ConnectedGnp(1500, 16.0/1500, rng)
	opts := FibonacciOptions{Order: 2, Ell: 4, Seed: 3}
	optsOff := opts
	optsOff.DisablePruning = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fibonacci.BuildDistributed(g, opts); err != nil {
			b.Fatal(err)
		}
		if _, err := fibonacci.BuildDistributed(g, optsOff); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	on, err := fibonacci.BuildDistributed(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	off, err := fibonacci.BuildDistributed(g, optsOff)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("ablation D3 (pruning) on %v: words %d (on) vs %d (off), %.1fx",
		g, on.Metrics.Words, off.Metrics.Words,
		float64(off.Metrics.Words)/float64(on.Metrics.Words+1))
	if off.Metrics.Words < on.Metrics.Words {
		b.Errorf("pruning should reduce words sent")
	}
}

// E12d — ablation D4: the dying-vertex abort rule. Disabling it cannot
// change correctness; its value is bounding the death-streaming time.
func BenchmarkAblationAbortRule(b *testing.B) {
	rng := NewRand(13)
	g := ConnectedGnp(1500, 20.0/1500, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildSkeletonDistributed(g, SkeletonOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
		if _, err := BuildSkeletonDistributed(g, SkeletonOptions{Seed: int64(i), DisableAbort: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	on, err := BuildSkeletonDistributed(g, SkeletonOptions{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	off, err := BuildSkeletonDistributed(g, SkeletonOptions{Seed: 5, DisableAbort: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("ablation D4 (abort rule) on %v: rounds %d/%d, |S| %d/%d (on/off)",
		g, on.Metrics.Rounds, off.Metrics.Rounds, on.Spanner.Len(), off.Spanner.Len())
}

// E12e — ablation D5: Fibonacci message cap vs order. Larger t tightens
// messages but raises the effective order (and hence short-range stretch).
func BenchmarkAblationMessageCapVsOrder(b *testing.B) {
	rng := NewRand(14)
	g := ConnectedGnp(2000, 16.0/2000, rng)
	ts := []int{0, 2, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range ts {
			if _, err := BuildFibonacci(g, FibonacciOptions{Order: 2, T: t, Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.Logf("ablation D5 (cap vs order) on %v:", g)
	b.Logf("%4s %8s %8s %14s", "t", "order", "ℓ", "d=1 bound")
	for _, t := range ts {
		res, err := BuildFibonacci(g, FibonacciOptions{Order: 2, T: t, Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("%4d %8d %8d %14.1f", t, res.Params.Order, res.Params.Ell,
			FibonacciStretchBoundAt(1, res.Params.Order, res.Params.Ell))
	}
}

// Microbenchmarks of the primitives (for -benchmem visibility).

func BenchmarkGraphBFS(b *testing.B) {
	g := ConnectedGnp(10000, 20.0/10000, NewRand(15))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(int32(i % g.N()))
	}
}

func BenchmarkExpandCall(b *testing.B) {
	g := ConnectedGnp(10000, 20.0/10000, NewRand(16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := cluster.New(g, NewRand(int64(i)))
		st.Expand(0.25, 0)
	}
}

func BenchmarkGnpGeneration(b *testing.B) {
	rng := NewRand(17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gnp(10000, 20.0/10000, rng)
	}
}

// BenchmarkSkeletonSequentialScaling measures the Sect. 2 remark that the
// sequential construction runs in O(m·log n / log log n) time: ns/edge
// should stay near-flat as n grows.
func BenchmarkSkeletonSequentialScaling(b *testing.B) {
	for _, n := range []int{5000, 20000, 80000} {
		g := ConnectedGnp(n, 12/float64(n), NewRand(int64(n)))
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BuildSkeleton(g, SkeletonOptions{Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.M()), "ns/edge")
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1000000:
		return "n1M+"
	case n >= 80000:
		return "n80k"
	case n >= 20000:
		return "n20k"
	default:
		return "n5k"
	}
}

func BenchmarkOracleQuery(b *testing.B) {
	g := ConnectedGnp(5000, 16.0/5000, NewRand(19))
	o, err := NewDistanceOracle(g, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Query(int32(i%g.N()), int32((i*7919)%g.N()))
	}
}

func BenchmarkRoutingNextHop(b *testing.B) {
	g := ConnectedGnp(3000, 12.0/3000, NewRand(20))
	rs, err := NewRoutingScheme(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	dst := rs.AddressOf(int32(g.N() - 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.NextHop(int32(i%g.N()), dst)
	}
}

func BenchmarkStreamOffer(b *testing.B) {
	g := ConnectedGnp(3000, 16.0/3000, NewRand(23))
	edges := g.Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewStreamSpanner(g.N(), 3)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range edges {
			s.Offer(e[0], e[1])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(edges)), "ns/edge")
}

var sinkReport *Report

func BenchmarkMeasureSampled(b *testing.B) {
	g := ConnectedGnp(5000, 16.0/5000, NewRand(18))
	res, err := BuildSkeleton(g, SkeletonOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkReport = Measure(g, res.Spanner, MeasureOptions{Sources: 8, Rng: NewRand(int64(i))})
	}
}

var sinkFixture *lower.Fixture

var sinkEdges *EdgeSet

func BenchmarkLowerBoundFixtureGen(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := NewLowerBoundFixture(4, 16, 64)
		if err != nil {
			b.Fatal(err)
		}
		sinkFixture = f
	}
}

// Observability overhead: BuildSkeleton with a nil observer must cost the
// same as before the instrumentation existed (every obs call is a nil-check
// no-op), and the sub-benchmark pair quantifies the enabled-path cost.
// Compare:
//
//	go test -bench=ObsOverhead -count=5
//
// The noop/baseline delta is the acceptance bound (< 2%).
func BenchmarkObsOverhead(b *testing.B) {
	g := ConnectedGnp(4000, 16.0/4000, NewRand(1))
	run := func(b *testing.B, ob *Observer) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := BuildSkeleton(g, SkeletonOptions{D: 4, Seed: int64(i), Obs: ob})
			if err != nil {
				b.Fatal(err)
			}
			sinkEdges = res.Spanner
		}
	}
	b.Run("noop", func(b *testing.B) { run(b, nil) })
	b.Run("memory-sink", func(b *testing.B) {
		mem := NewMemorySink()
		run(b, NewObserver(mem))
	})
	b.Run("jsonl-discard", func(b *testing.B) {
		run(b, NewObserver(NewJSONLSink(io.Discard)))
	})
}

// Reliable-transport overhead: the cost of interposing the retry/backoff
// layer on a multi-source BFS wave, against the bare engine. The
// wrapped-lossless case isolates the synchronizer/framing tax; the
// wrapped-drop case adds real retransmission work under 10% loss. Compare:
//
//	go test -bench=ReliableOverhead -count=5
func BenchmarkReliableOverhead(b *testing.B) {
	g := ConnectedGnp(2000, 8.0/2000, NewRand(1))
	sources := []int32{0, 13, 977}
	run := func(b *testing.B, plan *faults.Plan, wrap bool) {
		b.ReportAllocs()
		var wireWords, protoWords int64
		for i := 0; i < b.N; i++ {
			cfg := distsim.Config{}
			if plan != nil {
				p := *plan // each run consumes a plan run index; keep them independent
				cfg.Faults = &p
			}
			var wrapFn func([]distsim.Handler) []distsim.Handler
			if wrap {
				sess := reliable.NewSession(g.N(), reliable.Policy{Seed: int64(i), Slack: 32})
				cfg.Transport = sess
				wrapFn = sess.WrapAll
			}
			res, err := distsim.RunBFSRadiusWrapped(g, sources, 0, cfg, wrapFn)
			if err != nil {
				b.Fatal(err)
			}
			wireWords += res.Metrics.Words
			protoWords += res.Metrics.ProtocolWords()
		}
		if protoWords > 0 {
			b.ReportMetric(float64(wireWords)/float64(protoWords), "wire-words/proto-word")
		}
	}
	b.Run("lossless", func(b *testing.B) { run(b, nil, false) })
	b.Run("wrapped-lossless", func(b *testing.B) { run(b, nil, true) })
	b.Run("wrapped-drop10", func(b *testing.B) {
		run(b, &faults.Plan{Seed: 7, Drop: 0.10}, true)
	})
}

// --- Serving-layer and dynamic-maintenance benchmarks ---
//
// These cover the layers above the constructions: the artifact codec and
// query engine (the serving layer) and the batched update maintainer (the
// dynamic layer). cmd/benchtable -perf prints the same measurements as a
// table via testing.Benchmark.

var (
	sinkBytes []byte
	sinkArt   *Artifact
)

// perfGraph is the shared workload for the serving/dynamic benchmarks:
// large enough that oracle construction and repair balls are non-trivial,
// small enough that the delta-apply path (which rebuilds the oracle) stays
// in benchmark range.
func perfGraph(b *testing.B) (*Graph, *EdgeSet) {
	b.Helper()
	g := ConnectedGnp(2000, 16.0/2000, NewRand(1))
	res, err := BaswanaSen(g, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g, res.Spanner
}

// Serving throughput: sustained concurrent distance queries against a
// loaded artifact (sharded workers, per-shard LRU caches). ns/op under
// RunParallel is the per-query cost with every core hammering the engine.
func BenchmarkServeThroughput(b *testing.B) {
	g, s := perfGraph(b)
	art, err := BuildArtifact(g, s, "baswana-sen", 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewServeEngine(art, ServeConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()

	var seeds, fails atomic.Int64
	nn := int32(g.N())
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := NewRand(100 + seeds.Add(1))
		for pb.Next() {
			r := eng.Query(ServeRequest{Type: ServeQueryDist, U: rng.Int31n(nn), V: rng.Int31n(nn)})
			if r.Err != nil {
				fails.Add(1)
			}
		}
	})
	if f := fails.Load(); f > 0 {
		b.Fatalf("%d of %d queries failed", f, b.N)
	}
}

// Artifact codec: encode/decode of the single-file build artifact (graph +
// spanner + oracle + routing as one checksummed word stream), and the delta
// path — patching a base artifact to the next generation, which replays the
// deterministic oracle/routing construction.
func BenchmarkArtifactCodec(b *testing.B) {
	g, s := perfGraph(b)
	art, err := BuildArtifact(g, s, "baswana-sen", 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	blob := MarshalArtifact(art)

	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkBytes = MarshalArtifact(art)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a, err := UnmarshalArtifact(blob)
			if err != nil {
				b.Fatal(err)
			}
			sinkArt = a
		}
	})

	// Churn a few batches to get a genuinely different generation, then
	// benchmark patching the base up to it.
	m, err := NewDynamicMaintainer(g, s, DynamicConfig{})
	if err != nil {
		b.Fatal(err)
	}
	stream, err := GenerateUpdateStream(g, UpdateStreamConfig{Seed: 2, Batches: 4})
	if err != nil {
		b.Fatal(err)
	}
	for _, bt := range stream {
		if _, err := m.ApplyBatch(bt); err != nil {
			b.Fatal(err)
		}
	}
	next, err := BuildArtifact(m.Graph(), m.Spanner(), "baswana-sen", 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	d, err := DiffArtifacts(art, next)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("delta-apply", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a, err := d.Apply(art)
			if err != nil {
				b.Fatal(err)
			}
			sinkArt = a
		}
		b.ReportMetric(float64(len(d.Marshal()))/float64(len(blob)), "delta-bytes/artifact-bytes")
	})
}

// generationWorkload is the generation-change workload: G(n,p) at n=5000
// with average degree 16, the serving benchmark's graph. Building the
// oracle and routing scheme does not read the spanner, so a Baswana–Sen
// spanner stands in for the skeleton.
func generationWorkload(b *testing.B) (*Graph, *EdgeSet) {
	b.Helper()
	g, err := MakeWorkload("gnp", 5000, 16, NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	res, err := BaswanaSen(g, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g, res.Spanner
}

// Generation rebuild: one BuildArtifact (oracle with k=3 plus routing
// scheme) at n=5000, the kernel every generation change replays.
func BenchmarkArtifactBuild(b *testing.B) {
	g, s := generationWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := BuildArtifact(g, s, "baswana-sen", 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		sinkArt = a
	}
}

// Generation change: applying a 32-update delta to a base at n=5000 —
// the patch, the base checksum check and the oracle/routing rebuild.
func BenchmarkDeltaApply(b *testing.B) {
	g, s := generationWorkload(b)
	base, err := BuildArtifact(g, s, "baswana-sen", 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewDynamicMaintainer(g, s, DynamicConfig{})
	if err != nil {
		b.Fatal(err)
	}
	stream, err := GenerateUpdateStream(g, UpdateStreamConfig{Seed: 2, Batches: 1, BatchSize: 32})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.ApplyBatch(stream[0]); err != nil {
		b.Fatal(err)
	}
	next, err := BuildArtifact(m.Graph(), m.Spanner(), "baswana-sen", 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	d, err := DiffArtifacts(base, next)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := d.Apply(base)
		if err != nil {
			b.Fatal(err)
		}
		sinkArt = a
	}
}

// Generation change on an applied base: the second delta of a chain is
// applied to the first delta's output, whose checksum nothing has computed
// yet, so every iteration pays for it — the generation change every
// /update after the first one makes. The first apply runs off the clock.
func BenchmarkDeltaApplyChain(b *testing.B) {
	g, s := generationWorkload(b)
	base, err := BuildArtifact(g, s, "baswana-sen", 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewDynamicMaintainer(g, s, DynamicConfig{})
	if err != nil {
		b.Fatal(err)
	}
	stream, err := GenerateUpdateStream(g, UpdateStreamConfig{Seed: 2, Batches: 2, BatchSize: 32})
	if err != nil {
		b.Fatal(err)
	}
	var deltas []*ArtifactDelta
	prev := base
	for _, bt := range stream {
		if _, err := m.ApplyBatch(bt); err != nil {
			b.Fatal(err)
		}
		next, err := BuildArtifact(m.Graph(), m.Spanner().Clone(), "baswana-sen", 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		d, err := DiffArtifacts(prev, next)
		if err != nil {
			b.Fatal(err)
		}
		deltas = append(deltas, d)
		prev = next
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mid, err := deltas[0].Apply(base)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		a, err := deltas[1].Apply(mid)
		if err != nil {
			b.Fatal(err)
		}
		sinkArt = a
	}
}

var sinkSkeleton *SkeletonDistributedResult

// The paper's distributed skeleton builder at servebench's shape: G(n,p)
// at n=5000 with average degree 16, seed 3 — the core.skeleton share of
// every workload's setup_s. Run with -cpu 1 to match servebench's
// GOMAXPROCS=1; allocs/op is the simulator's per-message cost.
func BenchmarkSkeletonDistributed(b *testing.B) {
	g, err := MakeWorkload("gnp", 5000, 16, NewRand(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := BuildSkeletonDistributed(g, SkeletonOptions{Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		sinkSkeleton = res
	}
}

var sinkMaintainer *DynamicMaintainer

// Maintainer construction at servebench's shape: G(n,p) at n=5000 with
// average degree 16 and its distributed skeleton, whose derived bound
// (13–18) makes every witness search cover most of the graph. One
// construction derives the bound and builds the witness index in one
// multi-source BFS kernel, whose sweeps spread over GOMAXPROCS workers.
func BenchmarkNewMaintainer(b *testing.B) {
	g, err := MakeWorkload("gnp", 5000, 16, NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	skel, err := BuildSkeletonDistributed(g, SkeletonOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := NewDynamicMaintainer(g, skel.Spanner, DynamicConfig{})
				if err != nil {
					b.Fatal(err)
				}
				sinkMaintainer = m
			}
		})
	}
}

// Dynamic maintenance: amortized per-batch cost of the incremental
// maintainer (witness-certificate filtering + localized repair) against
// rebuilding a spanner of the repair stretch class from scratch. The
// subsystem's reason to exist is incremental ≪ rebuild, so the parent
// measures both once and fails if the ordering is violated (the D1
// acceptance criterion; EXPERIMENTS.md records the table).
func BenchmarkDynamicUpdate(b *testing.B) {
	g, s := perfGraph(b)
	bound, err := DeriveStretchBound(g, s)
	if err != nil {
		b.Fatal(err)
	}
	kRepair := (bound + 1) / 2

	b.Run("incremental-b32", func(b *testing.B) {
		m, err := NewDynamicMaintainer(g, s, DynamicConfig{})
		if err != nil {
			b.Fatal(err)
		}
		stream, err := GenerateUpdateStream(g, UpdateStreamConfig{Seed: 1, Batches: b.N, BatchSize: 32})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.ApplyBatch(stream[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild-b32", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := Greedy(g, kRepair)
			if err != nil {
				b.Fatal(err)
			}
			sinkEdges = r.Spanner
		}
	})

	// Asserted direction: a short measured run, independent of -benchtime.
	m, err := NewDynamicMaintainer(g, s, DynamicConfig{})
	if err != nil {
		b.Fatal(err)
	}
	const probe = 16
	stream, err := GenerateUpdateStream(g, UpdateStreamConfig{Seed: 3, Batches: probe, BatchSize: 32})
	if err != nil {
		b.Fatal(err)
	}
	t0 := time.Now()
	for _, bt := range stream {
		if _, err := m.ApplyBatch(bt); err != nil {
			b.Fatal(err)
		}
	}
	incPerBatch := time.Since(t0) / probe
	t1 := time.Now()
	if _, err := Greedy(m.Graph(), kRepair); err != nil {
		b.Fatal(err)
	}
	rebuild := time.Since(t1)
	b.Logf("amortized incremental %v/batch vs full rebuild %v (%.0fx)",
		incPerBatch, rebuild, float64(rebuild)/float64(incPerBatch))
	if incPerBatch >= rebuild {
		b.Errorf("incremental maintenance (%v/batch) not cheaper than a full rebuild (%v)", incPerBatch, rebuild)
	}
}
