// Package spanner is a Go implementation of the algorithms from
//
//	Seth Pettie, "Distributed algorithms for ultrasparse spanners and
//	linear size skeletons", PODC 2008 / Distributed Computing (2009).
//
// It provides, over a synchronous message-passing network simulator:
//
//   - Linear-size spanners and skeletons (Section 2): O(n)-size subgraphs
//     with O(2^{log* n}·log n) distortion, built in O(2^{log* n}·log n)
//     rounds with O(log^κ n)-word messages — BuildSkeleton and
//     BuildSkeletonDistributed.
//   - Fibonacci spanners (Section 4): near-linear-size
//     O(n(ε⁻¹ log log n)^φ) spanners whose multiplicative distortion
//     improves with distance through four discrete stages —
//     BuildFibonacci and BuildFibonacciDistributed.
//   - The lower-bound machinery of Section 3: the fixture graph G(τ,λ,κ)
//     and the symmetric-discard adversary demonstrating the
//     time/size/distortion tradeoff — NewLowerBoundFixture.
//   - Baselines for comparison: Baswana–Sen (2k−1)-spanners, the greedy
//     girth-based (2k−1)-spanner, and BFS trees.
//   - A serving layer for the build-once/query-many applications the paper
//     motivates: completed builds freeze into single-file artifacts
//     (BuildArtifact/SaveArtifact/LoadArtifact) and a concurrent, cached
//     query engine answers distance/path/route queries over them with
//     atomic hot-swap (NewServeEngine; cmd/spannerd is the HTTP daemon).
//
// # Quickstart
//
//	rng := rand.New(rand.NewSource(1))
//	g := spanner.ConnectedGnp(10000, 0.002, rng)
//	res, err := spanner.BuildSkeleton(g, spanner.SkeletonOptions{D: 4})
//	if err != nil { ... }
//	rep := spanner.Measure(g, res.Spanner, spanner.MeasureOptions{Sources: 64, Rng: rng})
//	fmt.Println(rep) // size, stretch, connectivity
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every reproduced table and figure.
package spanner
