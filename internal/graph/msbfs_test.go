package graph

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// msbfsRows runs one search per source over g, spread over the given number
// of workers, and returns each search's depth and parent rows, with
// Unreachable where the search never got.
func msbfsRows(g *Graph, src []int32, workers int) (depth, parent [][]int32) {
	n := g.N()
	depth, parent = make([][]int32, len(src)), make([][]int32, len(src))
	for i := range src {
		depth[i], parent[i] = make([]int32, n), make([]int32, n)
		for v := 0; v < n; v++ {
			depth[i][v], parent[i][v] = Unreachable, Unreachable
		}
	}
	g.Sweeps(src, workers, func() func(*MSBFS, int, []int32) {
		return func(w *MSBFS, j int, sw []int32) {
			ds, ps := depth[j*SweepWidth:][:len(sw)], parent[j*SweepWidth:][:len(sw)]
			w.Start(sw)
			var live uint64
			for i, s := range sw {
				ds[i][s], ps[i][s] = 0, s
				live |= 1 << i
			}
			for level := int32(1); live != 0; level++ {
				var reached uint64
				for _, y := range w.Level(live, ps) {
					got := w.Frontier(y)
					reached |= got
					for ; got != 0; got &= got - 1 {
						ds[bits.TrailingZeros64(got)][y] = level
					}
				}
				live &= reached
			}
		}
	})
	return depth, parent
}

// scanParents applies the kernel's parent rule to a BFS distance row from
// src: each reached v ≠ src takes the first neighbour one level closer in
// the cyclic scan of its sorted list from index v mod deg(v).
func scanParents(g *Graph, src int32, dist []int32) []int32 {
	parent := make([]int32, len(dist))
	for v := range parent {
		parent[v] = Unreachable
		ns := g.Neighbors(int32(v))
		for k := range ns {
			if x := ns[(v+k)%len(ns)]; dist[v] > 0 && dist[x] == dist[v]-1 {
				parent[v] = x
				break
			}
		}
	}
	parent[src] = src
	return parent
}

// TestMSBFSMatchesBFS checks the bit-parallel kernel search by search: on
// disconnected graphs with isolated vertices, a path longer than one sweep
// and the path fixtures, and for source counts on both sides of one and
// two full sweeps (drawn with repeats, so one vertex may start several
// searches), each depth row is g.BFS from its source, each parent row is
// the cyclic-scan rule applied to it, and neither depends on the number of
// workers the sweeps are spread over.
func TestMSBFSMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	graphs := pathFixtures()
	graphs["path-150"] = Path(150)
	graphs["gnp-isolated"] = Gnp(200, 0.008, rng)
	for name, g := range graphs {
		for _, k := range []int{1, 63, 64, 65, 129} {
			t.Run(fmt.Sprintf("%s/%d", name, k), func(t *testing.T) {
				src := make([]int32, k)
				for i := range src {
					src[i] = int32(rng.Intn(g.N()))
				}
				depth, parent := msbfsRows(g, src, 1)
				for i, s := range src {
					want := g.BFS(s)
					if !slices.Equal(depth[i], want) {
						t.Fatalf("search %d (source %d): depth row differs from BFS", i, s)
					}
					if !slices.Equal(parent[i], scanParents(g, s, want)) {
						t.Fatalf("search %d (source %d): parents differ from the cyclic-scan rule", i, s)
					}
				}
				for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
					d, p := msbfsRows(g, src, workers)
					for i := range src {
						if !slices.Equal(d[i], depth[i]) || !slices.Equal(p[i], parent[i]) {
							t.Fatalf("%d workers: search %d differs from one worker's", workers, i)
						}
					}
				}
			})
		}
	}
}
