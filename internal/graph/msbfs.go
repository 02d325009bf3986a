package graph

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file holds the multi-source BFS kernel behind the routing scheme's
// landmark trees, the dynamic maintainer's witness index and spanner
// verification: a level-synchronous, bit-parallel search (MS-BFS, Then et
// al., PVLDB 2014). A sweep runs up to SweepWidth searches at once, search
// i on bit i, keeping per vertex one uint64 each of frontier, next-frontier
// and seen bits, so one pass over a vertex's neighbours advances every
// search. A sweep costs O(L·(n+m)) for depth L, against 64 single-source
// searches at O(n+m) each. The kernel owns the masks; callers own what a
// level means to them (depths, distances, counts) and which searches stay
// live.

// SweepWidth is the number of sources one sweep searches from.
const SweepWidth = 64

// MSBFS is one worker's scratch for sweeps over one graph, reused across
// sweeps.
type MSBFS struct {
	g                 *Graph
	front, next, seen []uint64
	// start[v] is the adj index where v's scan starts, off[v] + v mod deg(v),
	// so that a level divides nothing.
	start   []int32
	reached []int32
}

// NewMSBFS returns sweep scratch over g.
func (g *Graph) NewMSBFS() *MSBFS {
	n := g.N()
	w := &MSBFS{
		g:       g,
		front:   make([]uint64, n),
		next:    make([]uint64, n),
		seen:    make([]uint64, n),
		start:   make([]int32, n),
		reached: make([]int32, 0, n),
	}
	for v := range w.start {
		w.start[v] = g.off[v] + int32(v)%max(g.off[v+1]-g.off[v], 1)
	}
	return w
}

// Start begins a sweep with search i at src[i]; src holds at most
// SweepWidth vertices.
func (w *MSBFS) Start(src []int32) {
	clear(w.front)
	clear(w.seen)
	for i, s := range src {
		b := uint64(1) << i
		w.front[s] |= b
		w.seen[s] |= b
	}
}

// Level advances the searches in live by one level and returns the vertices
// they reach, in ascending order; Frontier then tells which searches reached
// each. The slice is reused by the next call.
//
// Each level pulls: a vertex not yet seen by every live search scans its
// neighbours for frontier bits. The scan is cyclic over the sorted
// neighbour list and starts at index v mod deg(v), so the first neighbour
// to show search i's frontier bit is v's parent in search i; the start
// depends only on v, so one scan serves the whole sweep, and it stops once
// every search still missing v has found it. When parent is not nil it
// holds a row for every live search, and parent[i][v] receives that parent.
func (w *MSBFS) Level(live uint64, parent [][]int32) []int32 {
	off, adj := w.g.off, w.g.adj
	w.reached = w.reached[:0]
	for y, s := range w.seen {
		need := live &^ s
		lo, hi := off[y], off[y+1]
		if need == 0 || lo == hi {
			w.next[y] = 0
			continue
		}
		mid := w.start[y]
		got := w.pull(adj[mid:hi], need, 0, parent, y)
		if got != need {
			got = w.pull(adj[lo:mid], need, got, parent, y)
		}
		w.next[y] = got
		if got != 0 {
			w.seen[y] = s | got
			w.reached = append(w.reached, int32(y))
		}
	}
	w.front, w.next = w.next, w.front
	return w.reached
}

// pull scans part, a stretch of y's neighbours, for the frontier bits of
// the searches in need that got does not hold yet, recording each bit's
// first neighbour as y's parent in that search. It returns got with the
// bits found, and stops once got holds all of need.
func (w *MSBFS) pull(part []int32, need, got uint64, parent [][]int32, y int) uint64 {
	for _, x := range part {
		f := w.front[x] & need &^ got
		got |= f
		if parent != nil {
			for ; f != 0; f &= f - 1 {
				parent[bits.TrailingZeros64(f)][y] = x
			}
		}
		if got == need {
			break
		}
	}
	return got
}

// Frontier returns the searches that reached v at the last level (after
// Start, the searches starting at v).
func (w *MSBFS) Frontier(v int32) uint64 { return w.front[v] }

// Seen returns the searches that have reached v so far in this sweep.
func (w *MSBFS) Seen(v int32) uint64 { return w.seen[v] }

// Sweeps cuts src into sweeps of SweepWidth sources, sweep j on
// src[j·SweepWidth:], and runs them on min(workers, sweeps) goroutines.
// Each goroutine calls worker once for its sweep function, which it then
// calls with its own MSBFS for every sweep it takes; which goroutine runs a
// sweep is unspecified, so a sweep function must write only its sweep's
// share of any output. Sweeps returns when every sweep is done.
func (g *Graph) Sweeps(src []int32, workers int, worker func() func(w *MSBFS, j int, src []int32)) {
	count := (len(src) + SweepWidth - 1) / SweepWidth
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := min(workers, count); k > 0; k-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, sweep := g.NewMSBFS(), worker()
			for {
				j := int(next.Add(1) - 1)
				if j >= count {
					return
				}
				sweep(w, j, src[j*SweepWidth:min(j*SweepWidth+SweepWidth, len(src))])
			}
		}()
	}
	wg.Wait()
}
