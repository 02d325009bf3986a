package serve

import (
	"bytes"
	"sync"
	"testing"

	"spanner/internal/artifact"
)

// TestConcurrentReadersRace is the race-detector regression test for the
// whole read path: oracle.Oracle.Query, routing.Scheme.NextHop/Route, and a
// decoded artifact must all be safe under many concurrent reader goroutines,
// and the engine must stay consistent while an artifact hot-swap lands in
// the middle of the load. Run via `make serve` (go test -race).
func TestConcurrentReadersRace(t *testing.T) {
	built := testArtifact(t, 120, 11)
	// Serve the decoded copy, not the built one, so the race coverage is on
	// the structures a production daemon actually holds.
	data := built.Marshal()
	a, err := artifact.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := artifact.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(a, Config{CacheSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const readers = 16
	const iters = 400
	n := int32(a.Graph.N())
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int32) {
			defer wg.Done()
			x := uint32(seed)*2654435761 + 1
			next := func() int32 {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				return int32(x % uint32(n))
			}
			for i := 0; i < iters; i++ {
				u, v := next(), next()
				// Direct reads against the shared decoded structures.
				a.Oracle.Query(u, v)
				a.Routing.NextHop(u, a.Routing.AddressOf(v))
				a.Routing.Route(u, v)
				// Engine reads racing the swap below.
				switch i % 3 {
				case 0:
					e.Query(Request{Type: QueryDist, U: u, V: v})
				case 1:
					e.Query(Request{Type: QueryPath, U: u, V: v})
				default:
					e.Query(Request{Type: QueryRoute, U: u, V: v})
				}
			}
		}(int32(r + 1))
	}
	// Swap generations repeatedly while readers are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if i%2 == 0 {
				e.Swap(a2)
			} else {
				e.Swap(a)
			}
		}
	}()
	wg.Wait()

	// The artifact the readers hammered must be bit-identical afterwards:
	// the read path mutated nothing.
	if !bytes.Equal(a.Marshal(), data) {
		t.Fatal("concurrent reads mutated the artifact")
	}
}

// TestDeltaApplyEvictionRace pins the interaction the epoch design leaves
// implicit: cache partitions self-invalidate on their first use after a
// generation change, and with a tiny capacity the LRU is simultaneously
// evicting under reader pressure. A delta apply (patch + swap) landing in
// the middle must not tear either structure. Run via `make dynamic`
// (go test -race).
func TestDeltaApplyEvictionRace(t *testing.T) {
	a := testArtifact(t, 100, 13)
	fwd, back, _ := testDelta(t, a)
	// CacheSize 4 forces eviction on nearly every put.
	e, err := New(a, Config{CacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const readers = 8
	const iters = 300
	n := int32(a.Graph.N())
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int32) {
			defer wg.Done()
			x := uint32(seed)*2654435761 + 1
			next := func() int32 {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				return int32(x % uint32(n))
			}
			for i := 0; i < iters; i++ {
				u, v := next(), next()
				var rep Reply
				switch i % 3 {
				case 0:
					rep = e.Query(Request{Type: QueryDist, U: u, V: v})
				case 1:
					rep = e.Query(Request{Type: QueryPath, U: u, V: v})
				default:
					rep = e.Query(Request{Type: QueryRoute, U: u, V: v})
				}
				if rep.Err != nil {
					t.Errorf("query failed under delta churn: %v", rep.Err)
					return
				}
			}
		}(int32(r + 1))
	}
	// Apply deltas back and forth while the readers churn the caches. Each
	// apply binds to the then-current generation, so alternating fwd/back
	// always matches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			var err error
			if i%2 == 0 {
				_, err = e.ApplyDelta(fwd)
			} else {
				_, err = e.ApplyDelta(back)
			}
			if err != nil {
				t.Errorf("delta apply %d failed: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
}
