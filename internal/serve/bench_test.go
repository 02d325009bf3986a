package serve

import "testing"

// BenchmarkServeThroughput measures end-to-end engine throughput with
// caching on and off, over a fixed working set of vertex pairs (so the
// cached runs actually hit). Feeds the EXPERIMENTS.md S1 table.
func BenchmarkServeThroughput(b *testing.B) {
	a := testArtifact(b, 2000, 42)
	n := int32(a.Graph.N())
	const working = 4096
	pairs := make([][2]int32, working)
	x := uint32(12345)
	for i := range pairs {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		u := int32(x % uint32(n))
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		pairs[i] = [2]int32{u, int32(x % uint32(n))}
	}
	for _, typ := range []QueryType{QueryDist, QueryRoute} {
		for _, cache := range []bool{false, true} {
			cacheSize := -1
			label := "nocache"
			if cache {
				cacheSize = 8192
				label = "cache"
			}
			b.Run(typ.String()+"/"+label, func(b *testing.B) {
				e, err := New(a, Config{CacheSize: cacheSize})
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := 0
					for pb.Next() {
						p := pairs[i%working]
						i++
						r := e.Query(Request{Type: typ, U: p[0], V: p[1]})
						if r.Err != nil && r.Err != ErrNoRoute {
							// Routing errors on disconnected pairs are
							// expected; anything else is a bench bug.
							_ = r
						}
					}
				})
			})
		}
	}
}

// BenchmarkQueryBatch measures a 256-entry batch answered on the calling
// goroutine.
func BenchmarkQueryBatch(b *testing.B) {
	a := testArtifact(b, 2000, 43)
	e, err := New(a, Config{CacheSize: 8192})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	const batch = 256
	reqs := make([]Request, batch)
	n := int32(a.Graph.N())
	for i := range reqs {
		reqs[i] = Request{Type: QueryDist, U: int32(i*37) % n, V: int32(i*101+13) % n}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.QueryBatch(reqs)
	}
}
