package cache

import (
	"fmt"
	"testing"

	"trapp/internal/boundfn"
	"trapp/internal/netsim"
	"trapp/internal/relation"
	"trapp/internal/source"
)

// benchCache builds a cache holding n objects with two bounded columns,
// the shape of one -scale megatenant.
func benchCache(b *testing.B, n int) (*Cache, *netsim.Clock) {
	b.Helper()
	clock := netsim.NewClock()
	net := netsim.NewNetwork()
	schema := relation.NewSchema(
		relation.Column{Name: "region", Kind: relation.Exact},
		relation.Column{Name: "value", Kind: relation.Bounded},
		relation.Column{Name: "load", Kind: relation.Bounded},
	)
	c := New("bench", clock, schema)
	src := source.New("s1", clock, net, nil)
	for k := int64(0); k < int64(n); k++ {
		if err := src.AddObject(k, []float64{float64(k % 97), float64(k % 31)},
			1, boundfn.StaticWidth(0.5)); err != nil {
			b.Fatal(err)
		}
		if err := c.Subscribe(src, k, []float64{float64(k % 8)}); err != nil {
			b.Fatal(err)
		}
	}
	return c, clock
}

// BenchmarkSyncTick measures the full per-tick rewrite: every iteration
// advances the clock so Sync must re-materialize all n tuples — the cost
// every first query of a tick pays at -scale populations. ns/object-tick
// is that cost per cached object (CPU time of one core: run with -cpu 1,
// or the stale shards are rewritten in parallel).
func BenchmarkSyncTick(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c, clock := benchCache(b, n)
			c.Sync()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clock.Advance(1)
				c.Sync()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/object-tick")
		})
	}
}

// BenchmarkSyncClean measures the same-tick fast path: all shards clean,
// Sync is a probe of per-shard state mutexes.
func BenchmarkSyncClean(b *testing.B) {
	c, _ := benchCache(b, 10000)
	c.Sync()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Sync()
	}
}
