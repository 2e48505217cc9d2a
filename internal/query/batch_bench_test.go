package query_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"trapp/internal/experiment"
	"trapp/internal/query"
)

// BenchmarkExecuteBatch times one 16-query batch of the links query mix
// over 2 000 links, after a clock tick each time so every batch syncs
// the cache and rescans (the tick retires the plan cache's memos) —
// the cross-query path no single-query benchmark takes. ns/query is the
// batch's wall time per query; the untimed tick is only the clock
// advance.
func BenchmarkExecuteBatch(b *testing.B) {
	const links = 2000
	sys, _, err := experiment.BuildLinkSystem(links, 8, experiment.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	rng := rand.New(rand.NewSource(1))
	schema := sys.MountedCache("links").Schema()
	qs := make([]query.Query, 16)
	for i := range qs {
		qs[i] = experiment.MixQuery(rng, schema, links)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys.Clock.Advance(1)
		b.StartTimer()
		if _, err := sys.ExecuteBatch(ctx, qs); err != nil && !errors.Is(err, query.ErrBudgetExhausted{}) {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(qs)), "ns/query")
}
