package continuous_test

import (
	"math"
	"testing"

	"trapp/internal/aggregate"
	"trapp/internal/boundfn"
	"trapp/internal/cache"
	"trapp/internal/continuous"
	"trapp/internal/netsim"
	"trapp/internal/predicate"
	"trapp/internal/query"
	"trapp/internal/source"
	"trapp/internal/workload"
)

const (
	benchLinks = 20000
	benchNodes = 2500
	benchViews = 32
)

// benchEngine builds the standing-query shape of the durable workload:
// benchLinks links over benchNodes nodes in one cache, and benchViews
// unconstrained subscriptions "AGG(col) WHERE to = i" cycling through
// SUM(traffic), AVG(latency), MAX(bandwidth) and COUNT(traffic) with an
// extra traffic > 110 conjunct — about 8 contributing links per view.
// Unconstrained views never repair, so the benchmarks time maintenance
// alone.
func benchEngine(b *testing.B) (*netsim.Clock, *source.Source, *continuous.Engine) {
	b.Helper()
	clock, net := netsim.NewClock(), netsim.NewNetwork()
	schema := workload.LinkSchema()
	src := source.New("s", clock, net, nil)
	c := cache.New("c", clock, schema)
	for k := int64(0); k < benchLinks; k++ {
		vals := []float64{float64(k % 40), float64(50 + k%100), float64(80 + k%60)}
		if err := src.AddObject(k, vals, float64(1+k%4), boundfn.StaticWidth(1)); err != nil {
			b.Fatal(err)
		}
		if err := c.Subscribe(src, k, []float64{float64(k * 7 % benchNodes), float64(k % benchNodes)}); err != nil {
			b.Fatal(err)
		}
	}
	e := continuous.NewEngine(clock, continuous.Config{})
	e.AddTable("links", c)
	b.Cleanup(e.Close)
	to, traffic := schema.MustLookup(workload.ColTo), schema.MustLookup(workload.ColTraffic)
	for i := 0; i < benchViews; i++ {
		where := predicate.Expr(predicate.NewCmp(predicate.Column(to, workload.ColTo), predicate.Eq, predicate.Const(float64(i))))
		var q query.Query
		switch i % 4 {
		case 0:
			q = query.NewQuery("links", aggregate.Sum, workload.ColTraffic)
		case 1:
			q = query.NewQuery("links", aggregate.Avg, workload.ColLatency)
		case 2:
			q = query.NewQuery("links", aggregate.Max, workload.ColBandwidth)
		default:
			q = query.NewQuery("links", aggregate.Count, workload.ColTraffic)
			where = predicate.NewAnd(predicate.NewCmp(predicate.Column(traffic, workload.ColTraffic), predicate.Gt, predicate.Const(110)), where)
		}
		q.Where = where
		if _, err := e.Subscribe(q); err != nil {
			b.Fatal(err)
		}
	}
	return clock, src, e
}

// BenchmarkViewRebuild times one clock tick's maintenance: every bound
// widens, so each of the 32 views is rebuilt from all 20 000 rows and
// re-folded.
func BenchmarkViewRebuild(b *testing.B) {
	clock, _, e := benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(1)
		e.Settle()
	}
}

// BenchmarkViewPush times one value-initiated push and the settle that
// folds it into the 32 views: the pushed value leaves its bound, so the
// cache installs it and every view re-classifies the one key.
func BenchmarkViewPush(b *testing.B) {
	_, src, e := benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(i*7919) % benchLinks
		shift := 10 * math.Copysign(1, float64(i%2)-0.5)
		vals, _ := src.Values(k)
		for j := range vals {
			vals[j] += shift
		}
		if err := src.SetValue(k, vals); err != nil {
			b.Fatal(err)
		}
		e.Settle()
	}
}
