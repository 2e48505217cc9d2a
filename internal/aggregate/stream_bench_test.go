package aggregate

import (
	"testing"

	"trapp/internal/interval"
	"trapp/internal/predicate"
	"trapp/internal/relation"
)

// BenchmarkEvalStoreStream measures the streaming scan-and-fold over a
// 10⁵-row default-sharded store — one -scale megatenant — for every
// aggregate, without a predicate and under `value > k` with k at the
// median, so about half the rows classify T+ or T? and the rest T−.
// ns/row is the cost per stored row, contributing or not. Every aggregate
// is measured because their folds differ: MIN/MAX are selections,
// SUM/AVG bucket sums, COUNT a tally.
func BenchmarkEvalStoreStream(b *testing.B) {
	const n = 100000
	schema := relation.NewSchema(
		relation.Column{Name: "region", Kind: relation.Exact},
		relation.Column{Name: "value", Kind: relation.Bounded},
		relation.Column{Name: "load", Kind: relation.Bounded},
	)
	st := relation.NewStore(schema, 0)
	for k := int64(0); k < n; k++ {
		v := float64(k % 1000)
		st.MustInsert(relation.Tuple{Key: k, Cost: 1, Bounds: []interval.Interval{
			interval.Point(float64(k % 8)), interval.New(v-0.5, v+0.5), interval.New(0, 1),
		}})
	}
	col := schema.MustLookup("value")
	for _, bc := range []struct {
		name string
		p    predicate.Expr
	}{
		{"trivial", nil},
		{"value>k", predicate.NewCmp(predicate.Column(col, "value"), predicate.Gt, predicate.Const(500))},
	} {
		for _, fn := range []Func{Min, Max, Sum, Count, Avg} {
			b.Run(bc.name+"/"+fn.String(), func(b *testing.B) {
				var sink interval.Interval
				for i := 0; i < b.N; i++ {
					sink, _ = EvalStoreStream(st, col, fn, bc.p)
				}
				if sink.IsEmpty() {
					b.Fatal("empty answer")
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			})
		}
	}
}
