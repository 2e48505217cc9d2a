// Top-level benchmarks, one per paper table/figure plus the DESIGN.md
// ablations. Run with:
//
//	go test -bench=. -benchmem
//
// EXPERIMENTS.md records the measured shapes against the paper's.
package trapp_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"trapp/internal/aggregate"
	"trapp/internal/experiment"
	"trapp/internal/interval"
	"trapp/internal/join"
	"trapp/internal/knapsack"
	"trapp/internal/predicate"
	"trapp/internal/quantile"
	"trapp/internal/query"
	"trapp/internal/refresh"
	"trapp/internal/relation"
	"trapp/internal/workload"
)

// stockInstance builds the section 5.2.1 experiment input: n stocks as
// knapsack items (profit = cost, weight = day range).
func stockInstance(n int) ([]knapsack.Item, []workload.StockQuote) {
	quotes := workload.StockDay(n, experiment.DefaultSeed)
	items := make([]knapsack.Item, len(quotes))
	for i, q := range quotes {
		items[i] = knapsack.Item{Profit: q.Cost, Weight: q.High - q.Low}
	}
	return items, quotes
}

// BenchmarkFigure5ChooseRefreshTime regenerates the left axis of Figure 5:
// CHOOSE_REFRESH(SUM) running time as the knapsack ε varies, R = 100,
// 90 stock objects. The paper's shape — time growing roughly quadratically
// in 1/ε — shows as ns/op across sub-benchmarks.
func BenchmarkFigure5ChooseRefreshTime(b *testing.B) {
	items, _ := stockInstance(90)
	for _, eps := range []float64{0.1, 0.08, 0.06, 0.04, 0.02, 0.01} {
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				sol := knapsack.Approx(items, 100, eps)
				cost = sol.Profit
			}
			_ = cost
		})
	}
}

// BenchmarkFigure5RefreshCost reports the right axis of Figure 5 as a
// custom metric (refresh-cost) per ε.
func BenchmarkFigure5RefreshCost(b *testing.B) {
	items, quotes := stockInstance(90)
	var total float64
	for _, q := range quotes {
		total += q.Cost
	}
	for _, eps := range []float64{0.1, 0.04, 0.01} {
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			var sol knapsack.Solution
			for i := 0; i < b.N; i++ {
				sol = knapsack.Approx(items, 100, eps)
			}
			b.ReportMetric(total-sol.Profit, "refresh-cost")
		})
	}
}

// BenchmarkFigure6Tradeoff regenerates Figure 6: total refresh cost versus
// precision constraint R at ε = 0.1 — the precision-performance curve.
// The refresh-cost metric decreases monotonically as R grows.
func BenchmarkFigure6Tradeoff(b *testing.B) {
	items, quotes := stockInstance(90)
	var total float64
	for _, q := range quotes {
		total += q.Cost
	}
	for _, r := range []float64{0, 25, 50, 75, 100, 125, 140} {
		b.Run(fmt.Sprintf("R=%.0f", r), func(b *testing.B) {
			var sol knapsack.Solution
			for i := 0; i < b.N; i++ {
				sol = knapsack.Approx(items, r, 0.1)
			}
			b.ReportMetric(total-sol.Profit, "refresh-cost")
		})
	}
}

// BenchmarkKnapsackSolvers is ablation E5: exact DP vs FPTAS vs greedy on
// the stock instance.
func BenchmarkKnapsackSolvers(b *testing.B) {
	items, _ := stockInstance(90)
	b.Run("exact-dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := knapsack.ExactDP(items, 100); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("approx-0.1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			knapsack.Approx(items, 100, 0.1)
		}
	})
	b.Run("greedy-density", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			knapsack.GreedyDensity(items, 100)
		}
	})
	b.Run("greedy-uniform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			knapsack.GreedyUniform(items, 100)
		}
	})
}

// BenchmarkChooseRefresh measures CHOOSE_REFRESH for each aggregate over
// the stock table (no predicate), the per-aggregate complexity analysis of
// sections 5–6.
func BenchmarkChooseRefresh(b *testing.B) {
	quotes := workload.StockDay(90, experiment.DefaultSeed)
	tab := workload.StockStore(quotes)
	price := tab.Schema().MustLookup("price")
	initial, _ := aggregate.EvalStoreStream(tab, price, aggregate.Sum, nil)
	r := initial.Width() / 10
	for _, fn := range []aggregate.Func{aggregate.Min, aggregate.Max, aggregate.Sum, aggregate.Avg} {
		b.Run(fn.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := refresh.ChooseStore(tab, price, fn, nil, r, refresh.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChooseRefreshWithPredicate measures the section 6 algorithms
// including classification and the Appendix F AVG reduction.
func BenchmarkChooseRefreshWithPredicate(b *testing.B) {
	quotes := workload.StockDay(90, experiment.DefaultSeed)
	tab := workload.StockStore(quotes)
	price := tab.Schema().MustLookup("price")
	p := predicate.NewCmp(predicate.Column(price, "price"), predicate.Gt, predicate.Const(100))
	for _, fn := range []aggregate.Func{aggregate.Min, aggregate.Sum, aggregate.Count, aggregate.Avg} {
		b.Run(fn.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := refresh.ChooseStore(tab, price, fn, p, 20, refresh.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBoundedAnswer measures bounded-answer computation per aggregate
// (steps 1/3 of query execution), including the tight Appendix E AVG.
func BenchmarkBoundedAnswer(b *testing.B) {
	quotes := workload.StockDay(1000, experiment.DefaultSeed)
	tab := workload.StockStore(quotes)
	price := tab.Schema().MustLookup("price")
	p := predicate.NewCmp(predicate.Column(price, "price"), predicate.Gt, predicate.Const(100))
	for _, fn := range []aggregate.Func{aggregate.Min, aggregate.Max, aggregate.Sum, aggregate.Count, aggregate.Avg} {
		b.Run(fn.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				aggregate.EvalStoreStream(tab, price, fn, p)
			}
		})
	}
	b.Run("AVG-loose", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inputs, n := aggregate.CollectStore(tab, price, p, true, 1)
			aggregate.EvalLooseAvgInputs(inputs, false, n)
		}
	})
}

// BenchmarkClassify measures T+/T?/T− classification throughput (the
// serial input scan, without the Appendix D shrink).
func BenchmarkClassify(b *testing.B) {
	quotes := workload.StockDay(1000, experiment.DefaultSeed)
	tab := workload.StockStore(quotes)
	price := tab.Schema().MustLookup("price")
	p := predicate.NewAnd(
		predicate.NewCmp(predicate.Column(price, "price"), predicate.Gt, predicate.Const(60)),
		predicate.NewCmp(predicate.Column(price, "price"), predicate.Lt, predicate.Const(180)),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aggregate.CollectStore(tab, price, p, false, 1)
	}
}

// BenchmarkBTreeIndex measures the sublinear index primitives the paper's
// complexity analysis assumes (sections 5.1, 6.3, 8.3).
func BenchmarkBTreeIndex(b *testing.B) {
	bt := relation.NewBTree(16)
	for i := 0; i < 100000; i++ {
		bt.Insert(float64(i%1000)+float64(i)/1e6, int64(i))
	}
	b.Run("insert-delete", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := float64(i % 1000)
			bt.Insert(k, int64(1e9+i))
			bt.Delete(k, int64(1e9+i))
		}
	})
	b.Run("min", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bt.Min()
		}
	})
	b.Run("keys-less", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			count := 0
			bt.AscendLess(5, func(float64, int64) bool { count++; return true })
		}
	})
}

// BenchmarkJoinPlanners is extension E9: the two join refresh planners.
func BenchmarkJoinPlanners(b *testing.B) {
	mkSpec := func(left *relation.Store) join.Spec {
		return join.Spec{
			Agg:     aggregate.Sum,
			AggSide: join.Right, AggColumn: 1,
			Pred: predicate.NewAnd(
				predicate.NewCmp(predicate.Column(0, "node"), predicate.Eq,
					predicate.Column(join.ShiftColumn(left.Schema(), 0), "from")),
				predicate.NewCmp(predicate.Column(1, "load"), predicate.Gt, predicate.Const(50)),
			),
			Within: math.Inf(1),
		}
	}
	left, right, _, _ := benchJoinTables(10)
	spec := mkSpec(left)
	b.Run("eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			join.Eval(left, right, spec)
		}
	})
	spec.Within = 5
	b.Run("batch-greedy-plan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := join.BatchGreedy(left, right, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEndToEndQuery measures the full three-step execution over a
// fresh cache each iteration (store rebuild excluded via timers).
func BenchmarkEndToEndQuery(b *testing.B) {
	quotes := workload.StockDay(90, experiment.DefaultSeed)
	master := workload.StockMaster(quotes)
	for _, r := range []float64{1000, 100, 0} {
		b.Run(fmt.Sprintf("R=%.0f", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tab := workload.StockStore(quotes)
				proc := newBenchProcessor(tab, master)
				b.StartTimer()
				q := benchQuery(r)
				if _, err := proc.ExecuteCtx(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexedVsScanMin is ablation E11: CHOOSE_REFRESH(MIN) via O(n)
// scan versus B-tree endpoint indexes (sections 5.1 and 8.3).
func BenchmarkIndexedVsScanMin(b *testing.B) {
	for _, n := range []int{100, 10000} {
		st := workload.StockStore(workload.StockDay(n, experiment.DefaultSeed))
		price := st.Schema().MustLookup("price")
		lower := relation.NewShardedIndex(st, price, relation.LowerEndpoint)
		upper := relation.NewShardedIndex(st, price, relation.UpperEndpoint)
		b.Run(fmt.Sprintf("scan/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := refresh.ChooseStore(st, price, aggregate.Min, nil, 5, refresh.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("indexed/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := refresh.ChooseMinIndexedStore(st, lower, upper, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBoundedMedian is extension E12: the bounded k-th order
// statistic (section 8.1).
func BenchmarkBoundedMedian(b *testing.B) {
	quotes := workload.StockDay(1000, experiment.DefaultSeed)
	tab := workload.StockStore(quotes)
	price := tab.Schema().MustLookup("price")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quantile.Median(tab, price)
	}
}

// BenchmarkIterativeVsBatch is ablation E10: the two execution modes for
// a SUM query at a mid constraint (table rebuild excluded via timers).
func BenchmarkIterativeVsBatch(b *testing.B) {
	quotes := workload.StockDay(90, experiment.DefaultSeed)
	master := workload.StockMaster(quotes)
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			proc := newBenchProcessor(workload.StockStore(quotes), master)
			b.StartTimer()
			if _, err := proc.ExecuteCtx(context.Background(), benchQuery(500)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("iterative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			proc := newBenchProcessor(workload.StockStore(quotes), master)
			b.StartTimer()
			if _, err := proc.ExecuteIterative(benchQuery(500)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchJoinTables builds deterministic join tables sized n per side.
func benchJoinTables(n int) (*relation.Store, *relation.Store, workload.MapOracle, workload.MapOracle) {
	ls := relation.NewSchema(
		relation.Column{Name: "node", Kind: relation.Exact},
		relation.Column{Name: "load", Kind: relation.Bounded},
	)
	rs := relation.NewSchema(
		relation.Column{Name: "from", Kind: relation.Exact},
		relation.Column{Name: "latency", Kind: relation.Bounded},
	)
	left, right := relation.NewStore(ls, 1), relation.NewStore(rs, 1)
	lm, rm := workload.MapOracle{}, workload.MapOracle{}
	for i := 0; i < n; i++ {
		lo := 30 + float64((i*37)%40)
		left.MustInsert(relation.Tuple{
			Key: int64(i + 1),
			Bounds: []interval.Interval{
				interval.Point(float64(i % 5)), interval.New(lo, lo+10),
			},
			Cost: 1 + float64(i%9),
		})
		lm[int64(i+1)] = []float64{lo + 3}
		llo := 1 + float64((i*13)%8)
		right.MustInsert(relation.Tuple{
			Key: int64(100 + i),
			Bounds: []interval.Interval{
				interval.Point(float64(i % 5)), interval.New(llo, llo+4),
			},
			Cost: 1 + float64((i*3)%9),
		})
		rm[int64(100+i)] = []float64{llo + 2}
	}
	return left, right, lm, rm
}

// newBenchProcessor registers the stock store for end-to-end benchmarks.
func newBenchProcessor(st *relation.Store, master workload.MapOracle) *query.Processor {
	proc := query.NewProcessor(refresh.Options{Epsilon: 0.1})
	proc.RegisterStore("stocks", st, master)
	return proc
}

// benchQuery builds the standard SUM(price) query at precision r.
func benchQuery(r float64) query.Query {
	q := query.NewQuery("stocks", aggregate.Sum, "price")
	q.Within = r
	return q
}
