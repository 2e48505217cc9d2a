package experiment

import (
	"context"
	"time"

	"trapp/internal/aggregate"
	"trapp/internal/quantile"
	"trapp/internal/query"
	"trapp/internal/refresh"
	"trapp/internal/relation"
	"trapp/internal/workload"
)

// IterBatchRow compares the batch (section 4) and iterative (section 8.2)
// execution modes for one aggregate (ablation E10).
type IterBatchRow struct {
	Agg        aggregate.Func
	R          float64
	BatchCost  float64
	IterCost   float64
	IterRounds int
}

// IterativeVsBatch runs both execution modes on identical caches at a
// mid-range precision constraint per aggregate. Iterative never costs
// more (each round exploits actual refreshed values) but performs its
// refreshes sequentially.
func IterativeVsBatch(n int, seed int64) []IterBatchRow {
	fns := []aggregate.Func{aggregate.Min, aggregate.Max, aggregate.Sum, aggregate.Avg}
	var rows []IterBatchRow
	quotes := workload.StockDay(n, seed)
	master := workload.StockMaster(quotes)
	for _, fn := range fns {
		probe := workload.StockStore(quotes)
		initial, _ := aggregate.EvalStoreStream(probe, probe.Schema().MustLookup("price"), fn, nil)
		r := initial.Width() / 4

		bp := query.NewProcessor(refresh.Options{})
		bp.RegisterStore("stocks", workload.StockStore(quotes), master)
		q := query.NewQuery("stocks", fn, "price")
		q.Within = r
		batch, err := bp.ExecuteCtx(context.Background(), q)
		if err != nil || !batch.Met {
			continue
		}
		ip := query.NewProcessor(refresh.Options{})
		ip.RegisterStore("stocks", workload.StockStore(quotes), master)
		iter, err := ip.ExecuteIterative(q)
		if err != nil || !iter.Met {
			continue
		}
		rows = append(rows, IterBatchRow{
			Agg: fn, R: r,
			BatchCost:  batch.RefreshCost,
			IterCost:   iter.RefreshCost,
			IterRounds: iter.Refreshed,
		})
	}
	return rows
}

// IndexRow compares scan-based and index-based CHOOSE_REFRESH for MIN at
// one table size (ablation E11, sections 5.1/8.3).
type IndexRow struct {
	N         int
	ScanTime  time.Duration
	IndexTime time.Duration
}

// IndexSpeedup measures CHOOSE_REFRESH(MIN) with and without B-tree
// endpoint indexes across table sizes. The index cost is a point probe
// plus a range scan over the (small) result, so its time stays near-flat
// as n grows while the scan's grows linearly.
func IndexSpeedup(sizes []int, seed int64, reps int) []IndexRow {
	if reps < 1 {
		reps = 1
	}
	var rows []IndexRow
	for _, n := range sizes {
		st := workload.StockStore(workload.StockDay(n, seed))
		price := st.Schema().MustLookup("price")
		lower := relation.NewShardedIndex(st, price, relation.LowerEndpoint)
		upper := relation.NewShardedIndex(st, price, relation.UpperEndpoint)
		r := 5.0

		start := time.Now()
		for k := 0; k < reps; k++ {
			if _, err := refresh.ChooseStore(st, price, aggregate.Min, nil, r, refresh.Options{}); err != nil {
				panic(err)
			}
		}
		scan := time.Since(start) / time.Duration(reps)

		start = time.Now()
		for k := 0; k < reps; k++ {
			if _, err := refresh.ChooseMinIndexedStore(st, lower, upper, r); err != nil {
				panic(err)
			}
		}
		idx := time.Since(start) / time.Duration(reps)
		rows = append(rows, IndexRow{N: n, ScanTime: scan, IndexTime: idx})
	}
	return rows
}

// MedianRow reports the bounded-median extension (E12, section 8.1) at
// one precision constraint.
type MedianRow struct {
	R           float64
	InitialW    float64
	Refreshed   int
	RefreshCost float64
}

// Medians sweeps the precision constraint for the iterative bounded
// median over the stock workload — the same tradeoff curve as Figure 6,
// for an aggregate outside the paper's core five.
func Medians(rs []float64, n int, seed int64) []MedianRow {
	var rows []MedianRow
	quotes := workload.StockDay(n, seed)
	master := workload.StockMaster(quotes)
	for _, r := range rs {
		st := workload.StockStore(quotes)
		res, err := quantile.ExecuteMedian(st, st.Schema().MustLookup("price"), r, master)
		if err != nil || !res.Met {
			continue
		}
		rows = append(rows, MedianRow{
			R:           r,
			InitialW:    res.Initial.Width(),
			Refreshed:   res.Refreshed,
			RefreshCost: res.RefreshCost,
		})
	}
	return rows
}
