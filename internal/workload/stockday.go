package workload

import (
	"math/rand"

	"trapp/internal/interval"
	"trapp/internal/randomwalk"
	"trapp/internal/relation"
)

// StockQuote is one synthetic stock's day summary, the unit of the
// section 5.2.1 experiment: the day's low and high form the cached bound
// [L_i, H_i], the closing price is the precise master value V_i, and the
// refresh cost C_i is uniform in [1, 10].
type StockQuote struct {
	// Symbol is a synthetic ticker index.
	Symbol int
	// Low and High are the day's price extremes.
	Low, High float64
	// Close is the closing (master) price, inside [Low, High].
	Close float64
	// Cost is the refresh cost, an integer in [1, 10] as in the paper.
	Cost float64
}

// StockDay generates n synthetic volatile stocks. This substitutes for the
// paper's "90 actual stock prices that varied highly in one day": each
// stock runs a geometric random walk for one simulated trading day (390
// one-minute ticks) with high volatility, and the experiment consumes only
// the (low, high, close, cost) tuple — the same shape of input the paper's
// experiment used. Deterministic in seed.
func StockDay(n int, seed int64) []StockQuote {
	rng := rand.New(rand.NewSource(seed))
	quotes := make([]StockQuote, n)
	for i := range quotes {
		start := 20 + rng.Float64()*180 // opening price in [20, 200)
		vol := 0.004 + rng.Float64()*0.01
		g := randomwalk.NewGeometric(start, vol, rng.Int63())
		series := randomwalk.Series(g.Next, start, 390)
		lo, hi := randomwalk.Envelope(series)
		quotes[i] = StockQuote{
			Symbol: i,
			Low:    lo,
			High:   hi,
			Close:  series[len(series)-1],
			Cost:   float64(1 + rng.Intn(10)),
		}
	}
	return quotes
}

// StockSchema is the single-bounded-column schema of the stock experiment.
func StockSchema() *relation.Schema {
	return relation.NewSchema(
		relation.Column{Name: "symbol", Kind: relation.Exact},
		relation.Column{Name: "price", Kind: relation.Bounded},
	)
}

// StockStore builds the cached relation for a set of quotes as a
// one-shard store: each tuple's price bound is the day's [low, high]
// range.
func StockStore(quotes []StockQuote) *relation.Store {
	st := relation.NewStore(StockSchema(), 1)
	for _, q := range quotes {
		st.MustInsert(relation.Tuple{
			Key: int64(q.Symbol),
			Bounds: []interval.Interval{
				interval.Point(float64(q.Symbol)),
				interval.New(q.Low, q.High),
			},
			Cost: q.Cost,
		})
	}
	return st
}

// StockMaster returns the closing prices as the refresh oracle map.
func StockMaster(quotes []StockQuote) MapOracle {
	m := make(MapOracle, len(quotes))
	for _, q := range quotes {
		m[int64(q.Symbol)] = []float64{q.Close}
	}
	return m
}
