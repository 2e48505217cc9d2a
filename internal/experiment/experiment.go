// Package experiment implements the paper's evaluation (section 5.2.1) and
// the ablations listed in DESIGN.md. Each experiment returns typed rows so
// the same code backs cmd/trappbench's tables and the testing.B benchmarks
// at the repository root; EXPERIMENTS.md records paper-vs-measured shapes.
// links.go builds the link-monitoring systems the servers, the examples
// and the cluster tests deploy.
package experiment

import (
	"fmt"
	"io"
	"math"
	"time"

	"trapp/internal/aggregate"
	"trapp/internal/boundfn"
	"trapp/internal/cache"
	"trapp/internal/interval"
	"trapp/internal/join"
	"trapp/internal/knapsack"
	"trapp/internal/netsim"
	"trapp/internal/predicate"
	"trapp/internal/refresh"
	"trapp/internal/relation"
	"trapp/internal/source"
	"trapp/internal/workload"
)

// DefaultSeed makes every experiment reproducible; the value is arbitrary.
const DefaultSeed = 20000615 // VLDB 2000 camera-ready season

// stockItems converts the stock-day workload into the SUM knapsack items
// used throughout the Figure 5/6 experiments.
func stockItems(quotes []workload.StockQuote) []knapsack.Item {
	items := make([]knapsack.Item, len(quotes))
	for i, q := range quotes {
		items[i] = knapsack.Item{Profit: q.Cost, Weight: q.High - q.Low}
	}
	return items
}

// refreshCostOfComplement sums the refresh costs outside the knapsack.
func refreshCostOfComplement(quotes []workload.StockQuote, sol knapsack.Solution) float64 {
	var total float64
	for _, q := range quotes {
		total += q.Cost
	}
	return total - sol.Profit
}

// Fig5Row is one point of Figure 5: CHOOSE_REFRESH running time and the
// total refresh cost of the selected tuples, as the knapsack approximation
// parameter ε varies with R fixed at 100.
type Fig5Row struct {
	Epsilon     float64
	ChooseTime  time.Duration
	RefreshCost float64
}

// Figure5 reproduces the paper's Figure 5: SUM over the stock workload,
// R = 100, ε swept from coarse to fine. Each timing point repeats the
// selection `reps` times and reports the average.
func Figure5(epsilons []float64, r float64, n int, seed int64, reps int) []Fig5Row {
	quotes := workload.StockDay(n, seed)
	items := stockItems(quotes)
	if reps < 1 {
		reps = 1
	}
	rows := make([]Fig5Row, 0, len(epsilons))
	for _, eps := range epsilons {
		var sol knapsack.Solution
		start := time.Now()
		for k := 0; k < reps; k++ {
			sol = knapsack.Approx(items, r, eps)
		}
		elapsed := time.Since(start) / time.Duration(reps)
		rows = append(rows, Fig5Row{
			Epsilon:     eps,
			ChooseTime:  elapsed,
			RefreshCost: refreshCostOfComplement(quotes, sol),
		})
	}
	return rows
}

// Fig6Row is one point of Figure 6: the precision-performance tradeoff of
// refresh cost versus precision constraint R at ε = 0.1.
type Fig6Row struct {
	R           float64
	RefreshCost float64
	Refreshed   int
}

// Figure6 reproduces the paper's Figure 6: SUM over the stock workload
// with ε = 0.1 and R swept across [0, Rmax]; refresh cost decreases
// continuously and monotonically (modulo approximation noise) as the
// constraint relaxes — the concrete instantiation of Figure 1(b).
func Figure6(rs []float64, eps float64, n int, seed int64) []Fig6Row {
	quotes := workload.StockDay(n, seed)
	items := stockItems(quotes)
	rows := make([]Fig6Row, 0, len(rs))
	for _, r := range rs {
		sol := knapsack.Approx(items, r, eps)
		rows = append(rows, Fig6Row{
			R:           r,
			RefreshCost: refreshCostOfComplement(quotes, sol),
			Refreshed:   len(items) - len(sol.Selected),
		})
	}
	return rows
}

// SolverRow compares knapsack solvers on the stock instance (ablation E5).
type SolverRow struct {
	Name        string
	Time        time.Duration
	RefreshCost float64
	Optimal     bool // solved exactly
}

// Solvers compares the exact DP, the FPTAS at several ε, and the greedy
// heuristics on the Figure 5 instance.
func Solvers(r float64, n int, seed int64) []SolverRow {
	quotes := workload.StockDay(n, seed)
	items := stockItems(quotes)
	var rows []SolverRow

	start := time.Now()
	dp, err := knapsack.ExactDP(items, r)
	if err == nil {
		rows = append(rows, SolverRow{"exact-dp", time.Since(start), refreshCostOfComplement(quotes, dp), true})
	}
	for _, eps := range []float64{0.3, 0.1, 0.02} {
		start = time.Now()
		sol := knapsack.Approx(items, r, eps)
		rows = append(rows, SolverRow{
			fmt.Sprintf("approx(ε=%.2g)", eps), time.Since(start),
			refreshCostOfComplement(quotes, sol), false,
		})
	}
	start = time.Now()
	gd := knapsack.GreedyDensity(items, r)
	rows = append(rows, SolverRow{"greedy-density", time.Since(start), refreshCostOfComplement(quotes, gd), false})
	start = time.Now()
	gu := knapsack.GreedyUniform(items, r)
	rows = append(rows, SolverRow{"greedy-uniform", time.Since(start), refreshCostOfComplement(quotes, gu), false})
	return rows
}

// ModeRow compares per-aggregate refresh cost across query modes
// (ablation E8): imprecise (R = ∞), TRAPP at a mid R, and precise (R = 0).
type ModeRow struct {
	Agg         aggregate.Func
	ImpreciseW  float64 // answer width with no refreshes
	TrappCost   float64 // refresh cost at the mid constraint
	TrappR      float64
	PreciseCost float64 // refresh cost at R = 0
}

// Modes runs MIN/MAX/SUM/AVG over the stock workload at three precision
// levels, quantifying the Figure 1 spectrum endpoints against TRAPP's
// middle ground.
func Modes(n int, seed int64) []ModeRow {
	fns := []aggregate.Func{aggregate.Min, aggregate.Max, aggregate.Sum, aggregate.Avg}
	var rows []ModeRow
	for _, fn := range fns {
		quotes := workload.StockDay(n, seed)
		tab := workload.StockTable(quotes)
		price := tab.Schema().MustLookup("price")
		initial := aggregate.Eval(tab, price, fn, nil)
		midR := initial.Width() / 4
		plan, err := refresh.Choose(tab, price, fn, nil, midR, refresh.Options{})
		if err != nil {
			continue
		}
		full, err := refresh.Choose(tab, price, fn, nil, 0, refresh.Options{})
		if err != nil {
			continue
		}
		rows = append(rows, ModeRow{
			Agg:         fn,
			ImpreciseW:  initial.Width(),
			TrappCost:   plan.Cost,
			TrappR:      midR,
			PreciseCost: full.Cost,
		})
	}
	return rows
}

// AvgBoundRow compares the tight (Appendix E) and loose (section 6.4.1)
// AVG bounds (ablation E7).
type AvgBoundRow struct {
	Selectivity float64 // fraction of tuples certainly satisfying the predicate
	TightWidth  float64
	LooseWidth  float64
}

// AvgBounds sweeps predicate selectivity over the stock workload and
// reports both AVG bound widths; the tight bound is never wider.
func AvgBounds(n int, seed int64) []AvgBoundRow {
	quotes := workload.StockDay(n, seed)
	tab := workload.StockTable(quotes)
	price := tab.Schema().MustLookup("price")
	var rows []AvgBoundRow
	for _, thresh := range []float64{40, 80, 120, 160} {
		p := predicate.NewCmp(predicate.Column(price, "price"), predicate.Gt, predicate.Const(thresh))
		cls := predicate.Classify(tab, p)
		tight := aggregate.Eval(tab, price, aggregate.Avg, p)
		loose := aggregate.EvalLooseAvg(tab, price, p)
		if tight.IsEmpty() {
			continue
		}
		rows = append(rows, AvgBoundRow{
			Selectivity: float64(len(cls.Plus)) / float64(tab.Len()),
			TightWidth:  tight.Width(),
			LooseWidth:  loose.Width(),
		})
	}
	return rows
}

// AdaptiveRow reports refresh counts for one width policy under a mixed
// update/query load (ablation E6, Appendix A).
type AdaptiveRow struct {
	Policy         string
	ValueRefreshes int64
	QueryRefreshes int64
	TotalMessages  int64
}

// Adaptive runs the full source/cache architecture under a mixed load of
// random-walk updates and constrained queries, comparing static width
// policies against the Appendix A adaptive controller. Fewer total
// refresh messages is better.
func Adaptive(objects, rounds int, seed int64) []AdaptiveRow {
	type policyCase struct {
		name string
		mk   func() boundfn.WidthPolicy
	}
	cases := []policyCase{
		{"static-narrow(0.5)", func() boundfn.WidthPolicy { return boundfn.StaticWidth(0.5) }},
		{"static-wide(8)", func() boundfn.WidthPolicy { return boundfn.StaticWidth(8) }},
		{"adaptive(1)", func() boundfn.WidthPolicy { return boundfn.NewAdaptiveWidth(1) }},
	}
	var rows []AdaptiveRow
	for _, pc := range cases {
		clock := netsim.NewClock()
		net := netsim.NewNetwork()
		src := source.New("s", clock, net, nil)
		schema := relation.NewSchema(
			relation.Column{Name: "id", Kind: relation.Exact},
			relation.Column{Name: "v", Kind: relation.Bounded},
		)
		c := cache.New("monitor", clock, schema)
		walks := make([]*walkState, objects)
		for i := 0; i < objects; i++ {
			w := newWalkState(float64(50+i), seed+int64(i))
			walks[i] = w
			if err := src.AddObject(int64(i+1), []float64{w.value}, 1+float64(i%10), pc.mk()); err != nil {
				panic(err)
			}
			if err := c.Subscribe(src, int64(i+1), []float64{float64(i + 1)}); err != nil {
				panic(err)
			}
		}
		for round := 0; round < rounds; round++ {
			clock.Advance(1)
			for i, w := range walks {
				w.step()
				if err := src.SetValue(int64(i+1), []float64{w.value}); err != nil {
					panic(err)
				}
			}
			// Every few rounds a monitoring query arrives with a moderate
			// precision constraint, triggering query-initiated refreshes.
			if round%5 == 4 {
				c.Sync()
				v := c.Schema().MustLookup("v")
				plan, err := refresh.ChooseStore(c.Store(), v, aggregate.Sum, nil, float64(objects)/2, refresh.Options{})
				if err != nil {
					panic(err)
				}
				for _, key := range plan.Keys {
					if _, ok := c.Master(key); !ok {
						panic("master fetch failed")
					}
				}
			}
		}
		st := net.Stats()
		rows = append(rows, AdaptiveRow{
			Policy:         pc.name,
			ValueRefreshes: st.Messages[netsim.ValueRefresh],
			QueryRefreshes: st.Messages[netsim.QueryRefresh],
			TotalMessages:  st.Messages[netsim.ValueRefresh] + st.Messages[netsim.QueryRefresh],
		})
	}
	return rows
}

// JoinRow compares the two join refresh planners (extension E9).
type JoinRow struct {
	Planner     string
	RefreshCost float64
	Refreshed   int
	FinalWidth  float64
}

// Joins runs an equi-join aggregation with a bounded selection under both
// planners on a random instance.
func Joins(n int, r float64, seed int64) []JoinRow {
	build := func() (*relation.Table, *relation.Table, workload.MapOracle, workload.MapOracle, join.Spec) {
		left, right, lm, rm := joinTables(n, seed)
		spec := join.Spec{
			Agg:     aggregate.Sum,
			AggSide: join.Right, AggColumn: 1,
			Pred: predicate.NewAnd(
				predicate.NewCmp(predicate.Column(0, "node"), predicate.Eq,
					predicate.Column(join.ShiftColumn(left.Schema(), 0), "from")),
				predicate.NewCmp(predicate.Column(1, "load"), predicate.Gt, predicate.Const(50)),
			),
			Within: r,
		}
		return left, right, lm, rm, spec
	}
	var rows []JoinRow
	{
		left, right, lm, rm, spec := build()
		res, err := join.Execute(left, right, spec, lm, rm)
		if err == nil {
			rows = append(rows, JoinRow{"batch-greedy", res.RefreshCost, res.Refreshed, res.Answer.Width()})
		}
	}
	{
		left, right, lm, rm, spec := build()
		res, err := join.ExecuteIterative(left, right, spec, lm, rm)
		if err == nil {
			rows = append(rows, JoinRow{"iterative", res.RefreshCost, res.Refreshed, res.Answer.Width()})
		}
	}
	return rows
}

// joinTables builds the random two-table join instance for E9.
func joinTables(n int, seed int64) (*relation.Table, *relation.Table, workload.MapOracle, workload.MapOracle) {
	ls := relation.NewSchema(
		relation.Column{Name: "node", Kind: relation.Exact},
		relation.Column{Name: "load", Kind: relation.Bounded},
	)
	rs := relation.NewSchema(
		relation.Column{Name: "from", Kind: relation.Exact},
		relation.Column{Name: "latency", Kind: relation.Bounded},
	)
	left, right := relation.NewTable(ls), relation.NewTable(rs)
	lm, rm := workload.MapOracle{}, workload.MapOracle{}
	w := newWalkState(0, seed)
	for i := 0; i < n; i++ {
		w.step()
		lo := 30 + 40*abs(math.Sin(float64(i)+w.value/10))
		width := 5 + 20*abs(math.Cos(float64(i)*2.1))
		left.MustInsert(relation.Tuple{
			Key:    int64(i + 1),
			Bounds: []interval.Interval{interval.Point(float64(i % (n/2 + 1))), interval.New(lo, lo+width)},
			Cost:   1 + float64(i%9),
		})
		lm[int64(i+1)] = []float64{lo + width*0.3}
		llo := 1 + 3*abs(math.Sin(float64(i)*1.7))
		lw := 1 + 4*abs(math.Cos(float64(i)*0.9))
		right.MustInsert(relation.Tuple{
			Key:    int64(1000 + i),
			Bounds: []interval.Interval{interval.Point(float64(i % (n/2 + 1))), interval.New(llo, llo+lw)},
			Cost:   1 + float64((i*3)%9),
		})
		rm[int64(1000+i)] = []float64{llo + lw*0.6}
	}
	return left, right, lm, rm
}

func abs(v float64) float64 { return math.Abs(v) }

// walkState is a tiny deterministic pseudo-random walk without math/rand,
// keeping experiment rows stable across Go versions.
type walkState struct {
	value float64
	state uint64
}

func newWalkState(start float64, seed int64) *walkState {
	return &walkState{value: start, state: uint64(seed)*2862933555777941757 + 3037000493}
}

func (w *walkState) step() {
	w.state = w.state*6364136223846793005 + 1442695040888963407
	if w.state>>63 == 0 {
		w.value += 0.8
	} else {
		w.value -= 0.8
	}
}

// WriteTable renders rows as an aligned text table for cmd/trappbench.
func WriteTable(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s", widths[i]+2, c)
		}
		fmt.Fprintln(w)
	}
	printRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		for j := 0; j < widths[i]; j++ {
			sep[i] += "-"
		}
	}
	printRow(sep)
	for _, r := range rows {
		printRow(r)
	}
}
