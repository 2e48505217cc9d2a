package query

// Tests for the context-first execution API: per-request options, the
// typed error taxonomy, cancellation at phase boundaries, the
// cost-budgeted dual, and cross-query batch execution.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"trapp/internal/aggregate"
	"trapp/internal/interval"
	"trapp/internal/refresh"
	"trapp/internal/relation"
	"trapp/internal/workload"
)

func TestTypedErrorsIsAs(t *testing.T) {
	cause := context.DeadlineExceeded
	var err error = fmt.Errorf("wrapped: %w",
		ErrPrecisionUnmet{Achieved: interval.New(1, 5), Spent: 3, Cause: cause})
	if !errors.Is(err, ErrPrecisionUnmet{}) {
		t.Error("errors.Is(ErrPrecisionUnmet{}) = false")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("ErrPrecisionUnmet does not unwrap to its context cause")
	}
	var unmet ErrPrecisionUnmet
	if !errors.As(err, &unmet) || unmet.Spent != 3 {
		t.Errorf("errors.As recovered %+v", unmet)
	}

	err = fmt.Errorf("wrapped: %w", ErrBudgetExhausted{Achieved: interval.New(0, 2), Spent: 4, Budget: 5})
	if !errors.Is(err, ErrBudgetExhausted{}) {
		t.Error("errors.Is(ErrBudgetExhausted{}) = false")
	}
	var exhausted ErrBudgetExhausted
	if !errors.As(err, &exhausted) || exhausted.Budget != 5 {
		t.Errorf("errors.As recovered %+v", exhausted)
	}
	if errors.Is(err, ErrPrecisionUnmet{}) {
		t.Error("budget error matched precision error")
	}
}

func TestExecuteCtxPreCanceled(t *testing.T) {
	p := newFig2Processor()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := NewQuery("links", aggregate.Sum, workload.ColLatency)
	q.Within = 0
	_, err := p.ExecuteCtx(ctx, q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestWithDeadlineAlreadyExpired(t *testing.T) {
	p := newFig2Processor()
	q := NewQuery("links", aggregate.Sum, workload.ColLatency)
	q.Within = 0
	_, err := p.ExecuteCtx(context.Background(), q, WithDeadline(time.Now().Add(-time.Second)))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// cancelingOracle cancels a context after serving n keys, simulating a
// deadline that expires mid-refresh on the plain per-key oracle path.
type cancelingOracle struct {
	inner  Oracle
	cancel context.CancelFunc
	after  int
	served int
}

func (o *cancelingOracle) Master(key int64) ([]float64, bool) {
	v, ok := o.inner.Master(key)
	o.served++
	if o.served == o.after {
		o.cancel()
	}
	return v, ok
}

func TestCancellationMidRefreshReturnsBestAchieved(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := NewProcessor(refresh.Options{Solver: refresh.SolverExactDP})
	oracle := &cancelingOracle{inner: workload.MapOracle(workload.Figure2Master()), cancel: cancel, after: 2}
	p.RegisterStore("links", workload.Figure2Store(), oracle)

	q := NewQuery("links", aggregate.Sum, workload.ColLatency)
	q.Within = 0 // precise: plan refreshes all six tuples
	res, err := p.ExecuteCtx(ctx, q)
	var unmet ErrPrecisionUnmet
	if !errors.As(err, &unmet) {
		t.Fatalf("err = %v, want ErrPrecisionUnmet", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("cutoff error does not unwrap to context.Canceled")
	}
	if res.Refreshed != 2 {
		t.Errorf("refreshed %d tuples before the cutoff, want 2", res.Refreshed)
	}
	if unmet.Spent != res.RefreshCost || unmet.Spent <= 0 {
		t.Errorf("Spent = %g, result cost %g", unmet.Spent, res.RefreshCost)
	}
	// The best-achieved answer reflects the partial refreshes: strictly
	// narrower than the initial bound, still containing the true SUM.
	if res.Answer.Width() >= res.Initial.Width() {
		t.Errorf("answer %v no narrower than initial %v", res.Answer, res.Initial)
	}
	truth := 0.0
	for _, vals := range workload.Figure2Master() {
		truth += vals[0] // latency is the first bounded column
	}
	if !res.Answer.Contains(truth) {
		t.Errorf("best-achieved answer %v does not contain true SUM %g", res.Answer, truth)
	}
	if unmet.Achieved != res.Answer {
		t.Errorf("Achieved %v != Answer %v", unmet.Achieved, res.Answer)
	}
}

func TestWithSolverOverride(t *testing.T) {
	// The override must reach CHOOSE_REFRESH: force the uniform-cost
	// greedy on a non-uniform instance and observe a (possibly) different
	// but still sound plan; mainly this asserts the plumbing compiles the
	// request against the per-request solver without mutating the
	// processor's own options.
	p := newFig2Processor()
	q := NewQuery("links", aggregate.Sum, workload.ColLatency)
	q.Within = 5
	res, err := p.ExecuteCtx(context.Background(), q, WithSolver(refresh.SolverGreedyDensity))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Error("constraint unmet with per-request solver")
	}
	if p.opts.Solver != refresh.SolverExactDP {
		t.Error("per-request solver mutated processor options")
	}
}

func TestWithCostBudgetNeverExceedsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	aggs := []aggregate.Func{aggregate.Sum, aggregate.Avg, aggregate.Min, aggregate.Max, aggregate.Count}
	for trial := 0; trial < 200; trial++ {
		p := newFig2Processor()
		q := NewQuery("links", aggs[rng.Intn(len(aggs))], workload.ColLatency)
		switch rng.Intn(3) {
		case 0: // unconstrained: the pure dual
		case 1:
			q.Within = 0
		default:
			q.Within = rng.Float64() * 10
		}
		if rng.Intn(2) == 0 {
			q.Where = highTraffic(p)
		}
		budget := rng.Float64() * 20
		res, err := p.ExecuteCtx(context.Background(), q, WithCostBudget(budget))
		if err != nil && !errors.Is(err, ErrBudgetExhausted{}) {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.RefreshCost > budget+1e-9 {
			t.Fatalf("trial %d (%v, budget %g): paid %g", trial, q, budget, res.RefreshCost)
		}
		if err != nil {
			var exhausted ErrBudgetExhausted
			if !errors.As(err, &exhausted) {
				t.Fatalf("trial %d: unexpected error type %v", trial, err)
			}
			if exhausted.Budget != budget || exhausted.Spent != res.RefreshCost {
				t.Fatalf("trial %d: exhausted detail %+v vs result %+v", trial, exhausted, res)
			}
			if res.Met {
				t.Fatalf("trial %d: budget-exhausted error on a met constraint", trial)
			}
		}
	}
}

func TestWithCostBudgetNarrowsUnconstrainedQuery(t *testing.T) {
	p := newFig2Processor()
	q := NewQuery("links", aggregate.Sum, workload.ColLatency) // R = +Inf
	free, err := p.ExecuteCtx(context.Background(), q, WithMode(ModeImprecise))
	if err != nil {
		t.Fatal(err)
	}
	res, err := newFig2Processor().ExecuteCtx(context.Background(), q, WithCostBudget(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.RefreshCost > 10 || res.Refreshed == 0 {
		t.Fatalf("budget spend: %d refreshes for %g", res.Refreshed, res.RefreshCost)
	}
	if res.Answer.Width() >= free.Answer.Width() {
		t.Errorf("budgeted answer %v no narrower than cache-only %v", res.Answer, free.Answer)
	}
	// An infinite budget reproduces precise mode.
	precise, err := newFig2Processor().ExecuteCtx(context.Background(), q, WithCostBudget(math.Inf(1)))
	if err != nil {
		t.Fatal(err)
	}
	if precise.Answer.Width() != 0 {
		t.Errorf("infinite budget left width %g", precise.Answer.Width())
	}
}

func TestWithCostBudgetPrefersClassicPlanWhenAffordable(t *testing.T) {
	// With a loose constraint and a generous budget, the request must
	// meet R at the classic plan's minimal cost, not burn the budget.
	ref := newFig2Processor()
	q := NewQuery("links", aggregate.Avg, workload.ColTraffic)
	q.Within = 10
	classic, err := ref.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := newFig2Processor().ExecuteCtx(context.Background(), q, WithCostBudget(1000))
	if err != nil {
		t.Fatal(err)
	}
	if res.RefreshCost != classic.RefreshCost || res.Answer != classic.Answer {
		t.Errorf("budgeted %+v != classic %+v", res, classic)
	}
}

func TestExecuteBatchMatchesStandaloneExecution(t *testing.T) {
	// Every batch answer must be bit-identical to executing the same
	// query alone on a fresh identical processor.
	qs := []Query{
		{Table: "links", Agg: aggregate.Sum, Column: workload.ColLatency, Within: 5},
		{Table: "links", Agg: aggregate.Min, Column: workload.ColBandwidth, Within: 10},
		{Table: "links", Agg: aggregate.Avg, Column: workload.ColTraffic, Within: 10},
		{Table: "links", Agg: aggregate.Sum, Column: workload.ColLatency, Within: 2},
		{Table: "links", Agg: aggregate.Max, Column: workload.ColLatency, Within: math.Inf(1)},
	}
	batchP := newFig2Processor()
	results, err := batchP.ExecuteBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(qs) {
		t.Fatalf("got %d results for %d queries", len(results), len(qs))
	}
	for i, q := range qs {
		solo, err := newFig2Processor().ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got := results[i]
		if got.Answer != solo.Answer || got.Initial != solo.Initial ||
			got.Refreshed != solo.Refreshed || got.RefreshCost != solo.RefreshCost || got.Met != solo.Met {
			t.Errorf("query %d (%v):\nbatch %+v\nsolo  %+v", i, q, got, solo)
		}
	}
}

func TestExecuteBatchDedupesSharedRefreshes(t *testing.T) {
	// Two identical precise queries: the union plan fetches each tuple
	// once, while each query still attributes its full plan cost.
	qs := []Query{
		{Table: "links", Agg: aggregate.Sum, Column: workload.ColLatency, Within: 0},
		{Table: "links", Agg: aggregate.Sum, Column: workload.ColLatency, Within: 0},
	}
	fetches := 0
	p := NewProcessor(refresh.Options{Solver: refresh.SolverExactDP})
	oracle := countingOracle{inner: workload.MapOracle(workload.Figure2Master()), n: &fetches}
	p.RegisterStore("links", workload.Figure2Store(), oracle)
	results, err := p.ExecuteBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if fetches != 6 {
		t.Errorf("union fetched %d times, want 6 (once per tuple)", fetches)
	}
	for i, r := range results {
		if r.Refreshed != 6 || !r.Met {
			t.Errorf("query %d attribution: %+v", i, r)
		}
	}
}

type countingOracle struct {
	inner Oracle
	n     *int
}

func (o countingOracle) Master(key int64) ([]float64, bool) {
	*o.n++
	return o.inner.Master(key)
}

func TestExecuteBatchRejectsGroupBy(t *testing.T) {
	p := newFig2Processor()
	qs := []Query{{Table: "links", Agg: aggregate.Sum, Column: workload.ColLatency,
		Within: 5, GroupBy: []string{"from"}}}
	if _, err := p.ExecuteBatch(context.Background(), qs); err == nil {
		t.Fatal("GROUP BY batch accepted")
	}
}

func TestExecuteBatchBudgetErrorsJoined(t *testing.T) {
	qs := []Query{
		{Table: "links", Agg: aggregate.Sum, Column: workload.ColLatency, Within: 0},
		{Table: "links", Agg: aggregate.Sum, Column: workload.ColLatency, Within: 1000},
	}
	p := newFig2Processor()
	results, err := p.ExecuteBatch(context.Background(), qs, WithCostBudget(0))
	if !errors.Is(err, ErrBudgetExhausted{}) {
		t.Fatalf("err = %v, want joined ErrBudgetExhausted", err)
	}
	if results[0].RefreshCost != 0 || results[1].RefreshCost != 0 {
		t.Errorf("zero budget paid: %+v", results)
	}
	if !results[1].Met {
		t.Error("loose query unmet")
	}
}

func TestChooseBudgetRespectedOnStores(t *testing.T) {
	// The plan's cost bound must hold over sharded stores too, and the
	// plan must be identical across layouts (canonical input order).
	schema := relation.NewSchema(
		relation.Column{Name: "grp", Kind: relation.Exact},
		relation.Column{Name: "v", Kind: relation.Bounded},
	)
	build := func(nshards int) *relation.Store {
		st := relation.NewStore(schema, nshards)
		rng := rand.New(rand.NewSource(9))
		for k := int64(1); k <= 64; k++ {
			w := rng.Float64() * 8
			mid := 50 + rng.Float64()*20
			st.MustInsert(relation.Tuple{
				Key:  k,
				Cost: float64(1 + rng.Intn(9)),
				Bounds: []interval.Interval{
					interval.Point(float64(k % 4)),
					interval.New(mid-w/2, mid+w/2),
				},
			})
		}
		return st
	}
	for _, fn := range []aggregate.Func{aggregate.Sum, aggregate.Min, aggregate.Max, aggregate.Avg} {
		for _, budget := range []float64{0, 3, 11.5, 40, math.Inf(1)} {
			flatIn, flatLen := aggregate.CollectStore(build(1), 1, nil, true, 1)
			shIn, shLen := aggregate.CollectStore(build(relation.DefaultShards), 1, nil, true, 1)
			p1, err1 := refresh.ChooseBudget(flatIn, fn, true, budget, flatLen, refresh.Options{})
			p2, err2 := refresh.ChooseBudget(shIn, fn, true, budget, shLen, refresh.Options{})
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if p1.Cost > budget {
				t.Fatalf("%v budget %g: plan cost %g", fn, budget, p1.Cost)
			}
			if len(p1.Keys) != len(p2.Keys) {
				t.Fatalf("%v budget %g: plan sizes differ: %v vs %v", fn, budget, p1.Keys, p2.Keys)
			}
			for i := range p1.Keys {
				if p1.Keys[i] != p2.Keys[i] {
					t.Fatalf("%v budget %g: plans differ across layouts:\n%v\n%v", fn, budget, p1.Keys, p2.Keys)
				}
			}
		}
	}
}

func TestExecuteConfigPlanCacheHitAllocatesNothing(t *testing.T) {
	// The cache-answered fast path of the shared skeleton: prologue,
	// step 1 on a plan-cache hit, and the met-from-cache gate.
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := newFig2Processor()
	q := Query{Table: "links", Agg: aggregate.Sum, Column: workload.ColLatency, Within: math.Inf(1)}
	ctx := context.Background()
	var cfg ExecConfig
	if _, err := p.ExecuteConfig(ctx, q, cfg); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := p.ExecuteConfig(ctx, q, cfg); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a plan-cache hit allocates %.0f times per request, want 0", n)
	}
}

func TestInvalidRelativePrecisionRejectedByEveryExecutor(t *testing.T) {
	p := newFig2Processor()
	ctx := context.Background()
	for _, rel := range []float64{-0.5, math.NaN()} {
		q := Query{Table: "links", Agg: aggregate.Sum, Column: workload.ColLatency, Within: 5, RelativeWithin: rel}
		if _, err := p.ExecuteCtx(ctx, q); err == nil {
			t.Errorf("ExecuteCtx accepted RelativeWithin %g", rel)
		}
		if _, err := p.ExecuteBatch(ctx, []Query{q}); err == nil {
			t.Errorf("ExecuteBatch accepted RelativeWithin %g", rel)
		}
		if _, err := p.ExecuteIterative(q); err == nil {
			t.Errorf("ExecuteIterative accepted RelativeWithin %g", rel)
		}
		if _, err := p.ExecuteRelative(q, rel); err == nil {
			t.Errorf("ExecuteRelative accepted p = %g", rel)
		}
	}
}

func TestExecuteBatchRecordsEngineMetrics(t *testing.T) {
	// A batched query records the request-path histograms and the
	// precision–cost telemetry exactly as it would alone; the table's one
	// shared refresh round records one refresh observation.
	qs := []Query{
		{Table: "links", Agg: aggregate.Sum, Column: workload.ColLatency, Within: 0},
		{Table: "links", Agg: aggregate.Max, Column: workload.ColLatency, Within: 1},
	}
	ctx := context.Background()
	want := map[string]uint64{}
	for _, q := range qs {
		solo := newFig2Processor()
		res, err := solo.ExecuteCtx(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Refreshed == 0 {
			t.Fatalf("%v refreshes nothing alone; the test needs refresh-paying queries", q)
		}
		for name, h := range solo.Metrics().Snapshot() {
			want[name] += h.Count
		}
	}
	want["refresh_ns"] = 1
	p := newFig2Processor()
	if _, err := p.ExecuteBatch(ctx, qs); err != nil {
		t.Fatal(err)
	}
	got := p.Metrics().Snapshot()
	for _, name := range []string{"request_ns", "choose_ns", "refresh_ns", "fold_ns", "width_ratio_permille", "cost_per_width_milli"} {
		if got[name].Count != want[name] {
			t.Errorf("%s: batch recorded %d observations, want %d", name, got[name].Count, want[name])
		}
	}
}

func TestCostBudgetedSumStaysUnderTheMemoryCeiling(t *testing.T) {
	// The cost-budgeted dual hands the knapsack fractional profits (bound
	// widths), so the default Auto solver runs the FPTAS. At the default
	// ε its table over 2 000 tuples would run to tens of GB; held to the
	// memory ceiling, one request allocates well under 100 MB.
	schema := relation.NewSchema(relation.Column{Name: "v", Kind: relation.Bounded})
	st := relation.NewStore(schema, 1)
	master := workload.MapOracle{}
	rng := rand.New(rand.NewSource(3))
	var totalCost float64
	for k := int64(1); k <= 2000; k++ {
		mid, w := 100*rng.Float64(), 1+9*rng.Float64()
		cost := float64(1 + rng.Intn(10))
		st.MustInsert(relation.Tuple{Key: k, Cost: cost, Bounds: []interval.Interval{interval.New(mid-w/2, mid+w/2)}})
		master[k] = []float64{mid}
		totalCost += cost
	}
	p := NewProcessor(refresh.Options{})
	p.RegisterStore("t", st, master)
	budget := totalCost / 2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := p.ExecuteCtx(context.Background(), NewQuery("t", aggregate.Sum, "v"), WithCostBudget(budget))
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refreshed == 0 || res.RefreshCost > budget {
		t.Errorf("budget %g bought %d refreshes at cost %g", budget, res.Refreshed, res.RefreshCost)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc > 100<<20 {
		t.Errorf("a budgeted SUM over 2 000 tuples allocated %d MB, want < 100", alloc>>20)
	}
	t.Logf("allocated %d MB in %v", alloc>>20, elapsed)
}
