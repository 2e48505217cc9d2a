package refresh

import (
	"math"
	"slices"
	"testing"

	"trapp/internal/aggregate"
	"trapp/internal/interval"
	"trapp/internal/predicate"
	"trapp/internal/relation"
	"trapp/internal/workload"
)

// pathTable is Figure 2 restricted to the path tuples {1, 2, 5, 6}.
func pathTable(t *testing.T) *relation.Store {
	t.Helper()
	tab := workload.Figure2Store()
	tab.Delete(3)
	tab.Delete(4)
	return tab
}

func col(t *relation.Store, name string) int { return t.Schema().MustLookup(name) }

// applyPlan refreshes the planned tuples from the Figure 2 master values.
func applyPlan(t *testing.T, tab *relation.Store, plan Plan) {
	t.Helper()
	master := workload.Figure2Master()
	for _, key := range plan.Keys {
		if _, err := tab.Refresh(key, master[key]); err != nil {
			t.Fatal(err)
		}
	}
}

// eval is the bounded answer over a store.
func eval(st *relation.Store, col int, fn aggregate.Func, p predicate.Expr) interval.Interval {
	ans, _ := aggregate.EvalStoreStream(st, col, fn, p)
	return ans
}

// clone copies the store's tuples into a new store with nshards shards.
func clone(st *relation.Store, nshards int) *relation.Store {
	c := relation.NewStore(st.Schema(), nshards)
	for _, key := range st.SortedKeys() {
		tu, _ := st.Get(key)
		c.MustInsert(tu)
	}
	return c
}

func keysOf(plan Plan) map[int64]bool {
	m := make(map[int64]bool, len(plan.Keys))
	for _, k := range plan.Keys {
		m[k] = true
	}
	return m
}

func TestQ1MinRefreshSet(t *testing.T) {
	// Section 5.1: Q1 (MIN bandwidth over path) with R=10 refreshes only
	// tuple 5; after refresh the answer is [45, 50].
	tab := pathTable(t)
	bw := col(tab, workload.ColBandwidth)
	plan, err := ChooseStore(tab, bw, aggregate.Min, nil, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 1 || plan.Keys[0] != 5 {
		t.Fatalf("plan keys = %v, want [5]", plan.Keys)
	}
	if plan.Cost != 4 {
		t.Errorf("plan cost = %g, want 4", plan.Cost)
	}
	applyPlan(t, tab, plan)
	got := eval(tab, bw, aggregate.Min, nil)
	if !got.Equal(interval.New(45, 50)) {
		t.Errorf("post-refresh MIN = %v, want [45, 50]", got)
	}
}

func TestQ2SumRefreshSet(t *testing.T) {
	// Section 5.2: Q2 (SUM latency over path) with R=5 and the optimal
	// knapsack keeps tuples {2, 5}, refreshing TR = {1, 6}; post-refresh
	// answer is [21, 26].
	tab := pathTable(t)
	lat := col(tab, workload.ColLatency)
	plan, err := ChooseStore(tab, lat, aggregate.Sum, nil, 5, Options{Solver: SolverExactDP})
	if err != nil {
		t.Fatal(err)
	}
	ks := keysOf(plan)
	if plan.Len() != 2 || !ks[1] || !ks[6] {
		t.Fatalf("plan keys = %v, want {1, 6}", plan.Keys)
	}
	applyPlan(t, tab, plan)
	got := eval(tab, lat, aggregate.Sum, nil)
	if !got.Equal(interval.New(21, 26)) {
		t.Errorf("post-refresh SUM = %v, want [21, 26]", got)
	}
}

func TestQ3AvgNoPredicate(t *testing.T) {
	// Section 5.4: Q3 (AVG traffic, all six links) with R=10 computes SUM
	// with capacity R·COUNT=60, refreshing tuples {5, 6}; the bounded SUM
	// becomes [618, 678] and AVG [103, 113].
	tab := workload.Figure2Store()
	tr := col(tab, workload.ColTraffic)
	plan, err := ChooseStore(tab, tr, aggregate.Avg, nil, 10, Options{Solver: SolverExactDP})
	if err != nil {
		t.Fatal(err)
	}
	ks := keysOf(plan)
	if plan.Len() != 2 || !ks[5] || !ks[6] {
		t.Fatalf("plan keys = %v, want {5, 6}", plan.Keys)
	}
	applyPlan(t, tab, plan)
	if got := eval(tab, tr, aggregate.Sum, nil); !got.Equal(interval.New(618, 678)) {
		t.Errorf("post-refresh SUM = %v, want [618, 678]", got)
	}
	if got := eval(tab, tr, aggregate.Avg, nil); !got.Equal(interval.New(103, 113)) {
		t.Errorf("post-refresh AVG = %v, want [103, 113]", got)
	}
}

func fastLinks(t *relation.Store) predicate.Expr {
	s := t.Schema()
	return predicate.NewAnd(
		predicate.NewCmp(predicate.Column(s.MustLookup(workload.ColBandwidth), "bandwidth"), predicate.Gt, predicate.Const(50)),
		predicate.NewCmp(predicate.Column(s.MustLookup(workload.ColLatency), "latency"), predicate.Lt, predicate.Const(10)),
	)
}

func highLatency(t *relation.Store) predicate.Expr {
	s := t.Schema()
	return predicate.NewCmp(predicate.Column(s.MustLookup(workload.ColLatency), "latency"), predicate.Gt, predicate.Const(10))
}

func highTraffic(t *relation.Store) predicate.Expr {
	s := t.Schema()
	return predicate.NewCmp(predicate.Column(s.MustLookup(workload.ColTraffic), "traffic"), predicate.Gt, predicate.Const(100))
}

func TestQ4MinWithPredicate(t *testing.T) {
	// Section 6.1: Q4 (MIN traffic over fast links) with R=10 refreshes
	// TR = {5, 6}; both turn out to fail the predicate and the bounded MIN
	// becomes [95, 105].
	tab := workload.Figure2Store()
	tr := col(tab, workload.ColTraffic)
	plan, err := ChooseStore(tab, tr, aggregate.Min, fastLinks(tab), 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ks := keysOf(plan)
	if plan.Len() != 2 || !ks[5] || !ks[6] {
		t.Fatalf("plan keys = %v, want {5, 6}", plan.Keys)
	}
	applyPlan(t, tab, plan)
	got := eval(tab, tr, aggregate.Min, fastLinks(tab))
	if !got.Equal(interval.New(95, 105)) {
		t.Errorf("post-refresh MIN = %v, want [95, 105]", got)
	}
}

func TestQ5CountWithPredicate(t *testing.T) {
	// Section 6.3: Q5 (COUNT latency > 10) with R=1 refreshes the single
	// cheapest T? tuple {5}; it lands in T+ and the COUNT becomes [2, 3].
	tab := workload.Figure2Store()
	lat := col(tab, workload.ColLatency)
	plan, err := ChooseStore(tab, lat, aggregate.Count, highLatency(tab), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 1 || plan.Keys[0] != 5 {
		t.Fatalf("plan keys = %v, want [5]", plan.Keys)
	}
	applyPlan(t, tab, plan)
	got := eval(tab, lat, aggregate.Count, highLatency(tab))
	if !got.Equal(interval.New(2, 3)) {
		t.Errorf("post-refresh COUNT = %v, want [2, 3]", got)
	}
}

func TestQ6AvgWithPredicate(t *testing.T) {
	// Appendix F: Q6 (AVG latency where traffic > 100) with R=2 uses
	// knapsack capacity M=4; the knapsack keeps {2, 4} so TR = {1, 3, 5, 6},
	// and the post-refresh AVG is [8, 9].
	tab := workload.Figure2Store()
	lat := col(tab, workload.ColLatency)
	plan, err := ChooseStore(tab, lat, aggregate.Avg, highTraffic(tab), 2, Options{Solver: SolverExactDP})
	if err != nil {
		t.Fatal(err)
	}
	ks := keysOf(plan)
	if plan.Len() != 4 || !ks[1] || !ks[3] || !ks[5] || !ks[6] {
		t.Fatalf("plan keys = %v, want {1, 3, 5, 6}", plan.Keys)
	}
	applyPlan(t, tab, plan)
	got := eval(tab, lat, aggregate.Avg, highTraffic(tab))
	if !got.Equal(interval.New(8, 9)) {
		t.Errorf("post-refresh AVG = %v, want [8, 9]", got)
	}
}

func TestMaxSymmetric(t *testing.T) {
	// MAX latency over the full table with R=3: threshold is
	// max over T+ of L (=12) + 3 = 15; only tuple 3 (H=16) exceeds it.
	tab := workload.Figure2Store()
	lat := col(tab, workload.ColLatency)
	plan, err := ChooseStore(tab, lat, aggregate.Max, nil, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 1 || plan.Keys[0] != 3 {
		t.Fatalf("plan keys = %v, want [3]", plan.Keys)
	}
	applyPlan(t, tab, plan)
	got := eval(tab, lat, aggregate.Max, nil)
	if got.Width() > 3 {
		t.Errorf("post-refresh MAX width %g > 3 (%v)", got.Width(), got)
	}
}

func TestCountNoPredicateNeedsNoRefresh(t *testing.T) {
	tab := workload.Figure2Store()
	plan, err := ChooseStore(tab, col(tab, workload.ColLatency), aggregate.Count, nil, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 0 {
		t.Errorf("COUNT plan = %v, want empty", plan.Keys)
	}
}

// TestCountTiesGoToLowerIndex: COUNT refreshes the cheapest T? tuples,
// and among equal costs the ones earlier in input order.
func TestCountTiesGoToLowerIndex(t *testing.T) {
	var inputs []aggregate.Input
	var want []int
	for i := 0; i < 60; i++ {
		cost := float64(1 + i%3)
		inputs = append(inputs, aggregate.Input{Index: i, Key: int64(i), Cost: cost, Class: predicate.Maybe})
		if cost == 1 || (cost == 2 && i < 30) {
			want = append(want, i)
		}
	}
	// |T?| = 60 and R = 30 leave 30 to refresh: the 20 of cost 1 and the
	// first 10 of cost 2.
	plan, err := ChooseFromInputs(inputs, aggregate.Count, false, 30, len(inputs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(plan.Indexes, want) {
		t.Fatalf("plan = %v, want %v", plan.Indexes, want)
	}
}

func TestInfiniteRMeansNoRefresh(t *testing.T) {
	tab := workload.Figure2Store()
	lat := col(tab, workload.ColLatency)
	for _, fn := range []aggregate.Func{aggregate.Min, aggregate.Max, aggregate.Sum, aggregate.Count, aggregate.Avg} {
		plan, err := ChooseStore(tab, lat, fn, highTraffic(tab), math.Inf(1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Len() != 0 {
			t.Errorf("%v: plan = %v, want empty", fn, plan.Keys)
		}
	}
}

func TestZeroRForcesExactAnswer(t *testing.T) {
	// R=0 demands an exact answer for every aggregate.
	tab0 := workload.Figure2Store()
	lat := col(tab0, workload.ColLatency)
	for _, fn := range []aggregate.Func{aggregate.Min, aggregate.Max, aggregate.Sum, aggregate.Avg} {
		tab := workload.Figure2Store()
		plan, err := ChooseStore(tab, lat, fn, nil, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		applyPlan(t, tab, plan)
		got := eval(tab, lat, fn, nil)
		if got.Width() > 1e-9 {
			t.Errorf("%v with R=0: width %g (%v)", fn, got.Width(), got)
		}
	}
}

func TestNegativeRRejected(t *testing.T) {
	tab := workload.Figure2Store()
	if _, err := ChooseStore(tab, 2, aggregate.Sum, nil, -1, Options{}); err == nil {
		t.Error("negative R accepted")
	}
	if _, err := ChooseStore(tab, 2, aggregate.Sum, nil, math.NaN(), Options{}); err == nil {
		t.Error("NaN R accepted")
	}
}

func TestSolverOptions(t *testing.T) {
	tab := pathTable(t)
	lat := col(tab, workload.ColLatency)
	for _, s := range []Solver{Auto, SolverExactDP, SolverApprox, SolverGreedyUniform, SolverGreedyDensity} {
		tab2 := pathTable(t)
		plan, err := ChooseStore(tab2, lat, aggregate.Sum, nil, 5, Options{Solver: s})
		if err != nil {
			t.Fatalf("solver %v: %v", s, err)
		}
		applyPlan(t, tab2, plan)
		got := eval(tab2, lat, aggregate.Sum, nil)
		if got.Width() > 5+1e-9 {
			t.Errorf("solver %v: width %g > 5", s, got.Width())
		}
	}
	_ = lat
	_ = tab
}

func TestSolverString(t *testing.T) {
	want := map[Solver]string{
		Auto: "auto", SolverExactDP: "exact-dp", SolverApprox: "approx",
		SolverGreedyUniform: "greedy-uniform", SolverGreedyDensity: "greedy-density",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("Solver %d string %q", s, s.String())
		}
	}
}

func TestAvgPredicateEmptyPlusFallsBack(t *testing.T) {
	// With no T+ tuples, AVG refresh falls back to refreshing everything
	// that might contribute, yielding an exact (or exactly undefined)
	// answer.
	tab := workload.Figure2Store()
	s := tab.Schema()
	// traffic > 130: only tuple 4 is T?.
	p := predicate.NewCmp(predicate.Column(s.MustLookup(workload.ColTraffic), "traffic"), predicate.Gt, predicate.Const(130))
	lat := col(tab, workload.ColLatency)
	plan, err := ChooseStore(tab, lat, aggregate.Avg, p, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 1 || plan.Keys[0] != 4 {
		t.Fatalf("plan = %v, want [4]", plan.Keys)
	}
	applyPlan(t, tab, plan)
	got := eval(tab, lat, aggregate.Avg, p)
	// Tuple 4's true traffic is 127, not > 130, so the selection is empty
	// and the AVG is exactly undefined.
	if !got.IsEmpty() {
		t.Errorf("post-refresh AVG = %v, want empty", got)
	}
}
