package aggregate

import (
	"math"
	"testing"

	"trapp/internal/interval"
	"trapp/internal/predicate"
	"trapp/internal/relation"
	"trapp/internal/workload"
)

// pathTable returns the Figure 2 relation restricted to the path
// N1→N2→N4→N5→N6, i.e. tuples {1, 2, 5, 6}, used by queries Q1 and Q2.
func pathTable(t *testing.T) *relation.Store {
	t.Helper()
	tab := workload.Figure2Store()
	tab.Delete(3)
	tab.Delete(4)
	return tab
}

func col(t *relation.Store, name string) int { return t.Schema().MustLookup(name) }

func TestQ1BoundedMinBandwidth(t *testing.T) {
	// Q1: bounded MIN of bandwidth over tuples {1,2,5,6} = [40, 55].
	tab := pathTable(t)
	got := eval(tab, col(tab, workload.ColBandwidth), Min, nil)
	if !got.Equal(interval.New(40, 55)) {
		t.Errorf("Q1 = %v, want [40, 55]", got)
	}
}

func TestQ2BoundedSumLatency(t *testing.T) {
	// Q2: bounded SUM of latency over tuples {1,2,5,6} = [19, 28].
	tab := pathTable(t)
	got := eval(tab, col(tab, workload.ColLatency), Sum, nil)
	if !got.Equal(interval.New(19, 28)) {
		t.Errorf("Q2 = %v, want [19, 28]", got)
	}
}

func TestQ3CountAndSumTraffic(t *testing.T) {
	// Q3 setup: COUNT = 6 exactly; full-table traffic SUM bound.
	tab := workload.Figure2Store()
	cnt := eval(tab, col(tab, workload.ColTraffic), Count, nil)
	if !cnt.Equal(interval.Point(6)) {
		t.Errorf("COUNT = %v, want [6]", cnt)
	}
	sum := eval(tab, col(tab, workload.ColTraffic), Sum, nil)
	// Sums of Figure 2 traffic bounds: 95+110+95+120+90+90=600,
	// 105+120+110+145+110+105=695.
	if !sum.Equal(interval.New(600, 695)) {
		t.Errorf("traffic SUM = %v, want [600, 695]", sum)
	}
}

func TestAvgNoPredicateIsSumOverCount(t *testing.T) {
	tab := workload.Figure2Store()
	avg := eval(tab, col(tab, workload.ColTraffic), Avg, nil)
	want := interval.New(100, 695.0/6)
	if !avg.ApproxEqual(want, 1e-9) {
		t.Errorf("AVG = %v, want %v", avg, want)
	}
}

func TestMaxNoPredicate(t *testing.T) {
	tab := pathTable(t)
	got := eval(tab, col(tab, workload.ColLatency), Max, nil)
	// Latency bounds of {1,2,5,6}: [2,4],[5,7],[8,11],[4,6] → [8, 11].
	if !got.Equal(interval.New(8, 11)) {
		t.Errorf("MAX = %v, want [8, 11]", got)
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

func TestQ4MinTrafficFastLinks(t *testing.T) {
	// Q4: MIN traffic WHERE bandwidth > 50 AND latency < 10 = [90, 105].
	tab := workload.Figure2Store()
	got := eval(tab, col(tab, workload.ColTraffic), Min, fastLinks(tab))
	if !got.Equal(interval.New(90, 105)) {
		t.Errorf("Q4 = %v, want [90, 105]", got)
	}
}

func TestQ5CountHighLatency(t *testing.T) {
	// Q5: COUNT WHERE latency > 10 = [1, 3].
	tab := workload.Figure2Store()
	got := eval(tab, col(tab, workload.ColLatency), Count, highLatency(tab))
	if !got.Equal(interval.New(1, 3)) {
		t.Errorf("Q5 = %v, want [1, 3]", got)
	}
}

func TestQ6AvgLatencyHighTrafficTight(t *testing.T) {
	// Q6: AVG latency WHERE traffic > 100; Appendix E computes the tight
	// bound [5, 11.33...].
	tab := workload.Figure2Store()
	got := eval(tab, col(tab, workload.ColLatency), Avg, highTraffic(tab))
	want := interval.New(5, 34.0/3)
	if !got.ApproxEqual(want, 1e-9) {
		t.Errorf("Q6 tight = %v, want %v", got, want)
	}
}

func TestQ6AvgLatencyHighTrafficLoose(t *testing.T) {
	// Section 6.4.1: the linear-time loose bound for Q6 is [2.33, 27.5],
	// from SUM=[14,55] and COUNT=[2,6].
	tab := workload.Figure2Store()
	got := evalLooseAvg(tab, col(tab, workload.ColLatency), highTraffic(tab))
	want := interval.New(14.0/6, 27.5)
	if !got.ApproxEqual(want, 1e-9) {
		t.Errorf("Q6 loose = %v, want %v", got, want)
	}
	// The tight bound must be contained in the loose bound.
	tight := eval(tab, col(tab, workload.ColLatency), Avg, highTraffic(tab))
	if !got.ContainsInterval(tight) {
		t.Errorf("loose %v does not contain tight %v", got, tight)
	}
}

func TestSumWithPredicate(t *testing.T) {
	// SUM latency WHERE traffic > 100: T+ = {2,4} contribute [5,7]+[9,11];
	// T? = {1,3,5,6} contribute only positive H: 4+16+11+6.
	tab := workload.Figure2Store()
	got := eval(tab, col(tab, workload.ColLatency), Sum, highTraffic(tab))
	want := interval.New(14, 55)
	if !got.Equal(want) {
		t.Errorf("SUM pred = %v, want %v", got, want)
	}
}

func TestSumPredicateNegativeValues(t *testing.T) {
	// T? tuples with negative lower endpoints drag the SUM lower bound
	// down (section 6.2).
	s := relation.NewSchema(
		relation.Column{Name: "v", Kind: relation.Bounded},
		relation.Column{Name: "w", Kind: relation.Bounded},
	)
	tab := relation.NewStore(s, 1)
	tab.MustInsert(relation.Tuple{Key: 1, Bounds: []interval.Interval{interval.New(-5, -2), interval.New(0, 10)}, Cost: 1})
	tab.MustInsert(relation.Tuple{Key: 2, Bounds: []interval.Interval{interval.New(3, 4), interval.New(6, 10)}, Cost: 1})
	p := predicate.NewCmp(predicate.Column(1, "w"), predicate.Gt, predicate.Const(5))
	// Tuple 1: T? (w=[0,10] vs >5), v=[-5,-2]: contributes -5 to lower, 0 to upper.
	// Tuple 2: T+ (w=[6,10]), contributes [3,4].
	got := eval(tab, 0, Sum, p)
	if !got.Equal(interval.New(-2, 4)) {
		t.Errorf("SUM = %v, want [-2, 4]", got)
	}
}

func TestMinPredicateEmptyPlus(t *testing.T) {
	// With no T+ tuples the MIN has no finite upper bound.
	tab := workload.Figure2Store()
	s := tab.Schema()
	// traffic > 130: only tuple 4 ([120,145]) is T?, others T−.
	p := predicate.NewCmp(predicate.Column(s.MustLookup(workload.ColTraffic), "traffic"), predicate.Gt, predicate.Const(130))
	got := eval(tab, col(tab, workload.ColTraffic), Min, p)
	if !math.IsInf(got.Hi, 1) {
		t.Errorf("MIN upper = %v, want +Inf", got.Hi)
	}
	// Lower bound comes from tuple 4's shrunk bound [130, 145].
	if got.Lo != 130 {
		t.Errorf("MIN lower = %v, want 130 (shrunk)", got.Lo)
	}
}

func TestMaxPredicateSymmetric(t *testing.T) {
	tab := workload.Figure2Store()
	got := eval(tab, col(tab, workload.ColLatency), Max, highTraffic(tab))
	// T+ = {2,4}: max L = max(5,9) = 9. T+∪T? max H = 16 (tuple 3).
	if !got.Equal(interval.New(9, 16)) {
		t.Errorf("MAX pred = %v, want [9, 16]", got)
	}
}

func TestEmptySelectionConventions(t *testing.T) {
	tab := workload.Figure2Store()
	s := tab.Schema()
	// latency > 1000: everything T−.
	p := predicate.NewCmp(predicate.Column(s.MustLookup(workload.ColLatency), "latency"), predicate.Gt, predicate.Const(1000))
	lat := col(tab, workload.ColLatency)
	if got := eval(tab, lat, Min, p); !got.IsEmpty() {
		t.Errorf("MIN empty = %v", got)
	}
	if got := eval(tab, lat, Max, p); !got.IsEmpty() {
		t.Errorf("MAX empty = %v", got)
	}
	if got := eval(tab, lat, Avg, p); !got.IsEmpty() {
		t.Errorf("AVG empty = %v", got)
	}
	if got := eval(tab, lat, Sum, p); !got.Equal(interval.Point(0)) {
		t.Errorf("SUM empty = %v, want [0]", got)
	}
	if got := eval(tab, lat, Count, p); !got.Equal(interval.Point(0)) {
		t.Errorf("COUNT empty = %v, want [0]", got)
	}
}

func TestCollectShrinking(t *testing.T) {
	// Aggregating latency under latency > 10 shrinks T? bounds.
	tab := workload.Figure2Store()
	lat := col(tab, workload.ColLatency)
	inputs := collect(tab, lat, highLatency(tab), true)
	// T+ = {3}, T? = {4 ([9,11]→[10,11]), 5 ([8,11]→[10,11])}.
	if len(inputs) != 3 {
		t.Fatalf("collected %d inputs", len(inputs))
	}
	for _, in := range inputs {
		if in.Key == 4 || in.Key == 5 {
			if in.Bound.Lo != 10 {
				t.Errorf("tuple %d bound = %v, want lo 10", in.Key, in.Bound)
			}
		}
	}
	// Without shrinking, original bounds persist.
	raw := collect(tab, lat, highLatency(tab), false)
	for _, in := range raw {
		if in.Key == 4 && in.Bound.Lo != 9 {
			t.Errorf("unshrunk tuple 4 = %v", in.Bound)
		}
	}
}

func TestExactGroundTruth(t *testing.T) {
	tab := workload.Figure2Store()
	master := workload.Figure2Master()
	lat := col(tab, workload.ColLatency)
	tr := col(tab, workload.ColTraffic)
	bw := col(tab, workload.ColBandwidth)

	if v, ok := Exact(tab, bw, Min, nil, master); !ok || v != 45 {
		t.Errorf("exact MIN bandwidth = %g, %v", v, ok)
	}
	if v, ok := Exact(tab, lat, Sum, nil, master); !ok || v != 48 {
		t.Errorf("exact SUM latency = %g (want 3+7+13+9+11+5=48)", v)
	}
	if v, ok := Exact(tab, lat, Count, highLatency(tab), master); !ok || v != 2 {
		t.Errorf("exact COUNT latency>10 = %g, want 2", v)
	}
	// AVG latency where traffic > 100: true traffic {116,105,127,103} →
	// tuples {2,3,4,6}, latencies {7,13,9,5}, avg 8.5.
	if v, ok := Exact(tab, lat, Avg, highTraffic(tab), master); !ok || v != 8.5 {
		t.Errorf("exact AVG = %g, want 8.5", v)
	}
	if v, ok := Exact(tab, tr, Max, nil, master); !ok || v != 127 {
		t.Errorf("exact MAX traffic = %g, want 127", v)
	}
	// Undefined aggregate.
	s := tab.Schema()
	never := predicate.NewCmp(predicate.Column(s.MustLookup(workload.ColLatency), "latency"), predicate.Gt, predicate.Const(1e6))
	if _, ok := Exact(tab, lat, Min, never, master); ok {
		t.Error("exact MIN over empty selection reported ok")
	}
}

func TestBoundedAnswersContainExact(t *testing.T) {
	// Every bounded answer over Figure 2 must contain the corresponding
	// exact answer — the paper's core guarantee.
	tab := workload.Figure2Store()
	master := workload.Figure2Master()
	cols := []int{col(tab, workload.ColLatency), col(tab, workload.ColBandwidth), col(tab, workload.ColTraffic)}
	preds := []predicate.Expr{nil, fastLinks(tab), highLatency(tab), highTraffic(tab)}
	fns := []Func{Min, Max, Sum, Count, Avg}
	for _, c := range cols {
		for _, p := range preds {
			for _, fn := range fns {
				bounded := eval(tab, c, fn, p)
				exact, ok := Exact(tab, c, fn, p, master)
				if !ok {
					continue
				}
				if !bounded.Expand(1e-9).Contains(exact) {
					t.Errorf("%v col %d pred %v: bounded %v misses exact %g",
						fn, c, p, bounded, exact)
				}
			}
		}
	}
}

func TestFuncStringParse(t *testing.T) {
	for _, fn := range []Func{Min, Max, Sum, Count, Avg} {
		parsed, err := ParseFunc(fn.String())
		if err != nil || parsed != fn {
			t.Errorf("round trip %v failed: %v, %v", fn, parsed, err)
		}
	}
	if _, err := ParseFunc("MEDIAN"); err == nil {
		t.Error("MEDIAN accepted")
	}
}

// TestCollectStoreMatchesFlat builds a large relation twice — once as a
// one-shard store filled in key order, once as sharded stores of several
// shard counts filled in a scrambled order — and checks the shard-parallel
// scan returns exactly the one-shard serial scan's canonical inputs and
// bit-identical answers for every aggregate, with and without a predicate.
func TestCollectStoreMatchesFlat(t *testing.T) {
	schema := relation.NewSchema(
		relation.Column{Name: "v", Kind: relation.Bounded},
		relation.Column{Name: "w", Kind: relation.Bounded},
	)
	tab := relation.NewStore(schema, 1)
	const n = 5000
	mk := func(i int) relation.Tuple {
		lo := float64(i%977) - 300
		return relation.Tuple{
			Key:    int64(i),
			Cost:   float64(i%7 + 1),
			Bounds: []interval.Interval{interval.New(lo, lo+float64(i%13)), interval.Point(float64(i % 10))},
		}
	}
	for i := 0; i < n; i++ {
		tab.MustInsert(mk(i))
	}
	col := schema.MustLookup("v")
	pred := predicate.NewCmp(predicate.Column(col, "v"), predicate.Gt, predicate.Const(25))
	for _, nshards := range []int{1, 4, 16} {
		st := relation.NewStore(schema, nshards)
		// Scrambled insertion order: canonical key order must not depend
		// on physical layout.
		for i := 0; i < n; i++ {
			st.MustInsert(mk((i*2654435761 + 17) % n))
		}
		for _, p := range []predicate.Expr{nil, pred} {
			serial := collect(tab, col, p, true)
			for _, workers := range []int{0, 1, 3} {
				par, tableLen := CollectStore(st, col, p, true, workers)
				if tableLen != n {
					t.Fatalf("shards=%d workers=%d: tableLen %d, want %d", nshards, workers, tableLen, n)
				}
				if len(par) != len(serial) {
					t.Fatalf("shards=%d workers=%d: %d inputs, flat %d", nshards, workers, len(par), len(serial))
				}
				for i := range par {
					if par[i] != serial[i] {
						t.Fatalf("shards=%d workers=%d: input %d = %+v, flat %+v", nshards, workers, i, par[i], serial[i])
					}
				}
			}
			for _, fn := range []Func{Min, Max, Sum, Count, Avg} {
				want := eval(tab, col, fn, p)
				inputs, tableLen := CollectStore(st, col, p, true, 4)
				if got := EvalInputs(inputs, fn, predicate.IsTrivial(p), tableLen); got != want {
					t.Errorf("shards=%d %v store = %v, flat = %v", nshards, fn, got, want)
				}
				// The streaming fold must replay the same arithmetic in
				// the same canonical order — bit-identical, repeatedly
				// (no state may leak between calls).
				for rep := 0; rep < 2; rep++ {
					got, gotLen := EvalStoreStream(st, col, fn, p)
					if got != want || gotLen != n {
						t.Errorf("shards=%d %v stream = %v (len %d), flat = %v", nshards, fn, got, gotLen, want)
					}
				}
			}
		}
	}
}
