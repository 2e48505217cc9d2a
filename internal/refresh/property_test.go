package refresh

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"trapp/internal/aggregate"
	"trapp/internal/interval"
	"trapp/internal/predicate"
	"trapp/internal/relation"
)

// randTable builds a random one-shard store with two bounded columns:
// column 0 is aggregated, column 1 is the predicate column.
func randTable(r *rand.Rand, n int, allowNegative bool) *relation.Store {
	s := relation.NewSchema(
		relation.Column{Name: "v", Kind: relation.Bounded},
		relation.Column{Name: "w", Kind: relation.Bounded},
	)
	tab := relation.NewStore(s, 1)
	for i := 0; i < n; i++ {
		mk := func() interval.Interval {
			lo := r.Float64() * 50
			if allowNegative {
				lo -= 25
			}
			w := r.Float64() * 10
			if r.Intn(5) == 0 {
				w = 0
			}
			return interval.New(lo, lo+w)
		}
		tab.MustInsert(relation.Tuple{
			Key:    int64(i + 1),
			Bounds: []interval.Interval{mk(), mk()},
			Cost:   float64(1 + r.Intn(10)),
		})
	}
	return tab
}

// adversarialMasters yields several master-value assignments within the
// current bounds: all-low, all-high, and random mixtures — the extremes
// that the CHOOSE_REFRESH guarantee must survive.
func adversarialMasters(r *rand.Rand, tab *relation.Store, trials int) []map[int64][]float64 {
	out := make([]map[int64][]float64, 0, trials+2)
	mk := func(pickVal func(b interval.Interval) float64) map[int64][]float64 {
		m := make(map[int64][]float64, tab.Len())
		for _, key := range tab.SortedKeys() {
			tu, _ := tab.Get(key)
			m[key] = []float64{pickVal(tu.Bounds[0]), pickVal(tu.Bounds[1])}
		}
		return m
	}
	out = append(out, mk(func(b interval.Interval) float64 { return b.Lo }))
	out = append(out, mk(func(b interval.Interval) float64 { return b.Hi }))
	for t := 0; t < trials; t++ {
		out = append(out, mk(func(b interval.Interval) float64 {
			switch r.Intn(3) {
			case 0:
				return b.Lo
			case 1:
				return b.Hi
			default:
				return b.Lo + r.Float64()*b.Width()
			}
		}))
	}
	return out
}

// randSimplePred returns nil or a comparison/conjunction over column 1
// (and occasionally column 0, exercising bound shrinking).
func randSimplePred(r *rand.Rand) predicate.Expr {
	switch r.Intn(5) {
	case 0:
		return nil
	case 1:
		return predicate.NewCmp(predicate.Column(1, "w"), predicate.Gt, predicate.Const(r.Float64()*50))
	case 2:
		return predicate.NewCmp(predicate.Column(1, "w"), predicate.Lt, predicate.Const(r.Float64()*50))
	case 3:
		return predicate.NewAnd(
			predicate.NewCmp(predicate.Column(1, "w"), predicate.Gt, predicate.Const(r.Float64()*30)),
			predicate.NewCmp(predicate.Column(0, "v"), predicate.Lt, predicate.Const(r.Float64()*50)),
		)
	default:
		return predicate.NewCmp(predicate.Column(0, "v"), predicate.Ge, predicate.Const(r.Float64()*50))
	}
}

// checkGuarantee verifies that refreshing the plan's tuples with the given
// master values yields a bounded answer of width ≤ R. For AVG with a
// predicate the paper's algorithm guarantees the constraint for the loose
// (section 6.4.1) bound, which also caps the tight bound.
func checkGuarantee(t *testing.T, tab *relation.Store, plan Plan,
	fn aggregate.Func, p predicate.Expr, r float64, master map[int64][]float64) bool {
	t.Helper()
	work := clone(tab, 1)
	for _, key := range plan.Keys {
		if _, err := work.Refresh(key, master[key]); err != nil {
			t.Fatal(err)
		}
	}
	var got interval.Interval
	if fn == aggregate.Avg && !predicate.IsTrivial(p) {
		inputs, n := aggregate.CollectStore(work, 0, p, true, 1)
		got = aggregate.EvalLooseAvgInputs(inputs, false, n)
	} else {
		got = eval(work, 0, fn, p)
	}
	if got.IsEmpty() {
		return true // exactly-empty selection: nothing to bound
	}
	return got.Width() <= r+1e-6
}

// TestQuickChooseRefreshGuarantee is the paper's correctness theorem as a
// property: for every aggregate, random tables, random predicates, random
// R, and adversarial master values inside the bounds, the post-refresh
// answer satisfies the precision constraint.
func TestQuickChooseRefreshGuarantee(t *testing.T) {
	fns := []aggregate.Func{aggregate.Min, aggregate.Max, aggregate.Sum, aggregate.Count, aggregate.Avg}
	solvers := []Solver{Auto, SolverExactDP, SolverApprox, SolverGreedyDensity}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab := randTable(r, 1+r.Intn(14), r.Intn(2) == 0)
		p := randSimplePred(r)
		fn := fns[r.Intn(len(fns))]
		solver := solvers[r.Intn(len(solvers))]
		R := r.Float64() * 30
		plan, err := ChooseStore(tab, 0, fn, p, R, Options{Solver: solver})
		if err != nil {
			t.Logf("seed %d: Choose error %v", seed, err)
			return false
		}
		for _, master := range adversarialMasters(r, tab, 6) {
			if !checkGuarantee(t, tab, plan, fn, p, R, master) {
				t.Logf("seed %d: fn=%v solver=%v R=%g pred=%v plan=%v",
					seed, fn, solver, R, p, plan.Keys)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestQuickMinRefreshSetIsOptimal re-proves Appendix B empirically: for
// MIN without a predicate, the chosen set is exactly the set of tuples
// that must appear in every correct solution, so any correct refresh set
// is a superset.
func TestQuickMinRefreshSetNecessary(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab := randTable(r, 2+r.Intn(10), false)
		R := r.Float64() * 20
		plan, err := ChooseStore(tab, 0, aggregate.Min, nil, R, Options{})
		if err != nil {
			return false
		}
		// For each chosen tuple, dropping it from the refresh set must
		// break the guarantee for SOME master assignment: set all other
		// tuples' values to their upper bounds and the dropped tuple
		// remains at its cached bound.
		for _, drop := range plan.Keys {
			work := clone(tab, 1)
			for _, key := range plan.Keys {
				if key == drop {
					continue
				}
				tu, _ := work.Get(key)
				if _, err := work.Refresh(key, []float64{tu.Bounds[0].Hi, tu.Bounds[1].Hi}); err != nil {
					return false
				}
			}
			got := eval(work, 0, aggregate.Min, nil)
			if got.Width() <= R-1e-9 {
				// Guarantee held without refreshing `drop` even in the
				// adversarial case — only possible if another refreshed
				// tuple's master value dipped low, but we pinned them high,
				// so the chosen set was not necessary. (Ties at exactly R
				// are fine.)
				if got.Width() < R-1e-6 {
					t.Logf("seed %d: dropping %d still gave width %g < R %g",
						seed, drop, got.Width(), R)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickCountPlanSize: the COUNT plan refreshes exactly
// max(0, ceil(|T?| − R)) tuples and they are the cheapest ones.
func TestQuickCountPlanSize(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab := randTable(r, 1+r.Intn(20), false)
		p := predicate.NewCmp(predicate.Column(1, "w"), predicate.Gt, predicate.Const(r.Float64()*50))
		R := float64(r.Intn(10))
		var maybes []relation.Tuple
		for _, key := range tab.SortedKeys() {
			if tu, _ := tab.Get(key); predicate.ClassifyTuple(p, &tu) == predicate.Maybe {
				maybes = append(maybes, tu)
			}
		}
		plan, err := ChooseStore(tab, 0, aggregate.Count, p, R, Options{})
		if err != nil {
			return false
		}
		want := int(math.Ceil(float64(len(maybes)) - R))
		if want < 0 {
			want = 0
		}
		if plan.Len() != want {
			t.Logf("seed %d: plan size %d, want %d (|T?|=%d R=%g)",
				seed, plan.Len(), want, len(maybes), R)
			return false
		}
		// No unchosen T? tuple may be strictly cheaper than a chosen one.
		chosen := make(map[int64]bool)
		maxChosen := 0.0
		for _, k := range plan.Keys {
			chosen[k] = true
			if tu, _ := tab.Get(k); tu.Cost > maxChosen {
				maxChosen = tu.Cost
			}
		}
		for _, tu := range maybes {
			if !chosen[tu.Key] && tu.Cost < maxChosen-1e-9 && plan.Len() > 0 {
				// A cheaper tuple was skipped only if ties made the choice
				// ambiguous; strict inequality is a bug.
				t.Logf("seed %d: skipped cheaper tuple %d (%g < %g)",
					seed, tu.Key, tu.Cost, maxChosen)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickSumPlanRespectsBudget: the width left behind by the SUM plan
// (sum of unrefreshed weights) never exceeds R.
func TestQuickSumResidualWidth(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab := randTable(r, 1+r.Intn(20), true)
		R := r.Float64() * 40
		plan, err := ChooseStore(tab, 0, aggregate.Sum, nil, R, Options{})
		if err != nil {
			return false
		}
		refreshed := make(map[int64]bool)
		for _, k := range plan.Keys {
			refreshed[k] = true
		}
		var residual float64
		for _, key := range tab.SortedKeys() {
			if tu, _ := tab.Get(key); !refreshed[key] {
				residual += tu.Bounds[0].Width()
			}
		}
		return residual <= R+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
