package aggregate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"trapp/internal/interval"
	"trapp/internal/predicate"
	"trapp/internal/relation"
)

// randTableAndMaster builds a random two-bounded-column one-shard store
// plus master values consistent with the cached bounds.
func randTableAndMaster(r *rand.Rand, n int) (*relation.Store, map[int64][]float64) {
	s := relation.NewSchema(
		relation.Column{Name: "a", Kind: relation.Bounded},
		relation.Column{Name: "b", Kind: relation.Bounded},
	)
	tab := relation.NewStore(s, 1)
	master := make(map[int64][]float64, n)
	for i := 0; i < n; i++ {
		mk := func() (interval.Interval, float64) {
			lo := r.Float64()*60 - 30
			w := r.Float64() * 12
			if r.Intn(5) == 0 {
				w = 0
			}
			return interval.New(lo, lo+w), lo + r.Float64()*w
		}
		ba, va := mk()
		bb, vb := mk()
		key := int64(i + 1)
		tab.MustInsert(relation.Tuple{
			Key:    key,
			Bounds: []interval.Interval{ba, bb},
			Cost:   1 + r.Float64()*9,
		})
		master[key] = []float64{va, vb}
	}
	return tab, master
}

// randPred builds a random predicate over columns {0, 1}.
func randPred(r *rand.Rand) predicate.Expr {
	if r.Intn(4) == 0 {
		return nil // no predicate
	}
	leaf := func() predicate.Expr {
		return predicate.NewCmp(
			predicate.Column(r.Intn(2), ""),
			predicate.Op(r.Intn(6)),
			predicate.Const(r.Float64()*60-30),
		)
	}
	switch r.Intn(4) {
	case 0:
		return leaf()
	case 1:
		return predicate.NewAnd(leaf(), leaf())
	case 2:
		return predicate.NewOr(leaf(), leaf())
	default:
		return predicate.NewNot(leaf())
	}
}

// TestQuickBoundedAnswerContainsExact is the paper's core guarantee as a
// property: for random tables, predicates, and master values inside the
// cached bounds, every bounded answer contains the exact answer.
func TestQuickBoundedAnswerContainsExact(t *testing.T) {
	fns := []Func{Min, Max, Sum, Count, Avg}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab, master := randTableAndMaster(r, 1+r.Intn(20))
		p := randPred(r)
		for _, fn := range fns {
			for _, c := range []int{0, 1} {
				bounded := eval(tab, c, fn, p)
				exact, ok := Exact(tab, c, fn, p, master)
				if !ok {
					continue // undefined aggregate; any bound is vacuous
				}
				if bounded.IsEmpty() {
					return false // defined exact answer but empty bound
				}
				if !bounded.Expand(1e-9).Contains(exact) {
					t.Logf("seed %d: %v col %d pred %v bounded %v exact %g",
						seed, fn, c, p, bounded, exact)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickLooseAvgContainsTight: the Appendix E tight bound is always
// inside the section 6.4.1 loose bound, and both contain the exact answer.
func TestQuickLooseAvgContainsTight(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab, master := randTableAndMaster(r, 1+r.Intn(20))
		p := randPred(r)
		tight := eval(tab, 0, Avg, p)
		loose := evalLooseAvg(tab, 0, p)
		if tight.IsEmpty() != loose.IsEmpty() {
			return false
		}
		if tight.IsEmpty() {
			return true
		}
		if !loose.Expand(1e-9).ContainsInterval(tight) {
			t.Logf("seed %d: loose %v tight %v pred %v", seed, loose, tight, p)
			return false
		}
		if exact, ok := Exact(tab, 0, Avg, p, master); ok {
			if !loose.Expand(1e-9).Contains(exact) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickRefreshTightensAnswers: refreshing every tuple to its master
// value collapses each bounded answer to (an interval containing only) the
// exact answer.
func TestQuickRefreshCollapsesAnswers(t *testing.T) {
	fns := []Func{Min, Max, Sum, Count, Avg}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab, master := randTableAndMaster(r, 1+r.Intn(15))
		p := randPred(r)
		for key, vals := range master {
			if _, err := tab.Refresh(key, vals); err != nil {
				return false
			}
		}
		for _, fn := range fns {
			bounded := eval(tab, 0, fn, p)
			exact, ok := Exact(tab, 0, fn, p, master)
			if !ok {
				continue
			}
			if bounded.Width() > 1e-9 {
				return false
			}
			if !bounded.Expand(1e-9).Contains(exact) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
