package predicate

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"trapp/internal/interval"
	"trapp/internal/workload"
)

func TestRestrictionSimpleComparisons(t *testing.T) {
	col := 0
	cases := []struct {
		p    Expr
		want interval.Interval
	}{
		{NewCmp(Column(col, "x"), Lt, Const(5)), interval.Interval{Lo: math.Inf(-1), Hi: 5}},
		{NewCmp(Column(col, "x"), Le, Const(5)), interval.Interval{Lo: math.Inf(-1), Hi: 5}},
		{NewCmp(Column(col, "x"), Gt, Const(5)), interval.Interval{Lo: 5, Hi: math.Inf(1)}},
		{NewCmp(Column(col, "x"), Ge, Const(5)), interval.Interval{Lo: 5, Hi: math.Inf(1)}},
		{NewCmp(Column(col, "x"), Eq, Const(5)), interval.Point(5)},
		{NewCmp(Column(col, "x"), Ne, Const(5)), interval.Unbounded},
		// Mirrored: 5 < x  ≡  x > 5.
		{NewCmp(Const(5), Lt, Column(col, "x")), interval.Interval{Lo: 5, Hi: math.Inf(1)}},
		{NewCmp(Const(5), Ge, Column(col, "x")), interval.Interval{Lo: math.Inf(-1), Hi: 5}},
		// Different column: no restriction on col 0.
		{NewCmp(Column(1, "y"), Lt, Const(5)), interval.Unbounded},
		// Column-to-column: no restriction.
		{NewCmp(Column(col, "x"), Lt, Column(1, "y")), interval.Unbounded},
	}
	for _, c := range cases {
		got := Restriction(c.p, col)
		if !got.Equal(c.want) {
			t.Errorf("Restriction(%s) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRestrictionConnectives(t *testing.T) {
	col := 0
	x := func(op Op, k float64) Expr { return NewCmp(Column(col, "x"), op, Const(k)) }
	// x > 2 AND x < 8 → [2, 8]
	and := NewAnd(x(Gt, 2), x(Lt, 8))
	if got := Restriction(and, col); !got.Equal(interval.New(2, 8)) {
		t.Errorf("AND restriction = %v", got)
	}
	// x < 2 OR x < 8 → (-inf, 8]
	or := NewOr(x(Lt, 2), x(Lt, 8))
	if got := Restriction(or, col); !got.Equal(interval.Interval{Lo: math.Inf(-1), Hi: 8}) {
		t.Errorf("OR restriction = %v", got)
	}
	// NOT is conservative.
	if got := Restriction(NewNot(x(Lt, 2)), col); !got.Equal(interval.Unbounded) {
		t.Errorf("NOT restriction = %v", got)
	}
	if got := Restriction(TruePred{}, col); !got.Equal(interval.Unbounded) {
		t.Errorf("TRUE restriction = %v", got)
	}
}

func TestShrinkBoundPaperExample(t *testing.T) {
	// Appendix D: aggregating latency under "latency > 10", bound [3, 8]
	// cannot contribute; bound [8, 12] shrinks to [10, 12].
	col := 0
	p := NewCmp(Column(col, "latency"), Gt, Const(10))
	if got := interval.New(3, 8).Intersect(Restriction(p, col)); !got.IsEmpty() {
		t.Errorf("bound [3,8] shrinks to %v under latency>10, want empty", got)
	}
	if got := interval.New(8, 12).Intersect(Restriction(p, col)); !got.Equal(interval.New(10, 12)) {
		t.Errorf("bound [8,12] shrinks to %v", got)
	}
	// Unrestricted column: unchanged.
	if got := interval.New(8, 12).Intersect(Restriction(p, 1)); !got.Equal(interval.New(8, 12)) {
		t.Errorf("other column's bound shrinks to %v", got)
	}
}

// TestQuickRestrictionSoundness: whenever the predicate holds on exact
// values, the restricted column's value lies in the restriction interval.
func TestQuickRestrictionSoundness(t *testing.T) {
	const cols = 3
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomExpr(r, cols, 3)
		col := r.Intn(cols)
		restr := Restriction(p, col)
		for trial := 0; trial < 50; trial++ {
			vals := make([]float64, cols)
			for i := range vals {
				vals[i] = r.Float64()*40 - 20
			}
			if p.EvalExact(vals) && !restr.Contains(vals[col]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickShrinkPreservesMasterValue: if a master value inside the bound
// satisfies the predicate, it stays inside the shrunk bound.
func TestQuickShrinkPreservesMasterValue(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomExpr(r, 2, 2)
		lo := r.Float64()*20 - 10
		b := interval.New(lo, lo+r.Float64()*10)
		shrunk := b.Intersect(Restriction(p, 0))
		for trial := 0; trial < 30; trial++ {
			v0 := lo + r.Float64()*b.Width()
			v1 := r.Float64()*20 - 10
			// An empty shrunk bound says no contribution is possible; the
			// predicate holding would make that unsound.
			if p.EvalExact([]float64{v0, v1}) && !shrunk.Contains(v0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMapOracle(t *testing.T) {
	m := workload.MapOracle{1: {3, 61, 98}}
	vals, ok := m.Master(1)
	if !ok || vals[0] != 3 {
		t.Error("MapOracle lookup failed")
	}
	if _, ok := m.Master(2); ok {
		t.Error("MapOracle found missing key")
	}
}
