package predicate

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"trapp/internal/interval"
	"trapp/internal/relation"
	"trapp/internal/workload"
)

// figure2Preds builds the three predicates of the paper's Figure 7 against
// the link schema.
func fastLinksPred(s *relation.Schema) Expr {
	bw := s.MustLookup(workload.ColBandwidth)
	lat := s.MustLookup(workload.ColLatency)
	return NewAnd(
		NewCmp(Column(bw, "bandwidth"), Gt, Const(50)),
		NewCmp(Column(lat, "latency"), Lt, Const(10)),
	)
}

func highLatencyPred(s *relation.Schema) Expr {
	lat := s.MustLookup(workload.ColLatency)
	return NewCmp(Column(lat, "latency"), Gt, Const(10))
}

func highTrafficPred(s *relation.Schema) Expr {
	tr := s.MustLookup(workload.ColTraffic)
	return NewCmp(Column(tr, "traffic"), Gt, Const(100))
}

// figure2Tuple returns a copy of the Figure 2 tuple with the given key.
func figure2Tuple(key int64) *relation.Tuple {
	tu, _ := workload.Figure2Store().Get(key)
	return &tu
}

func TestOpString(t *testing.T) {
	ops := map[Op]string{Lt: "<", Le: "<=", Gt: ">", Ge: ">=", Eq: "=", Ne: "<>"}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("Op %d string %q, want %q", op, op.String(), want)
		}
	}
}

func TestCmpEvalAgainstBounds(t *testing.T) {
	s := workload.LinkSchema()
	lat := s.MustLookup(workload.ColLatency)
	p := NewCmp(Column(lat, "latency"), Gt, Const(10))
	// Tuple 3 has latency [12,16]: certainly > 10.
	if got := p.Eval(figure2Tuple(3)); got != interval.True {
		t.Errorf("tuple 3: %v", got)
	}
	// Tuple 1 has latency [2,4]: certainly not > 10.
	if got := p.Eval(figure2Tuple(1)); got != interval.False {
		t.Errorf("tuple 1: %v", got)
	}
	// Tuple 4 has latency [9,11]: unknown.
	if got := p.Eval(figure2Tuple(4)); got != interval.Unknown {
		t.Errorf("tuple 4: %v", got)
	}
}

func TestFigure7ClassificationBeforeRefresh(t *testing.T) {
	// The paper's Figure 7 lists, for each of three predicates, the
	// classification of tuples 1–6 before refresh.
	s := workload.LinkSchema()
	cases := []struct {
		name string
		p    Expr
		want map[int64]Class // by tuple key
	}{
		{
			name: "(bandwidth > 50) AND (latency < 10)",
			p:    fastLinksPred(s),
			want: map[int64]Class{1: Plus, 2: Maybe, 3: Minus, 4: Maybe, 5: Maybe, 6: Maybe},
		},
		{
			name: "latency > 10",
			p:    highLatencyPred(s),
			want: map[int64]Class{1: Minus, 2: Minus, 3: Plus, 4: Maybe, 5: Maybe, 6: Minus},
		},
		{
			name: "traffic > 100",
			p:    highTrafficPred(s),
			want: map[int64]Class{1: Maybe, 2: Plus, 3: Maybe, 4: Plus, 5: Maybe, 6: Maybe},
		},
	}
	for _, c := range cases {
		for key, want := range c.want {
			got := ClassifyTuple(c.p, figure2Tuple(key))
			if got != want {
				t.Errorf("%s tuple %d: got %v, want %v", c.name, key, got, want)
			}
		}
	}
}

func TestFigure7ClassificationAfterRefresh(t *testing.T) {
	// After refreshing every tuple to its master values, classification
	// must match Figure 7's "after refresh" columns (all T+ or T−).
	tab := workload.Figure2Store()
	for key, vals := range workload.Figure2Master() {
		if _, err := tab.Refresh(key, vals); err != nil {
			t.Fatal(err)
		}
	}
	s := tab.Schema()
	cases := []struct {
		p    Expr
		want map[int64]Class
	}{
		{fastLinksPred(s), map[int64]Class{1: Plus, 2: Plus, 3: Minus, 4: Plus, 5: Minus, 6: Minus}},
		{highLatencyPred(s), map[int64]Class{1: Minus, 2: Minus, 3: Plus, 4: Minus, 5: Plus, 6: Minus}},
		{highTrafficPred(s), map[int64]Class{1: Minus, 2: Plus, 3: Plus, 4: Plus, 5: Minus, 6: Plus}},
	}
	for _, c := range cases {
		for key, want := range c.want {
			tu, _ := tab.Get(key)
			got := ClassifyTuple(c.p, &tu)
			if got != want {
				t.Errorf("%s tuple %d after refresh: got %v, want %v", c.p, key, got, want)
			}
		}
	}
}

func TestClassifyPartition(t *testing.T) {
	p := highTrafficPred(workload.LinkSchema())
	counts := map[Class]int{}
	for _, r := range workload.Figure2() {
		counts[ClassifyTuple(p, figure2Tuple(r.Key))]++
	}
	if counts[Plus] != 2 || counts[Maybe] != 4 || counts[Minus] != 0 {
		t.Errorf("traffic>100 partition = +%d ?%d -%d, want +2 ?4 -0",
			counts[Plus], counts[Maybe], counts[Minus])
	}
}

func TestLogicalConnectives(t *testing.T) {
	lat := workload.LinkSchema().MustLookup(workload.ColLatency)
	lt10 := NewCmp(Column(lat, "latency"), Lt, Const(10))
	// Tuple 4 latency [9,11] → Unknown; NOT Unknown = Unknown.
	tu := figure2Tuple(4)
	if got := NewNot(lt10).Eval(tu); got != interval.Unknown {
		t.Errorf("NOT unknown = %v", got)
	}
	// Unknown OR True = True.
	always := TruePred{}
	if got := NewOr(lt10, always).Eval(tu); got != interval.True {
		t.Errorf("unknown OR true = %v", got)
	}
	// Unknown AND False = False.
	never := NewNot(TruePred{})
	if got := NewAnd(lt10, never).Eval(tu); got != interval.False {
		t.Errorf("unknown AND false = %v", got)
	}
}

func TestColumns(t *testing.T) {
	s := workload.LinkSchema()
	p := fastLinksPred(s)
	cols := p.Columns(nil)
	if len(cols) != 2 {
		t.Fatalf("Columns = %v", cols)
	}
	seen := map[int]bool{}
	for _, c := range cols {
		seen[c] = true
	}
	if !seen[s.MustLookup(workload.ColBandwidth)] || !seen[s.MustLookup(workload.ColLatency)] {
		t.Errorf("Columns = %v", cols)
	}
}

// TestStringAllocatesLinearly pins String's allocation to the
// predicate's size: rendering a NOT chain or a left-deep AND chain eight
// times as long may allocate at most about eight times the bytes (nested
// formatting allocated quadratically, 64 times).
func TestStringAllocatesLinearly(t *testing.T) {
	cmp := NewCmp(Column(0, "v"), Lt, Const(1.5))
	chains := map[string]func(n int) Expr{
		"NOT": func(n int) Expr {
			var e Expr = cmp
			for i := 0; i < n; i++ {
				e = NewNot(e)
			}
			return e
		},
		"AND": func(n int) Expr {
			var e Expr = cmp
			for i := 0; i < n; i++ {
				e = NewAnd(e, cmp)
			}
			return e
		},
	}
	allocated := func(e Expr) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = e.String()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for name, chain := range chains {
		small, large := allocated(chain(1000)), allocated(chain(8000))
		if large > 10*small {
			t.Errorf("%s chain: %d bytes at 1000 nodes, %d at 8000 (ratio %.1f, want ≤ 10)",
				name, small, large, float64(large)/float64(small))
		}
	}
}

func TestString(t *testing.T) {
	s := workload.LinkSchema()
	p := fastLinksPred(s)
	want := "(bandwidth > 50 AND latency < 10)"
	if p.String() != want {
		t.Errorf("String = %q, want %q", p.String(), want)
	}
	if (TruePred{}).String() != "TRUE" {
		t.Error("TruePred string")
	}
	n := NewNot(TruePred{})
	if n.String() != "NOT (TRUE)" {
		t.Errorf("Not string = %q", n.String())
	}
	if Const(3.5).String() != "3.5" {
		t.Errorf("Const string = %q", Const(3.5).String())
	}
	if Column(2, "").String() != "col2" {
		t.Errorf("anonymous column string = %q", Column(2, "").String())
	}
}

func TestIsTrivial(t *testing.T) {
	if !IsTrivial(TruePred{}) || !IsTrivial(nil) {
		t.Error("IsTrivial false negatives")
	}
	if IsTrivial(NewCmp(Const(1), Lt, Const(2))) {
		t.Error("comparison is trivial")
	}
}

func TestClassString(t *testing.T) {
	if Plus.String() != "T+" || Maybe.String() != "T?" || Minus.String() != "T-" {
		t.Error("Class strings")
	}
}

// randomExpr builds a random predicate tree over the given columns.
func randomExpr(r *rand.Rand, cols int, depth int) Expr {
	if depth == 0 || r.Intn(3) == 0 {
		mkOperand := func() Operand {
			if r.Intn(2) == 0 {
				return Column(r.Intn(cols), "")
			}
			return Const(r.Float64()*40 - 20)
		}
		return NewCmp(mkOperand(), Op(r.Intn(6)), mkOperand())
	}
	switch r.Intn(3) {
	case 0:
		return NewAnd(randomExpr(r, cols, depth-1), randomExpr(r, cols, depth-1))
	case 1:
		return NewOr(randomExpr(r, cols, depth-1), randomExpr(r, cols, depth-1))
	default:
		return NewNot(randomExpr(r, cols, depth-1))
	}
}

// TestQuickClassificationSoundness is the package's central property: for
// random predicates, random bounds, and random master values inside those
// bounds, T+ tuples always satisfy the predicate and T− tuples never do.
func TestQuickClassificationSoundness(t *testing.T) {
	const cols = 3
	schema := relation.NewSchema(
		relation.Column{Name: "a", Kind: relation.Bounded},
		relation.Column{Name: "b", Kind: relation.Bounded},
		relation.Column{Name: "c", Kind: relation.Bounded},
	)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomExpr(r, cols, 3)
		for trial := 0; trial < 30; trial++ {
			bounds := make([]interval.Interval, cols)
			vals := make([]float64, cols)
			for i := range bounds {
				lo := r.Float64()*40 - 20
				w := r.Float64() * 10
				if r.Intn(4) == 0 {
					w = 0 // exact value
				}
				bounds[i] = interval.New(lo, lo+w)
				vals[i] = lo + r.Float64()*w
			}
			tu := &relation.Tuple{Key: 1, Bounds: bounds}
			cls := ClassifyTuple(p, tu)
			holds := p.EvalExact(vals)
			if cls == Plus && !holds {
				return false
			}
			if cls == Minus && holds {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
	_ = schema
}
