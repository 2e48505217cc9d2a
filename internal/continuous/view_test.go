package continuous

import (
	"context"
	"math"
	"testing"

	"trapp/internal/aggregate"
	"trapp/internal/interval"
	"trapp/internal/query"
	"trapp/internal/refresh"
	"trapp/internal/relation"
)

// TestViewFoldsInCanonicalOrder pins a view's maintained answer to the
// query processor's bit for bit on ±0.0 MIN/MAX ties. Keys 1 and 2, and
// keys 3 and 4, sort in opposite orders by raw key and canonically, so a
// view that folded its inputs in raw key order would keep the other
// zero's sign bit than ExecuteCtx does.
func TestViewFoldsInCanonicalOrder(t *testing.T) {
	if !relation.CanonicalLess(2, 1) || !relation.CanonicalLess(4, 3) {
		t.Fatal("fixture assumes keys 2 and 4 precede keys 1 and 3 canonically")
	}
	schema := relation.NewSchema(relation.Column{Name: "v", Kind: relation.Bounded})
	negZero := math.Copysign(0, -1)
	tuples := []relation.Tuple{
		{Key: 1, Bounds: []interval.Interval{{Lo: negZero, Hi: 1}}, Cost: 1},
		{Key: 2, Bounds: []interval.Interval{{Lo: 0, Hi: 1}}, Cost: 1},
		{Key: 3, Bounds: []interval.Interval{{Lo: -1, Hi: negZero}}, Cost: 1},
		{Key: 4, Bounds: []interval.Interval{{Lo: -1, Hi: 0}}, Cost: 1},
	}
	st := relation.NewStore(schema, 0)
	for _, tu := range tuples {
		st.MustInsert(tu.Clone())
	}
	proc := query.NewProcessor(refresh.Options{})
	proc.RegisterStore("t", st, nil)
	for _, fn := range []aggregate.Func{aggregate.Min, aggregate.Max} {
		q := query.NewQuery("t", fn, "v")
		q.Within = math.Inf(1)
		res, err := proc.ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		v := newView("sig", q, 0, nil)
		v.reset(st.NumShards())
		for _, tu := range tuples {
			si := st.ShardOf(tu.Key)
			st.ViewShard(si, func(t *relation.Table) { v.updateKey(si, t, tu.Key, t.ByKey(tu.Key)) })
		}
		v.recompute()
		got, want := v.groups[""].answer, res.Answer
		if math.Float64bits(got.Lo) != math.Float64bits(want.Lo) || math.Float64bits(got.Hi) != math.Float64bits(want.Hi) {
			t.Errorf("%v: view answer %v (signbits %t/%t), ExecuteCtx %v (signbits %t/%t)", fn,
				got, math.Signbit(got.Lo), math.Signbit(got.Hi), want, math.Signbit(want.Lo), math.Signbit(want.Hi))
		}
	}
}
