package continuous

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"trapp/internal/aggregate"
	"trapp/internal/boundfn"
	"trapp/internal/cache"
	"trapp/internal/interval"
	"trapp/internal/netsim"
	"trapp/internal/predicate"
	"trapp/internal/query"
	"trapp/internal/refresh"
	"trapp/internal/relation"
	"trapp/internal/source"
)

// TestViewsMatchExecutor enforces DESIGN invariant 9: after every Settle,
// each standing view's maintained answer equals what the query processor
// computes over the same cache state — ExecuteCtx for a scalar view,
// ExecuteGroupBy group by group for a grouped one — bit for bit,
// including the sign of a ±0.0 endpoint. Random pushes, clock ticks,
// propagated inserts and deletes and query-initiated refreshes drive the
// cache, over stores of 1, 8 and 64 shards; the views cover all five
// aggregates, with and without a WHERE clause, scalar and GROUP BY, and
// some carry constraints so the engine's own repairs run as well.
func TestViewsMatchExecutor(t *testing.T) {
	for _, shards := range []int{1, 8, 64} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				runViewsMatchExecutor(t, shards, seed)
			})
		}
	}
}

// propRig is the property test's system: one cache (g, h exact; value,
// load bounded) fed by two sources, a query processor and an engine over
// the same cache.
type propRig struct {
	rng   *rand.Rand
	clock *netsim.Clock
	srcs  []*source.Source
	c     *cache.Cache
	proc  *query.Processor
	e     *Engine
	live  []int64 // master keys, in insertion order
	owner map[int64]*source.Source
	next  int64
}

var propSchema = relation.NewSchema(
	relation.Column{Name: "g", Kind: relation.Exact},
	relation.Column{Name: "h", Kind: relation.Exact},
	relation.Column{Name: "value", Kind: relation.Bounded},
	relation.Column{Name: "load", Kind: relation.Bounded},
)

// propPredicates are the WHERE clauses the views and refreshing queries
// draw from: none, a restriction on the aggregation column (Appendix D
// shrink), a disjunction over another bounded column and an exact one,
// and a negation.
func propPredicates() []predicate.Expr {
	value := predicate.Column(2, "value")
	load := predicate.Column(3, "load")
	h := predicate.Column(1, "h")
	return []predicate.Expr{
		nil,
		predicate.NewCmp(value, predicate.Gt, predicate.Const(0)),
		predicate.NewOr(
			predicate.NewCmp(load, predicate.Lt, predicate.Const(30)),
			predicate.NewCmp(h, predicate.Eq, predicate.Const(1))),
		predicate.NewAnd(
			predicate.NewNot(predicate.NewCmp(value, predicate.Le, predicate.Const(-20))),
			predicate.NewCmp(h, predicate.Ne, predicate.Const(2))),
	}
}

var propAggs = []aggregate.Func{aggregate.Min, aggregate.Max, aggregate.Sum, aggregate.Count, aggregate.Avg}

// value draws a master value, with exact zeros of both signs often
// enough that MIN/MAX ties on ±0.0 occur.
func (r *propRig) value() float64 {
	switch r.rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	default:
		return math.Round(r.rng.Float64()*100-50) / 2
	}
}

func (r *propRig) values() []float64 {
	return []float64{r.value(), math.Round(r.rng.Float64() * 60)}
}

func (r *propRig) policy() boundfn.WidthPolicy {
	return boundfn.StaticWidth([]float64{0, 0.5, 1, 3}[r.rng.Intn(4)])
}

func (r *propRig) cost() float64 { return []float64{0.5, 1, 1, 2, 3}[r.rng.Intn(5)] }

func (r *propRig) meta() []float64 {
	return []float64{float64(r.rng.Intn(3)), float64(r.rng.Intn(3))}
}

func newPropRig(t *testing.T, shards int, seed int64) *propRig {
	t.Helper()
	r := &propRig{
		rng:   rand.New(rand.NewSource(seed)),
		clock: netsim.NewClock(),
		owner: make(map[int64]*source.Source),
		next:  1,
	}
	net := netsim.NewNetwork()
	for i := 0; i < 2; i++ {
		r.srcs = append(r.srcs, source.New(fmt.Sprintf("s%d", i), r.clock, net, nil))
	}
	r.c = cache.NewSharded("c", r.clock, propSchema, shards)
	for _, src := range r.srcs {
		r.c.WatchSource(src)
	}
	for i := 0; i < 40; i++ {
		src := r.srcs[r.rng.Intn(len(r.srcs))]
		key := r.next
		r.next++
		if err := src.AddObject(key, r.values(), r.cost(), r.policy()); err != nil {
			t.Fatal(err)
		}
		if err := r.c.Subscribe(src, key, r.meta()); err != nil {
			t.Fatal(err)
		}
		r.live = append(r.live, key)
		r.owner[key] = src
	}
	r.proc = query.NewProcessor(refresh.Options{})
	r.proc.RegisterStore("vals", r.c.Store(), r.c)
	r.e = NewEngine(r.clock, Config{})
	r.e.AddTable("vals", r.c)
	t.Cleanup(r.e.Close)
	return r
}

// randomQuery draws a query shape over the value column.
func (r *propRig) randomQuery() query.Query {
	preds := propPredicates()
	q := query.NewQuery("vals", propAggs[r.rng.Intn(len(propAggs))], "value")
	q.Where = preds[r.rng.Intn(len(preds))]
	return q
}

// step applies one random event to the sources, the clock or the cache.
func (r *propRig) step(t *testing.T) string {
	t.Helper()
	switch op := r.rng.Intn(20); {
	case op < 7 && len(r.live) > 0: // push (or a silent in-bound change)
		key := r.live[r.rng.Intn(len(r.live))]
		if err := r.owner[key].SetValue(key, r.values()); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("set %d", key)
	case op < 10:
		d := int64(1 + r.rng.Intn(4))
		r.clock.Advance(d)
		return fmt.Sprintf("tick %d", d)
	case op < 13:
		src := r.srcs[r.rng.Intn(len(r.srcs))]
		key := r.next
		r.next++
		if err := src.InsertObject(key, r.values(), r.cost(), r.policy(), r.meta()); err != nil {
			t.Fatal(err)
		}
		r.live = append(r.live, key)
		r.owner[key] = src
		return fmt.Sprintf("insert %d", key)
	case op < 15 && len(r.live) > 0:
		j := r.rng.Intn(len(r.live))
		key := r.live[j]
		if err := r.owner[key].RemoveObject(key); err != nil {
			t.Fatal(err)
		}
		r.live = append(r.live[:j], r.live[j+1:]...)
		delete(r.owner, key)
		return fmt.Sprintf("delete %d", key)
	default: // a query-initiated refresh through the processor
		q := r.randomQuery()
		q.Within = []float64{0, 1, 4}[r.rng.Intn(3)]
		if _, err := r.proc.ExecuteCtx(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		return "query " + q.String()
	}
}

func bitEqual(a, b interval.Interval) bool {
	return math.Float64bits(a.Lo) == math.Float64bits(b.Lo) && math.Float64bits(a.Hi) == math.Float64bits(b.Hi)
}

// check compares every view of the table against the query processor.
func (r *propRig) check(t *testing.T, event string) {
	t.Helper()
	ts := r.e.tables["vals"]
	for _, v := range ts.views {
		q := v.subs[0].q
		q.Within, q.RelativeWithin = math.Inf(1), 0
		if v.scalar() {
			res, err := r.proc.ExecuteCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if got := v.groups[""].answer; !bitEqual(got, res.Answer) {
				t.Fatalf("after %s: view %s answers %v, ExecuteCtx %v", event, v.sig, got, res.Answer)
			}
			continue
		}
		rows, err := r.proc.ExecuteGroupBy(q)
		if err != nil {
			t.Fatal(err)
		}
		groups := v.sortedGroups()
		if len(groups) != len(rows) {
			t.Fatalf("after %s: view %s has %d groups, ExecuteGroupBy %d", event, v.sig, len(groups), len(rows))
		}
		for i, g := range groups {
			if fmt.Sprint(g.vals) != fmt.Sprint(rows[i].Key) || !bitEqual(g.answer, rows[i].Result.Answer) {
				t.Fatalf("after %s: view %s group %v answers %v, ExecuteGroupBy group %v %v",
					event, v.sig, g.vals, g.answer, rows[i].Key, rows[i].Result.Answer)
			}
		}
	}
}

func runViewsMatchExecutor(t *testing.T, shards int, seed int64) {
	r := newPropRig(t, shards, seed)
	withins := []float64{math.Inf(1), math.Inf(1), 2, 6}
	for _, fn := range propAggs {
		for _, where := range propPredicates() {
			for _, groupBy := range [][]string{nil, {"g"}} {
				q := query.NewQuery("vals", fn, "value")
				q.Where, q.GroupBy = where, groupBy
				q.Within = withins[r.rng.Intn(len(withins))]
				if _, err := r.e.Subscribe(q); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	r.check(t, "subscribe")
	kinds := make(map[string]int)
	for i := 0; i < 60; i++ {
		event := r.step(t)
		kinds[strings.Fields(event)[0]]++
		r.e.Settle()
		if err := r.e.Err(); err != nil {
			t.Fatalf("after %s: engine error %v", event, err)
		}
		r.check(t, event)
	}
	// Guard against a vacuous run: every kind of event happened and the
	// engine repaired at least one violated view itself.
	for _, k := range []string{"set", "tick", "insert", "delete", "query"} {
		if kinds[k] == 0 {
			t.Errorf("no %q event in the run: %v", k, kinds)
		}
	}
	if m := r.e.Metrics(); m.RefreshBatches == 0 {
		t.Errorf("the engine paid no repair: %+v", m)
	}
}
