package query

// Property-based metamorphic tests over randomized tables and queries,
// run against every physical store layout (one-shard stores filled in
// row order and in reverse, and sharded stores). Two properties anchor the paper's contract:
//
//   - Soundness: every returned interval contains the exact answer
//     computed from the master values — at every precision constraint,
//     after any mix of refreshes.
//   - Monotonicity (the precision-performance tradeoff, Figure 1(b)):
//     loosening the precision constraint never increases the plan's
//     refresh cost. Each constraint runs against a freshly built system
//     so costs are comparable (refreshes mutate cached state).
//
// Layouts are also cross-checked: identical workloads must produce
// bit-identical answers and refresh accounting on every layout.

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"trapp/internal/aggregate"
	"trapp/internal/interval"
	"trapp/internal/predicate"
	"trapp/internal/refresh"
	"trapp/internal/relation"
	"trapp/internal/workload"
)

// metaSchema: one exact dimension g, two bounded measurements v, w.
func metaSchema() *relation.Schema {
	return relation.NewSchema(
		relation.Column{Name: "g", Kind: relation.Exact},
		relation.Column{Name: "v", Kind: relation.Bounded},
		relation.Column{Name: "w", Kind: relation.Bounded},
	)
}

// metaRow is one generated tuple with its hidden master values.
type metaRow struct {
	key    int64
	g      float64
	mv, mw float64 // master values of v and w
	bv, bw interval.Interval
	cost   float64
}

// genRows generates a random table whose cached bounds are sound
// (every bound contains its master value) with a mix of tight, loose
// and point bounds and non-uniform refresh costs.
func genRows(rng *rand.Rand) []metaRow {
	n := rng.Intn(40)
	rows := make([]metaRow, 0, n)
	for i := 0; i < n; i++ {
		r := metaRow{
			key:  int64(i + 1),
			g:    float64(rng.Intn(3)),
			mv:   rng.Float64()*100 - 50,
			mw:   rng.Float64()*100 - 50,
			cost: float64(1 + rng.Intn(10)),
		}
		width := func() float64 {
			switch rng.Intn(4) {
			case 0:
				return 0 // already-exact cache entry
			case 1:
				return rng.Float64() * 2
			default:
				return rng.Float64() * 15
			}
		}
		span := func(m float64) interval.Interval {
			w := width()
			// The master sits anywhere inside the bound, not centered.
			lo := m - rng.Float64()*w
			return interval.New(lo, lo+w)
		}
		r.bv, r.bw = span(r.mv), span(r.mw)
		rows = append(rows, r)
	}
	return rows
}

// layouts are the physical store arrangements under test; build
// registers the generated rows under the given name with a master-value
// oracle.
var layouts = []struct {
	name  string
	build func(rows []metaRow, opts refresh.Options) *Processor
}{
	// "flat" is the single-lock layout filled in reverse row order.
	{"flat", func(rows []metaRow, opts refresh.Options) *Processor {
		rev := slices.Clone(rows)
		slices.Reverse(rev)
		return storeLayout(1)(rev, opts)
	}},
	{"store-1", storeLayout(1)},
	{"store-4", storeLayout(4)},
	{"store-default", storeLayout(0)},
}

// storeLayout builds a sharded-store registration with nshards shards.
func storeLayout(nshards int) func([]metaRow, refresh.Options) *Processor {
	return func(rows []metaRow, opts refresh.Options) *Processor {
		p := NewProcessor(opts)
		st := relation.NewStore(metaSchema(), nshards)
		for _, r := range rows {
			st.MustInsert(relation.Tuple{
				Key:    r.key,
				Bounds: []interval.Interval{interval.Point(r.g), r.bv, r.bw},
				Cost:   r.cost,
			})
		}
		p.RegisterStore("m", st, oracleOf(rows))
		return p
	}
}

// oracleOf exposes the master values of the bounded columns.
func oracleOf(rows []metaRow) workload.MapOracle {
	m := make(workload.MapOracle, len(rows))
	for _, r := range rows {
		m[r.key] = []float64{r.mv, r.mw}
	}
	return m
}

// genQuery builds a random query over the generated schema: any
// aggregate, with predicates over exact and bounded columns (bounded
// predicates exercise the T? membership machinery).
func genQuery(rng *rand.Rand) Query {
	aggs := []aggregate.Func{aggregate.Min, aggregate.Max, aggregate.Sum, aggregate.Count, aggregate.Avg}
	q := NewQuery("m", aggs[rng.Intn(len(aggs))], "v")
	col := func(i int, name string) predicate.Operand { return predicate.Column(i, name) }
	c := func() predicate.Operand { return predicate.Const(rng.Float64()*80 - 40) }
	switch rng.Intn(6) {
	case 0: // no predicate
	case 1:
		q.Where = predicate.NewCmp(col(0, "g"), predicate.Eq, predicate.Const(float64(rng.Intn(3))))
	case 2:
		q.Where = predicate.NewCmp(col(1, "v"), predicate.Lt, c())
	case 3:
		q.Where = predicate.NewCmp(col(2, "w"), predicate.Ge, c())
	case 4:
		q.Where = predicate.NewAnd(
			predicate.NewCmp(col(1, "v"), predicate.Gt, c()),
			predicate.NewCmp(col(2, "w"), predicate.Lt, c()))
	default:
		q.Where = predicate.NewNot(predicate.NewCmp(col(1, "v"), predicate.Le, c()))
	}
	return q
}

// exactAnswer computes the ground truth from master values; defined is
// false when the selection is empty and the aggregate undefined over it.
func exactAnswer(rows []metaRow, q Query) (float64, bool) {
	var sel []float64
	for _, r := range rows {
		vals := []float64{r.g, r.mv, r.mw}
		if q.Where == nil || q.Where.EvalExact(vals) {
			sel = append(sel, r.mv)
		}
	}
	switch q.Agg {
	case aggregate.Count:
		return float64(len(sel)), true
	case aggregate.Sum:
		var s float64
		for _, v := range sel {
			s += v
		}
		return s, true
	}
	if len(sel) == 0 {
		return 0, false
	}
	switch q.Agg {
	case aggregate.Min:
		m := math.Inf(1)
		for _, v := range sel {
			m = math.Min(m, v)
		}
		return m, true
	case aggregate.Max:
		m := math.Inf(-1)
		for _, v := range sel {
			m = math.Max(m, v)
		}
		return m, true
	default: // Avg
		var s float64
		for _, v := range sel {
			s += v
		}
		return s / float64(len(sel)), true
	}
}

const metaEps = 1e-7

func TestMetamorphicLoosenNeverCostsMore(t *testing.T) {
	const trials = 60
	opts := refresh.Options{Solver: refresh.SolverGreedyDensity}
	for _, layout := range layouts {
		t.Run(layout.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20000615 + int64(len(layout.name))))
			for trial := 0; trial < trials; trial++ {
				rows := genRows(rng)
				q := genQuery(rng)
				exact, defined := exactAnswer(rows, q)

				// The unconstrained width anchors the constraint ladder.
				base := layout.build(rows, opts)
				res0, err := base.ExecuteCtx(context.Background(), q)
				if err != nil {
					t.Fatalf("trial %d: unconstrained: %v", trial, err)
				}
				w0 := res0.Answer.Width()
				if math.IsInf(w0, 1) || math.IsNaN(w0) {
					continue // undefined-aggregate corner (empty possible set)
				}

				// Tightening ladder: R from +Inf down to 0. Loosening R
				// never increases cost ⇒ walking the ladder downward the
				// cost must be non-decreasing.
				ladder := []float64{math.Inf(1), w0 * 0.75, w0 * 0.5, w0 * 0.25, 0}
				prevCost := -1.0
				for li, r := range ladder {
					qq := q
					qq.Within = r
					p := layout.build(rows, opts)
					res, err := p.ExecuteCtx(context.Background(), qq)
					if err != nil {
						t.Fatalf("trial %d R=%g: %v", trial, r, err)
					}
					if !res.Met {
						t.Fatalf("trial %d R=%g: constraint unmet (answer %v)", trial, r, res.Answer)
					}
					if !math.IsInf(r, 1) && res.Answer.Width() > r+metaEps {
						t.Fatalf("trial %d R=%g: width %g exceeds constraint", trial, r, res.Answer.Width())
					}
					if defined && !res.Answer.Expand(metaEps).Contains(exact) {
						t.Fatalf("trial %d R=%g (%s): answer %v does not contain exact %g",
							trial, r, qq, res.Answer, exact)
					}
					if res.RefreshCost < prevCost-metaEps {
						t.Fatalf("trial %d: tightening R to %g DECREASED cost %g → %g (ladder step %d) — loosening would increase it",
							trial, r, prevCost, res.RefreshCost, li)
					}
					prevCost = math.Max(prevCost, res.RefreshCost)
				}
			}
		})
	}
}

func TestMetamorphicLayoutsAgreeBitForBit(t *testing.T) {
	const trials = 40
	opts := refresh.Options{Solver: refresh.SolverGreedyDensity}
	rng := rand.New(rand.NewSource(424242))
	for trial := 0; trial < trials; trial++ {
		rows := genRows(rng)
		q := genQuery(rng)
		// Tight enough to force refresh planning on most trials.
		base := layouts[0].build(rows, opts)
		res0, err := base.ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if w := res0.Answer.Width(); !math.IsInf(w, 1) && !math.IsNaN(w) {
			q.Within = w * 0.3
		}

		type outcome struct {
			res Result
			err error
		}
		var ref outcome
		for i, layout := range layouts {
			p := layout.build(rows, opts)
			res, err := p.ExecuteCtx(context.Background(), q)
			res.ChooseTime = 0
			got := outcome{res, err}
			if i == 0 {
				ref = got
				continue
			}
			if (got.err == nil) != (ref.err == nil) {
				t.Fatalf("trial %d (%s): layout %s error %v, flat error %v", trial, q, layout.name, got.err, ref.err)
			}
			if got.res != ref.res {
				t.Fatalf("trial %d (%s): layout %s result %+v != flat %+v", trial, q, layout.name, got.res, ref.res)
			}
		}
	}
}

// TestMetamorphicCachedVsColdLockstep replays identical query sequences
// against two identically-built processors — one with the shape-keyed
// plan cache enabled, one with it disabled — and demands bit-identical
// results at every step. Repeats of the same query hit the cache on the
// warm side (and only there), while refreshes mutate both systems in
// lockstep, so the comparison covers hit-after-prime, invalidation
// after refresh installs, and the cold baseline all at once.
func TestMetamorphicCachedVsColdLockstep(t *testing.T) {
	const trials = 40
	opts := refresh.Options{Solver: refresh.SolverGreedyDensity}
	for _, layout := range layouts {
		t.Run(layout.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(80808 + int64(len(layout.name))))
			var warmHits int64
			for trial := 0; trial < trials; trial++ {
				rows := genRows(rng)
				warm := layout.build(rows, opts)
				cold := layout.build(rows, opts)
				cold.SetPlanCache(false)

				q := genQuery(rng)
				base, err := warm.ExecuteCtx(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if w := base.Answer.Width(); !math.IsInf(w, 1) && !math.IsNaN(w) {
					q.Within = w * 0.4 // forces refresh planning on most trials
				}
				// Each repeat re-primes or hits the warm cache; refreshes
				// installed by constrained runs invalidate it in between.
				for rep := 0; rep < 3; rep++ {
					wres, werr := warm.ExecuteCtx(context.Background(), q)
					cres, cerr := cold.ExecuteCtx(context.Background(), q)
					if (werr == nil) != (cerr == nil) {
						t.Fatalf("trial %d rep %d (%s): errors differ: warm %v, cold %v", trial, rep, q, werr, cerr)
					}
					if werr != nil {
						break
					}
					wres.ChooseTime, cres.ChooseTime = 0, 0
					if wres != cres {
						t.Fatalf("trial %d rep %d (%s):\nwarm %+v\ncold %+v", trial, rep, q, wres, cres)
					}
				}
				warmHits += warm.Metrics().PlanHits.Load()
				if cold.Metrics().PlanHits.Load() != 0 {
					t.Fatal("cold processor served from its plan cache")
				}
			}
			if warmHits == 0 {
				t.Fatal("warm side never hit the plan cache; lockstep exercised nothing")
			}
		})
	}
}
