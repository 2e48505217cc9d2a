package trapp

// Differential property test for the sharded storage layer: a randomized
// workload of inserts, deletes, source pushes, clock advances, refreshes
// and mixed queries is replayed, operation for operation, against two
// Systems that differ only in their cache's shard count — one shard (the
// flat reference layout: one set of row arrays, one lock) versus the
// default sharded layout. Every bounded answer must be bit-identical
// between the two, and every CHOOSE_REFRESH plan must select the
// identical key set — the guarantee that sharding changes only the
// locking granularity, never the semantics.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"trapp/internal/aggregate"
	"trapp/internal/boundfn"
	"trapp/internal/cache"
	"trapp/internal/predicate"
	"trapp/internal/query"
	"trapp/internal/refresh"
	"trapp/internal/relation"
	"trapp/internal/source"
	"trapp/internal/workload"
)

// diffSystem is one side of the differential pair.
type diffSystem struct {
	sys  *System
	c    *cache.Cache
	srcs []*source.Source
}

const (
	diffSources = 4
	diffObjects = 24 // initial objects per source
)

func newDiffSystem(t *testing.T, nshards int) *diffSystem {
	t.Helper()
	sys := NewSystem(refresh.Options{})
	schema := relation.NewSchema(
		relation.Column{Name: "grp", Kind: relation.Exact},
		relation.Column{Name: "value", Kind: relation.Bounded},
	)
	c, err := sys.AddCacheSharded("monitor", schema, nshards)
	if err != nil {
		t.Fatal(err)
	}
	d := &diffSystem{sys: sys, c: c}
	for si := 0; si < diffSources; si++ {
		src, err := sys.AddSource(fmt.Sprintf("s%d", si), nil)
		if err != nil {
			t.Fatal(err)
		}
		d.srcs = append(d.srcs, src)
	}
	for si := 0; si < diffSources; si++ {
		for oi := 0; oi < diffObjects; oi++ {
			key := int64(si*1000 + oi)
			d.addObject(t, key, 100+float64(key%97))
		}
	}
	if err := sys.Mount("vals", c); err != nil {
		t.Fatal(err)
	}
	return d
}

// addObject registers and subscribes one object (deterministic cost and
// group derived from the key).
func (d *diffSystem) addObject(t *testing.T, key int64, value float64) {
	t.Helper()
	src := d.srcs[int(key/1000)%diffSources]
	cost := float64(1 + key%5)
	if err := src.AddObject(key, []float64{value}, cost, boundfn.NewAdaptiveWidth(4)); err != nil {
		t.Fatal(err)
	}
	if err := d.c.Subscribe(src, key, []float64{float64(key % 3)}); err != nil {
		t.Fatal(err)
	}
}

// diffQuery builds the i'th random query; the rng drives both systems
// identically.
func diffQuery(rng *rand.Rand) query.Query {
	aggs := []aggregate.Func{aggregate.Sum, aggregate.Avg, aggregate.Min, aggregate.Max, aggregate.Count}
	q := query.NewQuery("vals", aggs[rng.Intn(len(aggs))], "value")
	switch rng.Intn(4) {
	case 0: // imprecise: keep +Inf
	case 1:
		q.Within = 0 // precise
	default:
		q.Within = []float64{5, 25, 100, 400}[rng.Intn(4)]
	}
	if rng.Intn(3) == 0 {
		q.Where = predicate.NewCmp(predicate.Column(1, "value"), predicate.Gt, predicate.Const(100+rng.Float64()*60))
	}
	if rng.Intn(5) == 0 {
		q.GroupBy = []string{"grp"}
	}
	return q
}

func TestDifferentialShardedVsFlat(t *testing.T) {
	runDifferentialShardedVsFlat(t, 20260730, func(rng *rand.Rand, n int) int {
		return rng.Intn(n)
	})
}

// TestDifferentialShardedVsFlatZipf is the same differential replay with
// keys sampled Zipfian instead of uniformly — the scale workload's skew,
// so pushes, deletes, and Oracle refreshes hammer a few hot keys (and
// therefore a few hot shards) while queries still cover the whole table.
// Divergence that only shows when one shard's state churns far faster
// than the others (dirty-key bookkeeping, plan ties broken by refresh
// recency) is invisible to the uniform test.
func TestDifferentialShardedVsFlatZipf(t *testing.T) {
	zipfs := map[int]*workload.Zipf{} // per live-set size, built on demand
	runDifferentialShardedVsFlat(t, 20260808, func(rng *rand.Rand, n int) int {
		z, ok := zipfs[n]
		if !ok {
			z = workload.MustZipf(n, 1.3)
			zipfs[n] = z
		}
		return z.Rank(rng)
	})
}

// runDifferentialShardedVsFlat replays the randomized workload against
// the flat and sharded layouts; pick selects the index of the key an
// operation targets from the live set (uniform or skewed).
func runDifferentialShardedVsFlat(t *testing.T, seed int64, pick func(*rand.Rand, int) int) {
	ref := newDiffSystem(t, 1)                     // flat reference
	sh := newDiffSystem(t, relation.DefaultShards) // sharded store
	if got := sh.c.Store().NumShards(); got <= 1 {
		t.Fatalf("sharded side has %d shards", got)
	}
	// The reference side runs every query cold while the sharded side
	// keeps its shape-keyed plan cache: every comparison below is then
	// also a cached-vs-cold bit-identity check across the full mutation
	// mix (pushes, ticks, deletes, inserts, refreshes).
	ref.sys.proc.SetPlanCache(false)
	rng := rand.New(rand.NewSource(seed))
	nextKey := int64(9000)
	live := sh.c.Keys()

	checkQuery := func(step int, q query.Query) {
		t.Helper()
		if len(q.GroupBy) > 0 {
			// GROUP BY: every group row must match key-for-key (the
			// processor is reached directly; System has no group-by
			// entry point beyond subscriptions).
			ref.c.Sync()
			sh.c.Sync()
			refRows, err1 := ref.sys.proc.ExecuteGroupBy(q)
			shRows, err2 := sh.sys.proc.ExecuteGroupBy(q)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("step %d %v: errors differ: %v vs %v", step, q, err1, err2)
			}
			if err1 != nil {
				return
			}
			if len(refRows) != len(shRows) {
				t.Fatalf("step %d %v: %d groups vs %d", step, q, len(refRows), len(shRows))
			}
			for i := range refRows {
				if fmt.Sprint(refRows[i].Key) != fmt.Sprint(shRows[i].Key) {
					t.Fatalf("step %d %v: group order differs: %v vs %v", step, q, refRows[i].Key, shRows[i].Key)
				}
				if !sameAnswer(refRows[i].Result, shRows[i].Result) {
					t.Fatalf("step %d %v group %v: answers differ:\nflat    %+v\nsharded %+v",
						step, q, refRows[i].Key, refRows[i].Result, shRows[i].Result)
				}
			}
			return
		}
		// Plan key sets must be identical for constrained scalar queries:
		// compute CHOOSE_REFRESH over both stores' current state.
		if !math.IsInf(q.Within, 1) {
			col := ref.c.Schema().MustLookup(q.Column)
			ref.c.Sync()
			sh.c.Sync()
			refPlan, err1 := refresh.ChooseStore(ref.c.Store(), col, q.Agg, q.Where, q.Within, refresh.Options{})
			shPlan, err2 := refresh.ChooseStore(sh.c.Store(), col, q.Agg, q.Where, q.Within, refresh.Options{})
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("step %d %v: plan errors differ: %v vs %v", step, q, err1, err2)
			}
			if err1 == nil {
				if len(refPlan.Keys) != len(shPlan.Keys) {
					t.Fatalf("step %d %v: plan sizes differ: %v vs %v", step, q, refPlan.Keys, shPlan.Keys)
				}
				for i := range refPlan.Keys {
					if refPlan.Keys[i] != shPlan.Keys[i] {
						t.Fatalf("step %d %v: plan key sets differ:\nflat    %v\nsharded %v",
							step, q, refPlan.Keys, shPlan.Keys)
					}
				}
			}
		}
		refRes, err1 := ref.sys.ExecuteCtx(context.Background(), q)
		shRes, err2 := sh.sys.ExecuteCtx(context.Background(), q)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("step %d %v: errors differ: %v vs %v", step, q, err1, err2)
		}
		if err1 != nil {
			return
		}
		if !sameAnswer(refRes, shRes) {
			t.Fatalf("step %d %v: results differ:\nflat    %+v\nsharded %+v", step, q, refRes, shRes)
		}
	}

	// checkBudget runs the cost-bounded dual on both layouts: the chosen
	// budget plans, the spend, the answers, and the typed-error outcome
	// must all be bit-identical. Both executions mutate their systems
	// identically (the paid refreshes install the same exact values).
	checkBudget := func(step int, q query.Query, budget float64) {
		t.Helper()
		if len(q.GroupBy) > 0 {
			return
		}
		col := ref.c.Schema().MustLookup(q.Column)
		ref.c.Sync()
		sh.c.Sync()
		refIn, refLen := aggregate.CollectStore(ref.c.Store(), col, q.Where, true, 1)
		shIn, shLen := aggregate.CollectStore(sh.c.Store(), col, q.Where, true, 1)
		refPlan, err1 := refresh.ChooseBudget(refIn, q.Agg, predicate.IsTrivial(q.Where), budget, refLen, refresh.Options{})
		shPlan, err2 := refresh.ChooseBudget(shIn, q.Agg, predicate.IsTrivial(q.Where), budget, shLen, refresh.Options{})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("step %d %v budget %g: plan errors differ: %v vs %v", step, q, budget, err1, err2)
		}
		if err1 == nil {
			if fmt.Sprint(refPlan.Keys) != fmt.Sprint(shPlan.Keys) {
				t.Fatalf("step %d %v budget %g: budget plans differ:\nflat    %v\nsharded %v",
					step, q, budget, refPlan.Keys, shPlan.Keys)
			}
			if refPlan.Cost > budget {
				t.Fatalf("step %d %v: budget plan cost %g over budget %g", step, q, refPlan.Cost, budget)
			}
		}
		refRes, err1 := ref.sys.ExecuteCtx(context.Background(), q, query.WithCostBudget(budget))
		shRes, err2 := sh.sys.ExecuteCtx(context.Background(), q, query.WithCostBudget(budget))
		if errors.Is(err1, query.ErrBudgetExhausted{}) != errors.Is(err2, query.ErrBudgetExhausted{}) ||
			(err1 == nil) != (err2 == nil) {
			t.Fatalf("step %d %v budget %g: outcomes differ: %v vs %v", step, q, budget, err1, err2)
		}
		if err1 != nil && !errors.Is(err1, query.ErrBudgetExhausted{}) {
			return
		}
		if !sameAnswer(refRes, shRes) {
			t.Fatalf("step %d %v budget %g: budget results differ:\nflat    %+v\nsharded %+v",
				step, q, budget, refRes, shRes)
		}
		if refRes.RefreshCost > budget+1e-9 {
			t.Fatalf("step %d %v: paid %g over budget %g", step, q, refRes.RefreshCost, budget)
		}
	}

	// checkBatch executes a small mixed batch on both layouts and
	// compares every per-query result bit-for-bit.
	checkBatch := func(step int, qs []query.Query) {
		t.Helper()
		refRes, err1 := ref.sys.ExecuteBatch(context.Background(), qs)
		shRes, err2 := sh.sys.ExecuteBatch(context.Background(), qs)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("step %d batch: errors differ: %v vs %v", step, err1, err2)
		}
		if err1 != nil {
			return
		}
		for i := range refRes {
			if !sameAnswer(refRes[i], shRes[i]) {
				t.Fatalf("step %d batch query %d (%v): results differ:\nflat    %+v\nsharded %+v",
					step, i, qs[i], refRes[i], shRes[i])
			}
		}
	}

	const steps = 1500
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 3: // source push (may or may not escape the bound)
			if len(live) == 0 {
				continue
			}
			key := live[pick(rng, len(live))]
			v := 100 + float64(key%97) + (rng.Float64()*2-1)*12
			si := int(key/1000) % diffSources
			if err := ref.srcs[si].SetValue(key, []float64{v}); err != nil {
				t.Fatal(err)
			}
			if err := sh.srcs[si].SetValue(key, []float64{v}); err != nil {
				t.Fatal(err)
			}
		case op == 3: // clock tick (bounds widen on both sides)
			ref.sys.Clock.Advance(1)
			sh.sys.Clock.Advance(1)
		case op == 4 && len(live) > 40: // propagated delete
			i := pick(rng, len(live))
			key := live[i]
			if !ref.c.Drop(key) || !sh.c.Drop(key) {
				t.Fatalf("step %d: drop %d failed", step, key)
			}
			live = append(live[:i], live[i+1:]...)
		case op == 5 && rng.Intn(2) == 0: // insert a fresh object
			nextKey++
			v := 100 + float64(nextKey%97)
			ref.addObject(t, nextKey, v)
			sh.addObject(t, nextKey, v)
			live = append(live, nextKey)
		case op == 6: // direct single-object refresh (Oracle path)
			if len(live) == 0 {
				continue
			}
			key := live[pick(rng, len(live))]
			_, ok1 := ref.c.Master(key)
			_, ok2 := sh.c.Master(key)
			if ok1 != ok2 {
				t.Fatalf("step %d: Master(%d) diverged: %v vs %v", step, key, ok1, ok2)
			}
		case op == 7 && rng.Intn(2) == 0: // cost-bounded dual
			q := diffQuery(rng)
			q.GroupBy = nil
			checkBudget(step, q, []float64{0, 2, 7, 20, 60}[rng.Intn(5)])
		case op == 8 && rng.Intn(4) == 0: // cross-query batch
			n := 2 + rng.Intn(4)
			qs := make([]query.Query, 0, n)
			for len(qs) < n {
				q := diffQuery(rng)
				q.GroupBy = nil
				qs = append(qs, q)
			}
			checkBatch(step, qs)
		default: // mixed query
			checkQuery(step, diffQuery(rng))
		}
		if step%250 == 249 {
			// Cached key sets stay identical (Keys is documented sorted).
			rk, sk := ref.c.Keys(), sh.c.Keys()
			if len(rk) != len(sk) {
				t.Fatalf("step %d: key sets differ in size: %d vs %d", step, len(rk), len(sk))
			}
			for i := range rk {
				if rk[i] != sk[i] {
					t.Fatalf("step %d: sorted key sets differ at %d: %d vs %d", step, i, rk[i], sk[i])
				}
			}
		}
	}
	// The cached-vs-cold property is vacuous if the warm side never
	// actually served from its cache.
	if m := sh.sys.Metrics(); m.PlanHits.Load() == 0 {
		t.Fatal("sharded side recorded no plan-cache hits; cached-vs-cold check exercised nothing")
	}
	if m := ref.sys.Metrics(); m.PlanHits.Load() != 0 {
		t.Fatalf("reference side served %d plan-cache hits despite SetPlanCache(false)", m.PlanHits.Load())
	}
}

// sameAnswer compares the observable parts of two results bit-for-bit:
// the final and initial bounded answers, the refresh accounting, and the
// constraint outcome. ChooseTime is wall-clock and excluded.
func sameAnswer(a, b query.Result) bool {
	eq := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	if a.Answer.IsEmpty() != b.Answer.IsEmpty() {
		return false
	}
	if !a.Answer.IsEmpty() && (!eq(a.Answer.Lo, b.Answer.Lo) || !eq(a.Answer.Hi, b.Answer.Hi)) {
		return false
	}
	if a.Initial.IsEmpty() != b.Initial.IsEmpty() {
		return false
	}
	if !a.Initial.IsEmpty() && (!eq(a.Initial.Lo, b.Initial.Lo) || !eq(a.Initial.Hi, b.Initial.Hi)) {
		return false
	}
	return a.Refreshed == b.Refreshed && a.RefreshCost == b.RefreshCost && a.Met == b.Met
}
