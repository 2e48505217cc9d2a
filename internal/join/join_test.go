package join

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"trapp/internal/aggregate"
	"trapp/internal/interval"
	"trapp/internal/predicate"
	"trapp/internal/relation"
	"trapp/internal/workload"
)

// twoTables builds small left ("nodes": key, load) and right ("links":
// from, latency) tables with master values for join tests.
func twoTables() (left, right *relation.Store, lm, rm workload.MapOracle) {
	ls := relation.NewSchema(
		relation.Column{Name: "node", Kind: relation.Exact},
		relation.Column{Name: "load", Kind: relation.Bounded},
	)
	left = relation.NewStore(ls, 1)
	lm = workload.MapOracle{}
	leftRows := []struct {
		key  int64
		node float64
		load interval.Interval
		v    float64
		cost float64
	}{
		{1, 1, interval.New(10, 20), 14, 2},
		{2, 2, interval.New(30, 40), 33, 3},
		{3, 3, interval.New(5, 9), 7, 1},
	}
	for _, r := range leftRows {
		left.MustInsert(relation.Tuple{
			Key:    r.key,
			Bounds: []interval.Interval{interval.Point(r.node), r.load},
			Cost:   r.cost,
		})
		lm[r.key] = []float64{r.v}
	}

	rs := relation.NewSchema(
		relation.Column{Name: "from", Kind: relation.Exact},
		relation.Column{Name: "latency", Kind: relation.Bounded},
	)
	right = relation.NewStore(rs, 1)
	rm = workload.MapOracle{}
	rightRows := []struct {
		key  int64
		from float64
		lat  interval.Interval
		v    float64
		cost float64
	}{
		{11, 1, interval.New(2, 4), 3, 2},
		{12, 2, interval.New(5, 9), 6, 4},
		{13, 3, interval.New(1, 2), 1.5, 1},
	}
	for _, r := range rightRows {
		right.MustInsert(relation.Tuple{
			Key:    r.key,
			Bounds: []interval.Interval{interval.Point(r.from), r.lat},
			Cost:   r.cost,
		})
		rm[r.key] = []float64{r.v}
	}
	return left, right, lm, rm
}

// equiJoinPred builds node = from as the join predicate, optionally ANDed
// with load > k.
func equiJoinPred(left *relation.Store, loadGt float64) predicate.Expr {
	nodeCol := left.Schema().MustLookup("node")
	fromCol := ShiftColumn(left.Schema(), 0)
	join := predicate.NewCmp(
		predicate.Column(nodeCol, "node"), predicate.Eq, predicate.Column(fromCol, "from"))
	if math.IsInf(loadGt, -1) {
		return join
	}
	loadCol := left.Schema().MustLookup("load")
	return predicate.NewAnd(join, predicate.NewCmp(
		predicate.Column(loadCol, "load"), predicate.Gt, predicate.Const(loadGt)))
}

func TestEvalEquiJoinSum(t *testing.T) {
	left, right, _, _ := twoTables()
	spec := Spec{
		Agg:     aggregate.Sum,
		AggSide: Right, AggColumn: right.Schema().MustLookup("latency"),
		Pred:   equiJoinPred(left, math.Inf(-1)),
		Within: math.Inf(1),
	}
	got := Eval(left, right, spec)
	// All three pairs are T+ (exact equi-join on exact columns):
	// SUM latency = [2+5+1, 4+9+2] = [8, 15].
	if !got.Equal(interval.New(8, 15)) {
		t.Errorf("join SUM = %v, want [8, 15]", got)
	}
}

func TestEvalJoinWithBoundedSelection(t *testing.T) {
	left, right, _, _ := twoTables()
	// load > 12: node 1 [10,20] T?, node 2 [30,40] T+, node 3 [5,9] T−.
	spec := Spec{
		Agg:     aggregate.Sum,
		AggSide: Right, AggColumn: right.Schema().MustLookup("latency"),
		Pred:   equiJoinPred(left, 12),
		Within: math.Inf(1),
	}
	got := Eval(left, right, spec)
	// T+ pair (2,12): [5,9]. T? pair (1,11): latency [2,4], contributes
	// only H to the upper bound. → [5, 9+4] = [5, 13].
	if !got.Equal(interval.New(5, 13)) {
		t.Errorf("join SUM with selection = %v, want [5, 13]", got)
	}
}

func TestEvalJoinCount(t *testing.T) {
	left, right, _, _ := twoTables()
	spec := Spec{
		Agg:     aggregate.Count,
		AggSide: Right, AggColumn: right.Schema().MustLookup("latency"),
		Pred:   equiJoinPred(left, 12),
		Within: math.Inf(1),
	}
	got := Eval(left, right, spec)
	if !got.Equal(interval.New(1, 2)) {
		t.Errorf("join COUNT = %v, want [1, 2]", got)
	}
}

func TestExecuteBatchGreedyMeetsConstraint(t *testing.T) {
	left, right, lm, rm := twoTables()
	spec := Spec{
		Agg:     aggregate.Sum,
		AggSide: Right, AggColumn: right.Schema().MustLookup("latency"),
		Pred:   equiJoinPred(left, 12),
		Within: 1,
	}
	res, err := Execute(left, right, spec, lm, rm)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("constraint not met: %v (width %g)", res.Answer, res.Answer.Width())
	}
	if res.Refreshed == 0 {
		t.Error("expected refreshes")
	}
	// True answer: loads 14, 33, 7 → nodes 1 and 2 pass load > 12;
	// SUM latency = 3 + 6 = 9.
	if !res.Answer.Contains(9) {
		t.Errorf("answer %v does not contain true value 9", res.Answer)
	}
}

func TestExecuteIterativeMeetsConstraint(t *testing.T) {
	left, right, lm, rm := twoTables()
	spec := Spec{
		Agg:     aggregate.Sum,
		AggSide: Right, AggColumn: right.Schema().MustLookup("latency"),
		Pred:   equiJoinPred(left, 12),
		Within: 1,
	}
	res, err := ExecuteIterative(left, right, spec, lm, rm)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("constraint not met: %v", res.Answer)
	}
	if !res.Answer.Contains(9) {
		t.Errorf("answer %v does not contain true value 9", res.Answer)
	}
}

func TestExecuteAlreadyPrecise(t *testing.T) {
	left, right, lm, rm := twoTables()
	spec := Spec{
		Agg:     aggregate.Sum,
		AggSide: Right, AggColumn: right.Schema().MustLookup("latency"),
		Pred:   equiJoinPred(left, math.Inf(-1)),
		Within: 100,
	}
	res, err := Execute(left, right, spec, lm, rm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refreshed != 0 {
		t.Errorf("refreshed %d with satisfied constraint", res.Refreshed)
	}
}

func TestBatchGreedyRejectsBadR(t *testing.T) {
	left, right, _, _ := twoTables()
	spec := Spec{
		Agg:     aggregate.Sum,
		AggSide: Right, AggColumn: 1,
		Pred:   equiJoinPred(left, 12),
		Within: -1,
	}
	if _, err := BatchGreedy(left, right, spec); err == nil {
		t.Error("negative R accepted")
	}
}

func TestSideString(t *testing.T) {
	if Left.String() != "left" || Right.String() != "right" {
		t.Error("Side strings")
	}
}

// TestQuickJoinAnswerContainsExact: the bounded join answer always
// contains the answer computed from master values.
func TestQuickJoinAnswerContainsExact(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		left, right, lm, rm := randJoinTables(r)
		spec := Spec{
			Agg:     []aggregate.Func{aggregate.Min, aggregate.Max, aggregate.Sum, aggregate.Count, aggregate.Avg}[r.Intn(5)],
			AggSide: Right, AggColumn: 1,
			Pred:   randJoinPred(r, left),
			Within: math.Inf(1),
		}
		bounded := Eval(left, right, spec)
		exact, ok := exactJoin(left, right, spec, lm, rm)
		if !ok {
			return true
		}
		if bounded.IsEmpty() {
			return false
		}
		return bounded.Expand(1e-9).Contains(exact)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickJoinExecuteMeetsConstraint: both planners meet finite
// constraints on random instances.
func TestQuickJoinExecuteMeetsConstraint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		left, right, lm, rm := randJoinTables(r)
		spec := Spec{
			Agg:     aggregate.Sum,
			AggSide: Right, AggColumn: 1,
			Pred:   randJoinPred(r, left),
			Within: r.Float64() * 10,
		}
		l2, r2 := clone(left), clone(right)
		res, err := Execute(left, right, spec, lm, rm)
		if err != nil || !res.Met {
			t.Logf("seed %d batch: err=%v met=%v answer=%v", seed, err, res.Met, res.Answer)
			return false
		}
		res2, err := ExecuteIterative(l2, r2, spec, lm, rm)
		if err != nil || !res2.Met {
			t.Logf("seed %d iterative: err=%v met=%v", seed, err, res2.Met)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// clone copies the store's tuples into a new one-shard store.
func clone(st *relation.Store) *relation.Store {
	c := relation.NewStore(st.Schema(), 1)
	for _, tu := range tuples(st) {
		c.MustInsert(tu)
	}
	return c
}

// randJoinTables builds random compatible tables with 2-5 rows each.
func randJoinTables(r *rand.Rand) (left, right *relation.Store, lm, rm workload.MapOracle) {
	ls := relation.NewSchema(
		relation.Column{Name: "node", Kind: relation.Exact},
		relation.Column{Name: "load", Kind: relation.Bounded},
	)
	rs := relation.NewSchema(
		relation.Column{Name: "from", Kind: relation.Exact},
		relation.Column{Name: "latency", Kind: relation.Bounded},
	)
	left, right = relation.NewStore(ls, 1), relation.NewStore(rs, 1)
	lm, rm = workload.MapOracle{}, workload.MapOracle{}
	nl, nr := 2+r.Intn(4), 2+r.Intn(4)
	for i := 0; i < nl; i++ {
		lo := r.Float64() * 30
		w := r.Float64() * 10
		left.MustInsert(relation.Tuple{
			Key:    int64(i + 1),
			Bounds: []interval.Interval{interval.Point(float64(i % 3)), interval.New(lo, lo+w)},
			Cost:   1 + r.Float64()*5,
		})
		lm[int64(i+1)] = []float64{lo + r.Float64()*w}
	}
	for i := 0; i < nr; i++ {
		lo := r.Float64() * 10
		w := r.Float64() * 5
		right.MustInsert(relation.Tuple{
			Key:    int64(100 + i),
			Bounds: []interval.Interval{interval.Point(float64(i % 3)), interval.New(lo, lo+w)},
			Cost:   1 + r.Float64()*5,
		})
		rm[int64(100+i)] = []float64{lo + r.Float64()*w}
	}
	return left, right, lm, rm
}

// randJoinPred returns node = from, possibly with a bounded selection.
func randJoinPred(r *rand.Rand, left *relation.Store) predicate.Expr {
	join := predicate.NewCmp(
		predicate.Column(0, "node"), predicate.Eq,
		predicate.Column(ShiftColumn(left.Schema(), 0), "from"))
	if r.Intn(2) == 0 {
		return join
	}
	return predicate.NewAnd(join, predicate.NewCmp(
		predicate.Column(1, "load"), predicate.Gt, predicate.Const(r.Float64()*30)))
}

// exactJoin computes the ground-truth join aggregate from master values.
func exactJoin(left, right *relation.Store, spec Spec, lm, rm workload.MapOracle) (float64, bool) {
	nl := left.Schema().NumColumns()
	nr := right.Schema().NumColumns()
	vals := make([]float64, nl+nr)
	var agg []float64
	for _, lt := range tuples(left) {
		lv, _ := lm.Master(lt.Key)
		vals[0] = lt.Bounds[0].Lo
		vals[1] = lv[0]
		for _, rt := range tuples(right) {
			rv, _ := rm.Master(rt.Key)
			vals[nl] = rt.Bounds[0].Lo
			vals[nl+1] = rv[0]
			if !spec.Pred.EvalExact(vals) {
				continue
			}
			v := vals[1]
			if spec.AggSide == Right {
				v = vals[nl+spec.AggColumn]
			}
			agg = append(agg, v)
		}
	}
	switch spec.Agg {
	case aggregate.Count:
		return float64(len(agg)), true
	case aggregate.Sum:
		s := 0.0
		for _, v := range agg {
			s += v
		}
		return s, true
	}
	if len(agg) == 0 {
		return 0, false
	}
	switch spec.Agg {
	case aggregate.Min:
		m := agg[0]
		for _, v := range agg {
			m = math.Min(m, v)
		}
		return m, true
	case aggregate.Max:
		m := agg[0]
		for _, v := range agg {
			m = math.Max(m, v)
		}
		return m, true
	default: // Avg
		s := 0.0
		for _, v := range agg {
			s += v
		}
		return s / float64(len(agg)), true
	}
}
