package query

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"trapp/internal/aggregate"
	"trapp/internal/interval"
	"trapp/internal/refresh"
	"trapp/internal/relation"
	"trapp/internal/workload"
)

func TestExecuteGroupByPerSourceNode(t *testing.T) {
	// Group the Figure 2 links by their "from" node: nodes 1..5 own
	// {1}, {2, 4}, {3}, {5}, {6} respectively.
	p := newFig2Processor()
	q := NewQuery("links", aggregate.Sum, workload.ColLatency)
	q.Within = 1
	q.GroupBy = []string{"from"}
	rows, err := p.ExecuteGroupBy(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("groups = %d, want 5", len(rows))
	}
	// Every group's answer satisfies the constraint and contains the true
	// per-group SUM.
	trueSums := map[float64]float64{1: 3, 2: 7 + 9, 3: 13, 4: 11, 5: 5}
	for _, row := range rows {
		if !row.Result.Met {
			t.Errorf("group %v not met", row.Key)
		}
		if row.Result.Answer.Width() > 1+1e-9 {
			t.Errorf("group %v width %g", row.Key, row.Result.Answer.Width())
		}
		want := trueSums[row.Key[0]]
		if !row.Result.Answer.Expand(1e-9).Contains(want) {
			t.Errorf("group %v answer %v, want to contain %g", row.Key, row.Result.Answer, want)
		}
	}
	// Ordered by key.
	for i := 1; i < len(rows); i++ {
		if rows[i].Key[0] <= rows[i-1].Key[0] {
			t.Error("groups not ordered")
		}
	}
}

func TestExecuteGroupByWithWhere(t *testing.T) {
	p := newFig2Processor()
	q := NewQuery("links", aggregate.Count, workload.ColLatency)
	q.Within = 0
	q.Where = highTraffic(p)
	q.GroupBy = []string{"from"}
	rows, err := p.ExecuteGroupBy(q)
	if err != nil {
		t.Fatal(err)
	}
	// True high-traffic links: {2, 3, 4, 6} owned by from-nodes 2,3,2,5.
	counts := map[float64]float64{}
	for _, row := range rows {
		counts[row.Key[0]] = row.Result.Answer.Lo
		if row.Result.Answer.Width() != 0 {
			t.Errorf("group %v COUNT not exact: %v", row.Key, row.Result.Answer)
		}
	}
	want := map[float64]float64{1: 0, 2: 2, 3: 1, 4: 0, 5: 1}
	for k, w := range want {
		if counts[k] != w {
			t.Errorf("group %g count = %g, want %g", k, counts[k], w)
		}
	}
}

func TestExecuteGroupByMultiColumn(t *testing.T) {
	p := newFig2Processor()
	q := NewQuery("links", aggregate.Sum, workload.ColLatency)
	q.Within = 0
	q.GroupBy = []string{"from", "to"}
	rows, err := p.ExecuteGroupBy(q)
	if err != nil {
		t.Fatal(err)
	}
	// All six links have distinct (from, to) pairs.
	if len(rows) != 6 {
		t.Fatalf("groups = %d, want 6", len(rows))
	}
}

func TestExecuteGroupByErrors(t *testing.T) {
	p := newFig2Processor()
	q := NewQuery("links", aggregate.Sum, workload.ColLatency)
	if _, err := p.ExecuteGroupBy(q); err == nil {
		t.Error("empty group columns accepted")
	}
	q.GroupBy = []string{"nope"}
	if _, err := p.ExecuteGroupBy(q); err == nil {
		t.Error("unknown group column accepted")
	}
	q.GroupBy = []string{workload.ColLatency}
	if _, err := p.ExecuteGroupBy(q); err == nil {
		t.Error("bounded group column accepted")
	}
	q.Table = "missing"
	q.GroupBy = []string{"from"}
	if _, err := p.ExecuteGroupBy(q); err == nil {
		t.Error("missing table accepted")
	}
}

func TestRelativeR(t *testing.T) {
	cases := []struct {
		initial interval.Interval
		p       float64
		want    float64
	}{
		{interval.New(100, 120), 0.05, 10},   // min|a|=100, R = 2·0.05·100
		{interval.New(-120, -100), 0.05, 10}, // symmetric negative
		{interval.New(-5, 10), 0.1, 0},       // straddles zero → exact
		{interval.Empty, 0.1, 0},
	}
	for _, c := range cases {
		if got := RelativeR(c.initial, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RelativeR(%v, %g) = %g, want %g", c.initial, c.p, got, c.want)
		}
	}
}

func TestExecuteRelative(t *testing.T) {
	p := newFig2Processor()
	q := NewQuery("links", aggregate.Sum, workload.ColTraffic)
	res, err := p.ExecuteRelative(q, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("relative constraint not met")
	}
	// The guarantee: width ≤ 2·|A|·p for the true answer A = 644.
	trueSum := 98.0 + 116 + 105 + 127 + 95 + 103
	if res.Answer.Width() > 2*trueSum*0.02+1e-9 {
		t.Errorf("width %g > 2·|A|·p = %g", res.Answer.Width(), 2*trueSum*0.02)
	}
	if !res.Answer.Expand(1e-9).Contains(trueSum) {
		t.Errorf("answer %v excludes true sum %g", res.Answer, trueSum)
	}
	if _, err := p.ExecuteRelative(q, -1); err == nil {
		t.Error("negative relative precision accepted")
	}
}

func TestExecuteIterativeMeetsConstraintCheaper(t *testing.T) {
	// Iterative refresh must meet the constraint and cost no more than
	// the batch plan on the same starting cache.
	batchProc := newFig2Processor()
	q := NewQuery("links", aggregate.Sum, workload.ColLatency)
	q.Within = 4
	batchRes, err := batchProc.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	iterProc := newFig2Processor()
	iterRes, err := iterProc.ExecuteIterative(q)
	if err != nil {
		t.Fatal(err)
	}
	if !iterRes.Met {
		t.Fatalf("iterative not met: %v", iterRes.Answer)
	}
	if iterRes.RefreshCost > batchRes.RefreshCost+1e-9 {
		t.Errorf("iterative cost %g > batch cost %g", iterRes.RefreshCost, batchRes.RefreshCost)
	}
}

func TestExecuteIterativeNoRefreshWhenMet(t *testing.T) {
	p := newFig2Processor()
	q := NewQuery("links", aggregate.Sum, workload.ColLatency)
	q.Within = 100
	res, err := p.ExecuteIterative(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refreshed != 0 {
		t.Errorf("refreshed %d with satisfied constraint", res.Refreshed)
	}
}

func TestExecuteIterativeErrors(t *testing.T) {
	p := newFig2Processor()
	q := NewQuery("missing", aggregate.Sum, "latency")
	if _, err := p.ExecuteIterative(q); err == nil {
		t.Error("missing table accepted")
	}
	q = NewQuery("links", aggregate.Sum, "nope")
	if _, err := p.ExecuteIterative(q); err == nil {
		t.Error("missing column accepted")
	}
	q = NewQuery("links", aggregate.Sum, workload.ColLatency)
	q.Within = -2
	if _, err := p.ExecuteIterative(q); err == nil {
		t.Error("negative R accepted")
	}
}

// TestQuickIterativeNeverCostsMoreThanBatch compares the two execution
// modes on random tables: iterative always meets the constraint and never
// pays more than batch.
func TestQuickIterativeNeverCostsMoreThanBatch(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		schema := relation.NewSchema(
			relation.Column{Name: "g", Kind: relation.Exact},
			relation.Column{Name: "v", Kind: relation.Bounded},
		)
		n := 2 + r.Intn(12)
		master := workload.MapOracle{}
		build := func() *relation.Store {
			tab := relation.NewStore(schema, 1)
			rr := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				lo := rr.Float64() * 50
				w := rr.Float64() * 10
				tab.MustInsert(relation.Tuple{
					Key:    int64(i + 1),
					Bounds: []interval.Interval{interval.Point(float64(i % 3)), interval.New(lo, lo+w)},
					Cost:   float64(1 + rr.Intn(9)),
				})
				master[int64(i+1)] = []float64{lo + rr.Float64()*w}
			}
			return tab
		}
		fn := []aggregate.Func{aggregate.Min, aggregate.Max, aggregate.Sum, aggregate.Avg}[r.Intn(4)]
		R := r.Float64() * 20

		bp := NewProcessor(refresh.Options{})
		bp.RegisterStore("t", build(), master)
		q := NewQuery("t", fn, "v")
		q.Within = R
		batch, err := bp.ExecuteCtx(context.Background(), q)
		if err != nil || !batch.Met {
			return false
		}
		ip := NewProcessor(refresh.Options{})
		ip.RegisterStore("t", build(), master)
		iter, err := ip.ExecuteIterative(q)
		if err != nil || !iter.Met {
			return false
		}
		return iter.RefreshCost <= batch.RefreshCost+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
