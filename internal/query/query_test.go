package query

import (
	"context"
	"math"
	"testing"

	"trapp/internal/aggregate"
	"trapp/internal/interval"
	"trapp/internal/predicate"
	"trapp/internal/refresh"
	"trapp/internal/relation"
	"trapp/internal/workload"
)

// newFig2Processor registers the Figure 2 table under "links" with the
// paper's master values as the oracle.
func newFig2Processor() *Processor {
	p := NewProcessor(refresh.Options{Solver: refresh.SolverExactDP})
	p.RegisterStore("links", workload.Figure2Store(), workload.MapOracle(workload.Figure2Master()))
	return p
}

func highTraffic(p *Processor) predicate.Expr {
	s := p.Store("links").Schema()
	return predicate.NewCmp(
		predicate.Column(s.MustLookup(workload.ColTraffic), "traffic"),
		predicate.Gt, predicate.Const(100))
}

func TestExecuteImpreciseMode(t *testing.T) {
	p := newFig2Processor()
	q := NewQuery("links", aggregate.Sum, workload.ColLatency)
	res, err := p.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refreshed != 0 || res.RefreshCost != 0 {
		t.Errorf("imprecise mode refreshed %d at cost %g", res.Refreshed, res.RefreshCost)
	}
	// Full-table latency SUM: [40, 55].
	if !res.Answer.Equal(interval.New(40, 55)) {
		t.Errorf("answer = %v, want [40, 55]", res.Answer)
	}
	if !res.Met {
		t.Error("unconstrained query not met")
	}
}

func TestExecuteWithConstraintRefreshes(t *testing.T) {
	p := newFig2Processor()
	q := NewQuery("links", aggregate.Avg, workload.ColTraffic)
	q.Within = 10
	res, err := p.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("constraint not met")
	}
	if res.Refreshed != 2 {
		t.Errorf("refreshed %d tuples, want 2 (keys 5 and 6)", res.Refreshed)
	}
	if res.RefreshCost != 6 {
		t.Errorf("refresh cost %g, want 6", res.RefreshCost)
	}
	if !res.Answer.Equal(interval.New(103, 113)) {
		t.Errorf("answer = %v, want [103, 113]", res.Answer)
	}
	// Initial answer was wider than R.
	if res.Initial.Width() <= 10 {
		t.Errorf("initial %v unexpectedly precise", res.Initial)
	}
}

func TestExecuteConstraintAlreadyMet(t *testing.T) {
	p := newFig2Processor()
	q := NewQuery("links", aggregate.Sum, workload.ColLatency)
	q.Within = 100 // initial width is 15
	res, err := p.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refreshed != 0 {
		t.Errorf("refreshed %d despite satisfied constraint", res.Refreshed)
	}
	if !res.Answer.Equal(res.Initial) {
		t.Error("answer differs from initial without refreshes")
	}
}

func TestExecuteQ6EndToEnd(t *testing.T) {
	p := newFig2Processor()
	q := NewQuery("links", aggregate.Avg, workload.ColLatency)
	q.Within = 2
	q.Where = highTraffic(p)
	res, err := p.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("Q6 constraint not met")
	}
	if !res.Answer.Equal(interval.New(8, 9)) {
		t.Errorf("Q6 answer = %v, want [8, 9]", res.Answer)
	}
	if res.Refreshed != 4 {
		t.Errorf("Q6 refreshed %d, want 4", res.Refreshed)
	}
}

func TestPreciseModeGivesExactAnswer(t *testing.T) {
	p := newFig2Processor()
	q := NewQuery("links", aggregate.Min, workload.ColBandwidth)
	res, err := p.ExecuteCtx(context.Background(), q, WithMode(ModePrecise))
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Width() > 1e-9 {
		t.Errorf("precise mode width = %g", res.Answer.Width())
	}
	if res.Answer.Lo != 45 {
		t.Errorf("precise MIN bandwidth = %v, want 45", res.Answer)
	}
}

func TestImpreciseModeNeverRefreshes(t *testing.T) {
	p := newFig2Processor()
	q := NewQuery("links", aggregate.Min, workload.ColBandwidth)
	q.Within = 0.001 // would normally force refreshes
	res, err := p.ExecuteCtx(context.Background(), q, WithMode(ModeImprecise))
	if err != nil {
		t.Fatal(err)
	}
	if res.Refreshed != 0 {
		t.Error("imprecise mode refreshed")
	}
}

func TestExecuteErrors(t *testing.T) {
	p := newFig2Processor()
	if _, err := p.ExecuteCtx(context.Background(), NewQuery("nope", aggregate.Sum, "latency")); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := p.ExecuteCtx(context.Background(), NewQuery("links", aggregate.Sum, "nope")); err == nil {
		t.Error("unknown column accepted")
	}
	q := NewQuery("links", aggregate.Sum, workload.ColLatency)
	q.Within = -1
	if _, err := p.ExecuteCtx(context.Background(), q); err == nil {
		t.Error("negative R accepted")
	}
	q.Within = math.NaN()
	if _, err := p.ExecuteCtx(context.Background(), q); err == nil {
		t.Error("NaN R accepted")
	}
}

func TestExecuteNoOracle(t *testing.T) {
	p := NewProcessor(refresh.Options{})
	p.RegisterStore("links", workload.Figure2Store(), nil)
	q := NewQuery("links", aggregate.Sum, workload.ColLatency)
	q.Within = 1
	if _, err := p.ExecuteCtx(context.Background(), q); err == nil {
		t.Error("refresh without oracle accepted")
	}
	// Imprecise queries still work.
	if _, err := p.ExecuteCtx(context.Background(), NewQuery("links", aggregate.Sum, workload.ColLatency)); err != nil {
		t.Errorf("imprecise query failed: %v", err)
	}
}

func TestQueryString(t *testing.T) {
	q := NewQuery("links", aggregate.Min, "bandwidth")
	if got := q.String(); got != "SELECT MIN(links.bandwidth) FROM links" {
		t.Errorf("String = %q", got)
	}
	q.Within = 5
	p := newFig2Processor()
	q.Where = highTraffic(p)
	want := "SELECT MIN(links.bandwidth) WITHIN 5 FROM links WHERE traffic > 100"
	if got := q.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestTighteningRMonotonicallyIncreasesCost(t *testing.T) {
	// The precision-performance tradeoff (Figure 1(b)/Figure 6): smaller R
	// must never cost less on identical caches.
	prevCost := -1.0
	for _, r := range []float64{40, 20, 10, 5, 0} {
		p := newFig2Processor()
		q := NewQuery("links", aggregate.Sum, workload.ColTraffic)
		q.Within = r
		res, err := p.ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Met {
			t.Fatalf("R=%g not met", r)
		}
		if prevCost >= 0 && res.RefreshCost < prevCost-1e-9 {
			t.Errorf("R=%g cost %g < previous %g", r, res.RefreshCost, prevCost)
		}
		prevCost = res.RefreshCost
	}
}

// batchOracle wraps a MapOracle and records whether the batch path ran.
// Per the Refresher contract it installs the refreshed values into the
// registered table itself.
type batchOracle struct {
	m       workload.MapOracle
	st      *relation.Store
	batches int
	keys    int
}

func (b *batchOracle) Master(key int64) ([]float64, bool) { return b.m.Master(key) }

func (b *batchOracle) Refresh(_ context.Context, keys []int64) (relation.RefreshSet, error) {
	b.batches++
	b.keys += len(keys)
	set := relation.NewRefreshSet(len(keys), len(b.st.Schema().BoundedColumns()))
	for j, key := range keys {
		v, ok := b.m.Master(key)
		if !ok {
			return set, ErrNoOracle
		}
		if _, err := b.st.Refresh(key, v); err != nil {
			return set, err
		}
		set.Installed[j] = true
		copy(set.Row(j), v)
	}
	return set, nil
}

// TestExecuteUsesRefresher checks that a refreshing execution fetches
// the whole plan through one Refresh round when the oracle supports it,
// and that the answer matches the sequential per-key path.
func TestExecuteUsesRefresher(t *testing.T) {
	st := workload.Figure2Store()
	bo := &batchOracle{m: workload.MapOracle(workload.Figure2Master()), st: st}
	p := NewProcessor(refresh.Options{Solver: refresh.SolverExactDP})
	p.RegisterStore("links", st, bo)
	q := NewQuery("links", aggregate.Sum, workload.ColLatency)
	q.Within = 0
	res, err := p.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || res.Answer.Width() != 0 {
		t.Fatalf("precise batch execution: met=%v answer=%v", res.Met, res.Answer)
	}
	if bo.batches != 1 {
		t.Errorf("Refresh called %d times, want 1", bo.batches)
	}
	if bo.keys != res.Refreshed {
		t.Errorf("batched %d keys, refreshed %d", bo.keys, res.Refreshed)
	}
	serial := newFig2Processor()
	want, err := serial.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answer.Equal(want.Answer) {
		t.Errorf("batch answer %v != serial answer %v", res.Answer, want.Answer)
	}
}
