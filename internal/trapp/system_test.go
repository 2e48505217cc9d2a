package trapp

import (
	"context"
	"math"
	"testing"

	"trapp/internal/aggregate"
	"trapp/internal/boundfn"
	"trapp/internal/predicate"
	"trapp/internal/query"
	"trapp/internal/refresh"
	"trapp/internal/workload"
)

func TestSystemSetup(t *testing.T) {
	sys := NewSystem(refresh.Options{})
	if _, err := sys.AddSource("a", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddSource("a", nil); err == nil {
		t.Error("duplicate source accepted")
	}
	if sys.Source("a") == nil || sys.Source("b") != nil {
		t.Error("Source lookup wrong")
	}
	if _, err := sys.AddCache("c", workload.LinkSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddCache("c", workload.LinkSchema()); err == nil {
		t.Error("duplicate cache accepted")
	}
	if sys.Cache("c") == nil {
		t.Error("Cache lookup wrong")
	}
	if err := sys.Mount("t", sys.Cache("c")); err != nil {
		t.Fatal(err)
	}
	if err := sys.Mount("t", sys.Cache("c")); err == nil {
		t.Error("duplicate mount accepted")
	}
	if _, err := sys.ExecuteCtx(context.Background(), query.NewQuery("missing", aggregate.Sum, "x")); err == nil {
		t.Error("unmounted table accepted")
	}
}

// TestEndToEndLifecycle drives the full architecture: subscribe, let
// bounds grow with the clock, update master values (value-initiated
// refreshes), and run constrained queries (query-initiated refreshes).
func TestEndToEndLifecycle(t *testing.T) {
	sys := NewSystem(refresh.Options{})
	src, _ := sys.AddSource("nodes", nil)
	c, _ := sys.AddCache("monitor", workload.LinkSchema())
	for _, row := range workload.Figure2() {
		if err := src.AddObject(row.Key,
			[]float64{row.LatencyV, row.BandwidthV, row.TrafficV},
			row.Cost, boundfn.NewAdaptiveWidth(1)); err != nil {
			t.Fatal(err)
		}
		if err := c.Subscribe(src, row.Key, []float64{float64(row.From), float64(row.To)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Mount("links", c); err != nil {
		t.Fatal(err)
	}

	// Immediately after subscribing, bounds are points: imprecise mode is
	// already exact.
	q := query.NewQuery("links", aggregate.Sum, workload.ColLatency)
	res, err := sys.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Width() != 0 {
		t.Errorf("fresh bounds not exact: %v", res.Answer)
	}
	wantSum := 3.0 + 7 + 13 + 9 + 11 + 5
	if !res.Answer.Contains(wantSum) {
		t.Errorf("SUM = %v, want %g", res.Answer, wantSum)
	}

	// Let time pass: bounds grow, imprecise answers widen.
	sys.Clock.Advance(100)
	res, err = sys.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Width() == 0 {
		t.Error("bounds did not grow with time")
	}

	// A constrained query forces query-initiated refreshes and meets R.
	q.Within = 1
	res, err = sys.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("constraint not met: %v", res.Answer)
	}
	if res.Refreshed == 0 {
		t.Error("no refreshes for tight constraint")
	}
	if sys.Stats().Messages[2] == 0 && sys.Stats().QueryRefreshCost == 0 {
		t.Error("network recorded no query-refresh traffic")
	}

	// Master update that escapes its (currently tight) bound pushes a
	// value-initiated refresh into the cache.
	before := sys.Stats().Messages[0] // netsim.ValueRefresh == 0
	if err := src.SetValue(1, []float64{50, 61, 98}); err != nil {
		t.Fatal(err)
	}
	after := sys.Stats().Messages[0]
	if after != before+1 {
		t.Errorf("value refreshes %d → %d, want +1", before, after)
	}
	// The cache sees the new value without paying a query refresh.
	res, err = sys.ExecuteCtx(context.Background(), query.NewQuery("links", aggregate.Max, workload.ColLatency), query.WithMode(query.ModeImprecise))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answer.Contains(50) {
		t.Errorf("pushed value not visible: %v", res.Answer)
	}
}

func TestPreciseAndImpreciseModes(t *testing.T) {
	sys := NewSystem(refresh.Options{})
	src, _ := sys.AddSource("s", nil)
	c, _ := sys.AddCache("c", workload.LinkSchema())
	for _, row := range workload.Figure2() {
		if err := src.AddObject(row.Key, []float64{row.LatencyV, row.BandwidthV, row.TrafficV}, row.Cost, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.Subscribe(src, row.Key, []float64{float64(row.From), float64(row.To)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Mount("links", c); err != nil {
		t.Fatal(err)
	}
	sys.Clock.Advance(10000) // bounds grow wide

	q := query.NewQuery("links", aggregate.Min, workload.ColBandwidth)
	imp, err := sys.ExecuteCtx(context.Background(), q, query.WithMode(query.ModeImprecise))
	if err != nil {
		t.Fatal(err)
	}
	if imp.Refreshed != 0 {
		t.Error("imprecise mode refreshed")
	}
	prec, err := sys.ExecuteCtx(context.Background(), q, query.WithMode(query.ModePrecise))
	if err != nil {
		t.Fatal(err)
	}
	if prec.Answer.Width() > 1e-9 {
		t.Errorf("precise mode width = %g", prec.Answer.Width())
	}
	if prec.Answer.Lo != 45 {
		t.Errorf("precise MIN bandwidth = %v, want 45", prec.Answer)
	}
	if !imp.Answer.ContainsInterval(prec.Answer) {
		t.Errorf("imprecise %v does not contain precise %v", imp.Answer, prec.Answer)
	}
}

func TestPredicateQueryThroughSystem(t *testing.T) {
	sys := NewSystem(refresh.Options{})
	src, _ := sys.AddSource("s", nil)
	c, _ := sys.AddCache("c", workload.LinkSchema())
	for _, row := range workload.Figure2() {
		if err := src.AddObject(row.Key, []float64{row.LatencyV, row.BandwidthV, row.TrafficV}, row.Cost, boundfn.StaticWidth(3)); err != nil {
			t.Fatal(err)
		}
		if err := c.Subscribe(src, row.Key, []float64{float64(row.From), float64(row.To)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Mount("links", c); err != nil {
		t.Fatal(err)
	}
	sys.Clock.Advance(25) // ±15 bounds

	s := c.Schema()
	q := query.NewQuery("links", aggregate.Count, workload.ColLatency)
	q.Where = predicate.NewCmp(
		predicate.Column(s.MustLookup(workload.ColTraffic), "traffic"),
		predicate.Gt, predicate.Const(100))
	q.Within = 0
	res, err := sys.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || res.Answer.Width() != 0 {
		t.Fatalf("COUNT not exact: %v", res.Answer)
	}
	// True traffic values {98,116,105,127,95,103} → 4 links above 100.
	if res.Answer.Lo != 4 {
		t.Errorf("COUNT = %v, want 4", res.Answer)
	}
}

func TestStatsAccumulateAcrossQueries(t *testing.T) {
	sys := NewSystem(refresh.Options{})
	src, _ := sys.AddSource("s", nil)
	c, _ := sys.AddCache("c", workload.LinkSchema())
	for _, row := range workload.Figure2() {
		if err := src.AddObject(row.Key, []float64{row.LatencyV, row.BandwidthV, row.TrafficV}, row.Cost, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.Subscribe(src, row.Key, []float64{float64(row.From), float64(row.To)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Mount("links", c); err != nil {
		t.Fatal(err)
	}
	sys.Clock.Advance(10000)
	q := query.NewQuery("links", aggregate.Sum, workload.ColTraffic)
	q.Within = 0
	if _, err := sys.ExecuteCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	// Full refresh pays the sum of all costs: 3+6+6+8+4+2 = 29.
	if math.Abs(st.QueryRefreshCost-29) > 1e-9 {
		t.Errorf("query refresh cost = %g, want 29", st.QueryRefreshCost)
	}
}
