package trapp_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"trapp"
	"trapp/internal/workload"
)

// buildMonitor assembles a monitoring system over the Figure 2 data using
// only the public API (plus the workload fixture).
func buildMonitor(t *testing.T) *trapp.System {
	t.Helper()
	sys := trapp.NewSystem(trapp.Options{Solver: trapp.SolverExactDP})
	src, err := sys.AddSource("nodes", nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sys.AddCache("monitor", workload.LinkSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range workload.Figure2() {
		if err := src.AddObject(row.Key,
			[]float64{row.LatencyV, row.BandwidthV, row.TrafficV},
			row.Cost, trapp.StaticWidth(2)); err != nil {
			t.Fatal(err)
		}
		if err := c.Subscribe(src, row.Key, []float64{float64(row.From), float64(row.To)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Mount("links", c); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sys := buildMonitor(t)
	sys.Clock.Advance(25) // ±10 bounds

	q, err := trapp.ParseQuery("SELECT AVG(latency) WITHIN 3 FROM links WHERE traffic > 100", sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("constraint not met: %v", res.Answer)
	}
	if res.Answer.Width() > 3+1e-9 {
		t.Errorf("width %g > 3", res.Answer.Width())
	}
	// True AVG latency over links with traffic > 100 (traffic values
	// 98,116,105,127,95,103 → links 2,3,4,6 with latencies 7,13,9,5) = 8.5.
	if !res.Answer.Contains(8.5) {
		t.Errorf("answer %v does not contain 8.5", res.Answer)
	}
}

func TestPublicAPIParseErrors(t *testing.T) {
	sys := buildMonitor(t)
	if _, err := trapp.ParseQuery("SELECT SUM(latency) FROM missing", sys); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := trapp.ParseQuery("garbage", sys); err == nil {
		t.Error("garbage accepted")
	}
}

func TestPublicAPIHandBuiltQuery(t *testing.T) {
	sys := buildMonitor(t)
	sys.Clock.Advance(100)
	schema := sys.MountedCache("links").Schema()
	bw := schema.MustLookup(workload.ColBandwidth)

	q := trapp.NewQuery("links", trapp.Min, workload.ColBandwidth)
	q.Within = 5
	q.Where = trapp.NewCmp(trapp.PredColumn(bw, "bandwidth"), trapp.Gt, trapp.PredConst(0))
	res, err := sys.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || res.Answer.Width() > 5+1e-9 {
		t.Fatalf("MIN not met: %v", res.Answer)
	}
	if !res.Answer.Contains(45) {
		t.Errorf("answer %v does not contain true MIN 45", res.Answer)
	}
}

func TestPublicAPIMultiAggregateBatch(t *testing.T) {
	sys := buildMonitor(t)
	sys.Clock.Advance(25)

	// A multi-aggregate statement compiles to a batch sharing one scan
	// and one deduped refresh round.
	qs, err := trapp.ParseQueries("SELECT MIN(latency), MAX(latency), AVG(latency) WITHIN 2 FROM links", sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 3 {
		t.Fatalf("parsed %d queries, want 3", len(qs))
	}
	results, err := sys.ExecuteBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if !res.Met {
			t.Errorf("query %d (%v) unmet: %+v", i, qs[i], res)
		}
		if res.Answer.Width() > 2+1e-9 {
			t.Errorf("query %d: width %g > 2", i, res.Answer.Width())
		}
	}
	if results[0].Answer.Lo > results[2].Answer.Hi || results[2].Answer.Lo > results[1].Answer.Hi {
		t.Errorf("MIN %v, AVG %v, MAX %v are not ordered", results[0].Answer, results[2].Answer, results[1].Answer)
	}

	// The single-query parser rejects the multi-aggregate statement with
	// a positioned SQL error.
	_, err = trapp.ParseQuery("SELECT MIN(latency), MAX(latency) FROM links", sys)
	var perr *trapp.SQLError
	if err == nil || !errors.As(err, &perr) {
		t.Errorf("ParseQuery multi-agg: err = %v, want *SQLError", err)
	}
}

func TestPublicAPIIntervalHelpers(t *testing.T) {
	iv := trapp.NewInterval(1, 3)
	if iv.Width() != 2 || !iv.Contains(2) {
		t.Error("interval helpers broken")
	}
	if !trapp.Point(5).IsPoint() {
		t.Error("Point helper broken")
	}
}

func TestPublicAPIModes(t *testing.T) {
	sys := buildMonitor(t)
	sys.Clock.Advance(10000)
	q := trapp.NewQuery("links", trapp.Sum, workload.ColTraffic)

	imp, err := sys.ExecuteCtx(context.Background(), q, trapp.WithMode(trapp.ModeImprecise))
	if err != nil {
		t.Fatal(err)
	}
	if imp.RefreshCost != 0 {
		t.Error("imprecise mode paid refresh cost")
	}
	prec, err := sys.ExecuteCtx(context.Background(), q, trapp.WithMode(trapp.ModePrecise))
	if err != nil {
		t.Fatal(err)
	}
	if prec.Answer.Width() > 1e-9 {
		t.Error("precise mode imprecise")
	}
	trueSum := 98.0 + 116 + 105 + 127 + 95 + 103
	if math.Abs(prec.Answer.Lo-trueSum) > 1e-9 {
		t.Errorf("precise SUM = %v, want %g", prec.Answer, trueSum)
	}
	if !imp.Answer.ContainsInterval(prec.Answer) {
		t.Error("imprecise answer does not contain precise answer")
	}
}
