package sql

import (
	"context"
	"testing"

	"trapp/internal/aggregate"
	"trapp/internal/query"
	"trapp/internal/refresh"
	"trapp/internal/workload"
)

func TestParseRelativeWithin(t *testing.T) {
	q := mustParse(t, "SELECT SUM(traffic) WITHIN 5% FROM links")
	if q.RelativeWithin != 0.05 {
		t.Errorf("RelativeWithin = %g, want 0.05", q.RelativeWithin)
	}
	// Absolute Within stays at its +Inf default.
	if q.Within != q.Within || q.Within < 1e300 {
		t.Errorf("Within = %g, want +Inf", q.Within)
	}
}

func TestParseGroupBy(t *testing.T) {
	q := mustParse(t, "SELECT SUM(latency) WITHIN 1 FROM links GROUP BY from")
	if len(q.GroupBy) != 1 || q.GroupBy[0] != "from" {
		t.Errorf("GroupBy = %v", q.GroupBy)
	}
	q = mustParse(t, "SELECT SUM(latency) FROM links GROUP BY from, to")
	if len(q.GroupBy) != 2 || q.GroupBy[1] != "to" {
		t.Errorf("GroupBy = %v", q.GroupBy)
	}
	q = mustParse(t, "SELECT COUNT(latency) FROM links WHERE latency > 5 GROUP BY from")
	if q.Where == nil || len(q.GroupBy) != 1 {
		t.Errorf("combined WHERE+GROUP BY: %+v", q)
	}
}

func TestParseGroupByErrors(t *testing.T) {
	bad := []string{
		"SELECT SUM(latency) FROM links GROUP from",
		"SELECT SUM(latency) FROM links GROUP BY",
		"SELECT SUM(latency) FROM links GROUP BY nope",
		"SELECT SUM(latency) FROM links GROUP BY latency", // bounded column
		"SELECT SUM(latency) FROM links GROUP BY from,",
	}
	for _, src := range bad {
		if _, err := Parse(src, cat()); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestParseRelativeEndToEnd(t *testing.T) {
	q := mustParse(t, "SELECT SUM(traffic) WITHIN 2% FROM links")
	p := query.NewProcessor(refresh.Options{Solver: refresh.SolverExactDP})
	p.RegisterStore("links", workload.Figure2Store(), workload.MapOracle(workload.Figure2Master()))
	res, err := p.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("relative constraint not met: %v", res.Answer)
	}
	trueSum := 98.0 + 116 + 105 + 127 + 95 + 103
	if res.Answer.Width() > 2*trueSum*0.02+1e-9 {
		t.Errorf("width %g exceeds relative guarantee", res.Answer.Width())
	}
}

func TestParseGroupByEndToEnd(t *testing.T) {
	q := mustParse(t, "SELECT SUM(latency) WITHIN 0 FROM links GROUP BY from")
	p := query.NewProcessor(refresh.Options{})
	p.RegisterStore("links", workload.Figure2Store(), workload.MapOracle(workload.Figure2Master()))
	rows, err := p.ExecuteGroupBy(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("groups = %d", len(rows))
	}
	// Scalar Execute rejects GROUP BY queries.
	if _, err := p.ExecuteCtx(context.Background(), q); err == nil {
		t.Error("Execute accepted a GROUP BY query")
	}
}

func TestQueryStringWithExtensions(t *testing.T) {
	q := query.NewQuery("links", aggregate.Sum, "latency")
	q.RelativeWithin = 0.05
	q.GroupBy = []string{"from", "to"}
	want := "SELECT SUM(links.latency) WITHIN 5% FROM links GROUP BY from, to"
	if got := q.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
