package query

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"trapp/internal/aggregate"
	"trapp/internal/boundfn"
	"trapp/internal/cache"
	"trapp/internal/netsim"
	"trapp/internal/refresh"
	"trapp/internal/source"
	"trapp/internal/workload"
)

// TestHardErrorStillAccountsPaidRefreshes pins the accounting of a
// refresh round that fails at one source: an object removed at its source
// while the propagation slack still holds the delete back makes that
// source's batch fail, yet the other source's batch was charged and
// installed. The result must report exactly what netsim's ledger says
// was paid, the traced cost must agree, and the error must still be
// returned — for a single execution and for a batch.
func TestHardErrorStillAccountsPaidRefreshes(t *testing.T) {
	clock, net := netsim.NewClock(), netsim.NewNetwork()
	c := cache.New("c", clock, workload.LinkSchema())
	srcs := []*source.Source{source.New("a", clock, net, nil), source.New("b", clock, net, nil)}
	for key := int64(0); key < 8; key++ {
		src := srcs[key%2]
		if err := src.AddObject(key, []float64{float64(10 + key), 50, 5}, float64(1+key), boundfn.StaticWidth(2)); err != nil {
			t.Fatal(err)
		}
		if err := c.Subscribe(src, key, []float64{0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	srcs[1].SetPropagationSlack(4)
	c.WatchSource(srcs[1])
	p := NewProcessor(refresh.Options{})
	p.RegisterStore("links", c.Store(), c)
	q := NewQuery("links", aggregate.Sum, workload.ColLatency)
	q.Within = 0

	paidBy := func(run func() (refreshed int, cost float64, err error)) {
		t.Helper()
		clock.Advance(10)
		c.Sync()
		before := net.Stats()
		refreshed, cost, err := run()
		after := net.Stats()
		if err == nil || !strings.Contains(err.Error(), "no object 3") {
			t.Fatalf("error = %v, want source b's missing object", err)
		}
		paid := after.QueryRefreshCost - before.QueryRefreshCost
		msgs := after.Messages[netsim.QueryRefresh] - before.Messages[netsim.QueryRefresh]
		if paid == 0 || cost != paid || int64(refreshed) != msgs {
			t.Errorf("result reports %d refreshes costing %g; the network carried %d costing %g", refreshed, cost, msgs, paid)
		}
	}
	if err := srcs[1].RemoveObject(3); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 8 || srcs[1].Pending() != 1 {
		t.Fatalf("the delete was not held back: %d cached, %d pending", c.Len(), srcs[1].Pending())
	}
	paidBy(func() (int, float64, error) {
		res, err := p.ExecuteCtx(context.Background(), q, WithTrace())
		if res.Trace == nil {
			t.Error("no trace recorded")
		} else if traced := res.Trace.TotalCost(); traced != res.RefreshCost {
			t.Errorf("trace cost %g, result cost %g", traced, res.RefreshCost)
		}
		return res.Refreshed, res.RefreshCost, err
	})
	paidBy(func() (int, float64, error) {
		results, err := p.ExecuteBatch(context.Background(), []Query{q})
		if len(results) != 1 {
			return 0, 0, fmt.Errorf("batch returned %d results beside %w", len(results), err)
		}
		return results[0].Refreshed, results[0].RefreshCost, err
	})
}
