package trapp

import (
	"context"
	"testing"

	"trapp/internal/aggregate"
	"trapp/internal/boundfn"
	"trapp/internal/interval"
	"trapp/internal/query"
	"trapp/internal/refresh"
	"trapp/internal/workload"
)

// eventSystem builds a system whose cache watches one source with the
// given propagation slack, pre-populated with the Figure 2 objects.
func eventSystem(t *testing.T, slack int) (*System, *sourceHandle) {
	t.Helper()
	sys := NewSystem(refresh.Options{})
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
			row.Cost, boundfn.StaticWidth(1)); err != nil {
			t.Fatal(err)
		}
		if err := c.Subscribe(src, row.Key, []float64{float64(row.From), float64(row.To)}); err != nil {
			t.Fatal(err)
		}
	}
	c.WatchSource(src)
	src.SetPropagationSlack(slack)
	if err := sys.Mount("links", c); err != nil {
		t.Fatal(err)
	}
	return sys, &sourceHandle{src: src}
}

// sourceHandle avoids importing the source package's type in every test.
type sourceHandle struct {
	src interface {
		InsertObject(key int64, values []float64, cost float64, policy boundfn.WidthPolicy, meta []float64) error
		RemoveObject(key int64) error
		Pending() int
		FlushEvents()
	}
}

func TestDelayedPropagationQueues(t *testing.T) {
	sys, h := eventSystem(t, 3)
	c := sys.Cache("monitor")
	if err := h.src.InsertObject(7, []float64{4, 50, 100}, 2, nil, []float64{6, 1}); err != nil {
		t.Fatal(err)
	}
	if err := h.src.RemoveObject(1); err != nil {
		t.Fatal(err)
	}
	// With slack 3 the two events stay queued; the cache still has the
	// old membership (6 tuples, object 7 absent, object 1 present).
	if h.src.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", h.src.Pending())
	}
	if _, has := c.Store().Get(7); c.Len() != 6 || has {
		t.Errorf("cache changed before flush: len=%d", c.Len())
	}
	// Exceeding the slack flushes everything.
	if err := h.src.RemoveObject(2); err != nil {
		t.Fatal(err)
	}
	if err := h.src.RemoveObject(3); err != nil {
		t.Fatal(err)
	}
	if h.src.Pending() != 0 {
		t.Fatalf("pending after overflow = %d", h.src.Pending())
	}
	// Final membership: started with 6, +7, −1, −2, −3 → 4 tuples.
	if c.Len() != 4 {
		t.Errorf("len after flush = %d, want 4", c.Len())
	}
	if _, has := c.Store().Get(7); !has {
		t.Error("inserted object 7 missing after flush")
	}
}

func TestCountWithSlackWidensAnswer(t *testing.T) {
	sys, h := eventSystem(t, 2)
	if err := h.src.RemoveObject(1); err != nil {
		t.Fatal(err)
	}
	// COUNT with a tolerant constraint is served from the stale cache,
	// widened by ±slack; no flush happens.
	q := query.NewQuery("links", aggregate.Count, workload.ColLatency)
	q.Within = 10
	res, err := sys.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("tolerant COUNT not met")
	}
	// Cached cardinality is still 6 (deletion queued): answer [4, 8].
	if res.Answer.Lo != 4 || res.Answer.Hi != 8 {
		t.Errorf("COUNT answer = %v, want [4, 8]", res.Answer)
	}
	// True cardinality 5 is inside the widened answer.
	if !res.Answer.Contains(5) {
		t.Errorf("answer %v excludes true count 5", res.Answer)
	}
	if h.src.Pending() != 1 {
		t.Errorf("pending = %d; tolerant COUNT should not flush", h.src.Pending())
	}
}

func TestTightCountForcesFlush(t *testing.T) {
	sys, h := eventSystem(t, 2)
	if err := h.src.RemoveObject(1); err != nil {
		t.Fatal(err)
	}
	q := query.NewQuery("links", aggregate.Count, workload.ColLatency)
	q.Within = 0
	res, err := sys.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if h.src.Pending() != 0 {
		t.Error("tight COUNT did not flush")
	}
	if !res.Answer.Equal(interval.Point(5)) {
		t.Errorf("COUNT after flush = %v, want [5]", res.Answer)
	}
}

func TestOtherAggregatesFlushFirst(t *testing.T) {
	sys, h := eventSystem(t, 5)
	if err := h.src.RemoveObject(3); err != nil { // the max-latency link
		t.Fatal(err)
	}
	q := query.NewQuery("links", aggregate.Max, workload.ColLatency)
	q.Within = 0
	res, err := sys.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if h.src.Pending() != 0 {
		t.Error("MAX query did not flush membership events")
	}
	// With link 3 (latency 13) gone, the exact MAX is 11.
	if res.Answer.Lo != 11 || !res.Answer.IsPoint() {
		t.Errorf("MAX = %v, want [11]", res.Answer)
	}
}

func TestSlackZeroPropagatesImmediately(t *testing.T) {
	sys, h := eventSystem(t, 0)
	c := sys.Cache("monitor")
	if err := h.src.InsertObject(9, []float64{1, 2, 3}, 1, nil, []float64{1, 6}); err != nil {
		t.Fatal(err)
	}
	if _, has := c.Store().Get(9); !has {
		t.Error("immediate propagation did not insert")
	}
	if h.src.Pending() != 0 {
		t.Error("events queued with zero slack")
	}
}

// TestBatchSlackParity pins the §8.3 special paths of ExecuteBatch to
// standalone ExecuteCtx behavior: an all-COUNT slack-tolerant batch is
// answered widened without forcing the propagation round, and an
// imprecise-mode batch never flushes queued membership events.
func TestBatchSlackParity(t *testing.T) {
	ctx := context.Background()

	countQ := query.Query{Table: "links", Agg: aggregate.Count, Column: workload.ColLatency, Within: 10}

	// Side A: standalone execution. Side B: the same query via a batch.
	sysA, hA := eventSystem(t, 3)
	sysB, hB := eventSystem(t, 3)
	for _, h := range []*sourceHandle{hA, hB} {
		if err := h.src.InsertObject(7, []float64{4, 50, 100}, 2, nil, []float64{6, 1}); err != nil {
			t.Fatal(err)
		}
	}
	solo, err := sysA.ExecuteCtx(ctx, countQ)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := sysB.ExecuteBatch(ctx, []query.Query{countQ, countQ})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range batch {
		if res.Answer != solo.Answer || res.Met != solo.Met {
			t.Errorf("batch COUNT %d = %+v, standalone %+v", i, res, solo)
		}
	}
	if hB.src.Pending() == 0 {
		t.Error("slack-tolerant COUNT batch flushed the queued insert")
	}

	// Imprecise-mode batches answer from the unflushed cache for free.
	sumQ := query.Query{Table: "links", Agg: aggregate.Sum, Column: workload.ColLatency}
	soloImp, err := sysA.ExecuteCtx(ctx, sumQ, query.WithMode(query.ModeImprecise))
	if err != nil {
		t.Fatal(err)
	}
	batchImp, err := sysB.ExecuteBatch(ctx, []query.Query{sumQ}, query.WithMode(query.ModeImprecise))
	if err != nil {
		t.Fatal(err)
	}
	if batchImp[0].Answer != soloImp.Answer || batchImp[0].RefreshCost != 0 {
		t.Errorf("imprecise batch %+v, standalone %+v", batchImp[0], soloImp)
	}
	if hB.src.Pending() == 0 {
		t.Error("imprecise batch flushed the queued insert")
	}

	// A mixed batch (a SUM needs exact membership) flushes, exactly as a
	// standalone bounded SUM would.
	bSum := sumQ
	bSum.Within = 1000
	if _, err := sysB.ExecuteBatch(ctx, []query.Query{bSum, countQ}); err != nil {
		t.Fatal(err)
	}
	if hB.src.Pending() != 0 {
		t.Error("mixed batch did not flush queued membership events")
	}
}
