package source

import (
	"context"
	"math"
	"testing"

	"trapp/internal/boundfn"
	"trapp/internal/netsim"
)

// recorder is a Subscriber that remembers refreshes.
type recorder struct {
	refreshes []Refresh
}

func (r *recorder) ApplyRefresh(ref Refresh) { r.refreshes = append(r.refreshes, ref) }

// queryRefresh pulls one object's query-initiated refresh: a batch of one.
func queryRefresh(s *Source, key int64, sub Subscriber) (Refresh, error) {
	b, err := s.QueryRefreshBatchCtx(context.Background(), []int64{key}, sub)
	if err != nil {
		return Refresh{}, err
	}
	return b.Refresh(0), nil
}

func newTestSource(t *testing.T) (*Source, *netsim.Clock, *netsim.Network) {
	t.Helper()
	clock := netsim.NewClock()
	net := netsim.NewNetwork()
	s := New("s1", clock, net, nil)
	if err := s.AddObject(1, []float64{10, 100}, 3, boundfn.StaticWidth(2)); err != nil {
		t.Fatal(err)
	}
	return s, clock, net
}

func TestAddObjectValidation(t *testing.T) {
	s, _, _ := newTestSource(t)
	if err := s.AddObject(1, []float64{1}, 1, nil); err == nil {
		t.Error("duplicate object accepted")
	}
	if err := s.AddObject(2, []float64{1}, -1, nil); err == nil {
		t.Error("negative cost accepted")
	}
	if s.ID() != "s1" {
		t.Errorf("ID = %q", s.ID())
	}
}

// TestAddObjectRejectsNonFiniteCost: a NaN or infinite cost would reach
// CHOOSE_REFRESH's knapsack as a profit and panic the first query that
// needs a refresh.
func TestAddObjectRejectsNonFiniteCost(t *testing.T) {
	s, _, _ := newTestSource(t)
	for i, cost := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := s.AddObject(int64(10+i), []float64{1}, cost, nil); err == nil {
			t.Errorf("cost %g accepted", cost)
		}
	}
}

func TestCostAndValues(t *testing.T) {
	s, _, _ := newTestSource(t)
	if c, ok := s.Cost(1); !ok || c != 3 {
		t.Errorf("Cost = %g, %v", c, ok)
	}
	if _, ok := s.Cost(9); ok {
		t.Error("Cost(9) found")
	}
	v, ok := s.Values(1)
	if !ok || v[0] != 10 || v[1] != 100 {
		t.Errorf("Values = %v, %v", v, ok)
	}
	v[0] = -1 // returned slice must be a copy
	v2, _ := s.Values(1)
	if v2[0] != 10 {
		t.Error("Values returned shared slice")
	}
}

func TestSubscribeInitialRefresh(t *testing.T) {
	s, clock, _ := newTestSource(t)
	rec := &recorder{}
	r, err := s.Subscribe(1, rec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Key != 1 || r.SourceID != "s1" {
		t.Errorf("refresh = %+v", r)
	}
	if len(r.Values) != 2 || r.Values[0] != 10 {
		t.Errorf("values = %v", r.Values)
	}
	// At refresh time the bound is a point at the value.
	if b := r.Bounds[0].At(clock.Now()); !b.IsPoint() || b.Lo != 10 {
		t.Errorf("initial bound = %v", b)
	}
	if _, err := s.Subscribe(9, rec); err == nil {
		t.Error("Subscribe to missing object accepted")
	}
}

func TestValueInitiatedRefreshFiresOnEscape(t *testing.T) {
	s, clock, net := newTestSource(t)
	rec := &recorder{}
	if _, err := s.Subscribe(1, rec); err != nil {
		t.Fatal(err)
	}
	clock.Advance(4) // width 2, sqrt(4)=2 → bound ±4 around 10: [6, 14]
	// Move value inside the bound: no refresh.
	if err := s.SetValue(1, []float64{13, 100}); err != nil {
		t.Fatal(err)
	}
	if len(rec.refreshes) != 0 {
		t.Fatalf("in-bound update triggered %d refreshes", len(rec.refreshes))
	}
	// Move outside: refresh must fire.
	if err := s.SetValue(1, []float64{20, 100}); err != nil {
		t.Fatal(err)
	}
	if len(rec.refreshes) != 1 {
		t.Fatalf("escape triggered %d refreshes, want 1", len(rec.refreshes))
	}
	r := rec.refreshes[0]
	if r.Kind != ValueInitiated {
		t.Errorf("kind = %v", r.Kind)
	}
	if r.Values[0] != 20 {
		t.Errorf("refresh values = %v", r.Values)
	}
	if net.Stats().Messages[netsim.ValueRefresh] != 1 {
		t.Error("network did not record value refresh")
	}
}

func TestQueryRefresh(t *testing.T) {
	s, _, net := newTestSource(t)
	rec := &recorder{}
	if _, err := s.Subscribe(1, rec); err != nil {
		t.Fatal(err)
	}
	r, err := queryRefresh(s, 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != QueryInitiated {
		t.Errorf("kind = %v", r.Kind)
	}
	if net.Stats().QueryRefreshCost != 3 {
		t.Errorf("query refresh cost = %g, want 3", net.Stats().QueryRefreshCost)
	}
	// Unsubscribed caller is rejected.
	if _, err := queryRefresh(s, 1, &recorder{}); err == nil {
		t.Error("unsubscribed QueryRefresh accepted")
	}
	if _, err := queryRefresh(s, 9, rec); err == nil {
		t.Error("QueryRefresh for missing object accepted")
	}
}

func TestQueryRefreshBatch(t *testing.T) {
	s, _, net := newTestSource(t)
	if err := s.AddObject(2, []float64{20, 200}, 5, boundfn.StaticWidth(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddObject(3, []float64{30, 300}, 7, boundfn.StaticWidth(2)); err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	for _, key := range []int64{1, 2, 3} {
		if _, err := s.Subscribe(key, rec); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	b, err := s.QueryRefreshBatchCtx(ctx, []int64{1, 3}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Keys) != 2 || b.Requested != 2 {
		t.Fatalf("batch returned %d rows (%d requested), want 2", len(b.Keys), b.Requested)
	}
	if b.Keys[0] != 1 || b.Keys[1] != 3 {
		t.Errorf("batch keys = %d, %d; want request order 1, 3", b.Keys[0], b.Keys[1])
	}
	for i := range b.Keys {
		r := b.Refresh(i)
		if r.Kind != QueryInitiated || r.SourceID != "s1" || r.Key != b.Keys[i] || r.Seq != b.Seqs[i] {
			t.Errorf("row %d as a message = %+v", i, r)
		}
		if len(r.Values) != 2 || len(r.Bounds) != 2 || r.Bounds[1].Value != r.Values[1] {
			t.Errorf("row %d carries values %v, bounds %v", i, r.Values, r.Bounds)
		}
	}
	if vals := b.Refresh(1).Values; vals[0] != 30 || vals[1] != 300 {
		t.Errorf("key 3 values = %v", vals)
	}
	st := net.Stats()
	if st.Messages[netsim.QueryRefresh] != 2 {
		t.Errorf("query-refresh messages = %d, want 2", st.Messages[netsim.QueryRefresh])
	}
	if st.QueryRefreshCost != 3+7 {
		t.Errorf("query refresh cost = %g, want 10", st.QueryRefreshCost)
	}
	// Errors reject the whole batch without charging.
	if _, err := s.QueryRefreshBatchCtx(ctx, []int64{1, 9}, rec); err == nil {
		t.Error("batch with missing object accepted")
	}
	if _, err := s.QueryRefreshBatchCtx(ctx, []int64{2}, &recorder{}); err == nil {
		t.Error("batch from unsubscribed cache accepted")
	}
	if net.Stats().QueryRefreshCost != 3+7 {
		t.Errorf("rejected batches were charged: cost = %g", net.Stats().QueryRefreshCost)
	}
	if b, err := s.QueryRefreshBatchCtx(ctx, nil, rec); err != nil || len(b.Keys) != 0 {
		t.Errorf("empty batch = %+v, %v", b, err)
	}
}

// TestRefreshNeverAliasesRegistration pins the rule that makes in-place
// registrations safe: whatever leaves the source — a subscribe reply, a
// pushed refresh, a batch row — owns its storage, so scribbling over it
// changes nothing the refresh monitor sees.
func TestRefreshNeverAliasesRegistration(t *testing.T) {
	s, clock, _ := newTestSource(t)
	rec := &recorder{}
	first, err := s.Subscribe(1, rec)
	if err != nil {
		t.Fatal(err)
	}
	contains := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		o := s.objects[1]
		return regContains(o.reg(rec), clock.Now(), o.values)
	}
	scribble := func(what string, r Refresh) {
		t.Helper()
		for i := range r.Bounds {
			r.Bounds[i] = boundfn.Bound{Value: -1e9, RefreshedAt: clock.Now()}
			r.Values[i] = -1e9
		}
		if !contains() {
			t.Errorf("mutating %s changed the registration's promise", what)
		}
		if v, _ := s.Values(1); v[0] == -1e9 {
			t.Errorf("mutating %s changed the master values", what)
		}
	}
	scribble("the subscribe reply", first)
	clock.Advance(1)
	if err := s.SetValue(1, []float64{1e6, 1e6}); err != nil {
		t.Fatal(err)
	}
	if len(rec.refreshes) != 1 {
		t.Fatalf("escape pushed %d refreshes, want 1", len(rec.refreshes))
	}
	scribble("a pushed refresh", rec.refreshes[0])
	b, err := s.QueryRefreshBatchCtx(context.Background(), []int64{1}, rec)
	if err != nil {
		t.Fatal(err)
	}
	scribble("a batch row", b.Refresh(0))
	// The registration is rewritten in place by the next refresh, and the
	// older message keeps what it was sent.
	held, err := queryRefresh(s, 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]boundfn.Bound(nil), held.Bounds...)
	clock.Advance(3)
	if _, err := queryRefresh(s, 1, rec); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if held.Bounds[i] != want[i] {
			t.Errorf("a later refresh rewrote a message already handed out: %v, was %v", held.Bounds[i], want[i])
		}
	}
}

func TestAdaptiveWidthReactsToRefreshKinds(t *testing.T) {
	clock := netsim.NewClock()
	net := netsim.NewNetwork()
	s := New("s1", clock, net, nil)
	pol := boundfn.NewAdaptiveWidth(2)
	if err := s.AddObject(1, []float64{10}, 1, pol); err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	if _, err := s.Subscribe(1, rec); err != nil {
		t.Fatal(err)
	}
	// Query refresh narrows.
	if _, err := queryRefresh(s, 1, rec); err != nil {
		t.Fatal(err)
	}
	v, q := pol.Counts()
	if v != 0 || q != 1 {
		t.Errorf("counts after query refresh = (%d, %d)", v, q)
	}
	// Escape widens: advance a little then jump far outside.
	clock.Advance(1)
	if err := s.SetValue(1, []float64{1e6}); err != nil {
		t.Fatal(err)
	}
	v, q = pol.Counts()
	if v != 1 {
		t.Errorf("value refresh count = %d", v)
	}
}

func TestCheckBoundsSweep(t *testing.T) {
	s, clock, _ := newTestSource(t)
	rec := &recorder{}
	if _, err := s.Subscribe(1, rec); err != nil {
		t.Fatal(err)
	}
	if n := s.CheckBounds(); n != 0 {
		t.Errorf("sweep with fresh bounds pushed %d", n)
	}
	// Mutate master value directly via SetValue at time 0 (bound is a
	// point at 10, so 11 escapes), but temporarily silence pushes by
	// advancing the clock after a wide refresh instead: simpler — at
	// t=0 the bound is the point [10,10]; setting 11 escapes and pushes.
	clock.Advance(0)
	if err := s.SetValue(1, []float64{11, 100}); err != nil {
		t.Fatal(err)
	}
	if len(rec.refreshes) != 1 {
		t.Fatalf("point-bound escape pushed %d refreshes", len(rec.refreshes))
	}
	// After the push the bounds are fresh again; a sweep is a no-op.
	if n := s.CheckBounds(); n != 0 {
		t.Errorf("post-refresh sweep pushed %d", n)
	}
}

func TestRefreshKindString(t *testing.T) {
	if ValueInitiated.String() != "value-initiated" || QueryInitiated.String() != "query-initiated" {
		t.Error("RefreshKind strings")
	}
}
