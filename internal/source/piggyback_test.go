package source

import (
	"context"
	"testing"

	"trapp/internal/boundfn"
	"trapp/internal/netsim"
)

// pbSource builds a source with two objects whose bounds will be ±4 after
// 4 ticks (width 2, √4 = 2).
func pbSource(t *testing.T) (*Source, *recorder, *netsim.Clock, *netsim.Network) {
	t.Helper()
	clock := netsim.NewClock()
	net := netsim.NewNetwork()
	s := New("s", clock, net, nil)
	for key, v := range map[int64]float64{1: 10, 2: 50} {
		if err := s.AddObject(key, []float64{v}, 2, boundfn.StaticWidth(2)); err != nil {
			t.Fatal(err)
		}
	}
	rec := &recorder{}
	for _, key := range []int64{1, 2} {
		if _, err := s.Subscribe(key, rec); err != nil {
			t.Fatal(err)
		}
	}
	return s, rec, clock, net
}

func TestPiggybackOnValueRefresh(t *testing.T) {
	s, rec, clock, net := pbSource(t)
	s.EnablePiggyback(0.5)
	clock.Advance(4) // bounds: 10±4 and 50±4
	// Move object 2 near its bound edge (within 50% of half-width from
	// the edge): 53.5 is 0.5 from the edge 54, half-width 4 → qualifies.
	if err := s.SetValue(2, []float64{53.5}); err != nil {
		t.Fatal(err)
	}
	if len(rec.refreshes) != 0 {
		t.Fatalf("in-bound move pushed %d refreshes", len(rec.refreshes))
	}
	// Now object 1 escapes; its refresh should piggyback object 2.
	if err := s.SetValue(1, []float64{20}); err != nil {
		t.Fatal(err)
	}
	if len(rec.refreshes) != 2 {
		t.Fatalf("got %d refreshes, want main + piggyback", len(rec.refreshes))
	}
	keys := map[int64]bool{}
	for _, r := range rec.refreshes {
		keys[r.Key] = true
	}
	if !keys[1] || !keys[2] {
		t.Errorf("refreshed keys %v, want {1, 2}", keys)
	}
	if net.Stats().Messages[netsim.Propagation] != 1 {
		t.Errorf("piggyback messages = %d", net.Stats().Messages[netsim.Propagation])
	}
	// Piggybacked refresh carries the current value.
	for _, r := range rec.refreshes {
		if r.Key == 2 && r.Values[0] != 53.5 {
			t.Errorf("piggybacked value = %g", r.Values[0])
		}
	}
}

func TestPiggybackOnQueryRefresh(t *testing.T) {
	s, rec, clock, _ := pbSource(t)
	s.EnablePiggyback(0.5)
	clock.Advance(4)
	if err := s.SetValue(2, []float64{53.5}); err != nil {
		t.Fatal(err)
	}
	b, err := s.QueryRefreshBatchCtx(context.Background(), []int64{1}, rec)
	if err != nil {
		t.Fatal(err)
	}
	// The piggybacked sibling rides behind the requested row, free.
	if len(b.Keys) != 2 || b.Requested != 1 || b.Keys[0] != 1 || b.Keys[1] != 2 {
		t.Fatalf("reply rows = %v (%d requested)", b.Keys, b.Requested)
	}
	if r := b.Refresh(1); r.Kind != ValueInitiated || r.Values[0] != 53.5 {
		t.Errorf("piggybacked row = %+v", r)
	}
	if len(rec.refreshes) != 0 {
		t.Errorf("the source called back into the subscriber: %+v", rec.refreshes)
	}
}

func TestPiggybackDisabledByDefault(t *testing.T) {
	s, rec, clock, _ := pbSource(t)
	clock.Advance(4)
	if err := s.SetValue(2, []float64{53.9}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetValue(1, []float64{20}); err != nil {
		t.Fatal(err)
	}
	if len(rec.refreshes) != 1 {
		t.Fatalf("got %d refreshes, want 1 (no piggyback)", len(rec.refreshes))
	}
}

func TestPiggybackSkipsCentralValues(t *testing.T) {
	s, rec, clock, _ := pbSource(t)
	s.EnablePiggyback(0.25)
	clock.Advance(4)
	// Object 2 stays at its center (50): never near the edge.
	if err := s.SetValue(1, []float64{20}); err != nil {
		t.Fatal(err)
	}
	if len(rec.refreshes) != 1 {
		t.Fatalf("central value piggybacked: %+v", rec.refreshes)
	}
}

func TestPiggybackFractionClamped(t *testing.T) {
	s, _, _, _ := pbSource(t)
	s.EnablePiggyback(-1)
	if s.piggyback != 0 {
		t.Error("negative fraction not clamped")
	}
	s.EnablePiggyback(2)
	if s.piggyback != 1 {
		t.Error("fraction above 1 not clamped")
	}
}

func TestPiggybackFreshBoundsNeverQualify(t *testing.T) {
	s, rec, _, _ := pbSource(t)
	s.EnablePiggyback(1) // most aggressive
	// At t=0 all bounds are points (half-width 0): nothing qualifies.
	if err := s.SetValue(1, []float64{20}); err != nil {
		t.Fatal(err)
	}
	for _, r := range rec.refreshes {
		if r.Key == 2 {
			t.Error("fresh point bound piggybacked")
		}
	}
}
