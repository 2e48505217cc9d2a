package relation

import (
	"testing"

	"trapp/internal/interval"
)

func indexTable(t *testing.T) *Table {
	t.Helper()
	tab := newSortedTable(testSchema())
	// Figure 2 latency bounds.
	data := []struct {
		key  int64
		lat  interval.Interval
		cost float64
	}{
		{1, interval.New(2, 4), 3},
		{2, interval.New(5, 7), 6},
		{3, interval.New(12, 16), 6},
		{4, interval.New(9, 11), 8},
		{5, interval.New(8, 11), 4},
		{6, interval.New(4, 6), 2},
	}
	for _, d := range data {
		mustInsert(t, tab, linkTuple(d.key, 0, 0, d.lat, interval.New(0, 1), interval.New(0, 1), d.cost))
	}
	return tab
}

func TestIndexLowerEndpoint(t *testing.T) {
	tab := indexTable(t)
	lat := tab.Schema().MustLookup("latency")
	idx := newIndex(tab, lat, LowerEndpoint)
	if idx.Len() != 6 {
		t.Fatalf("Len = %d", idx.Len())
	}
	q, key, ok := idx.Min()
	if !ok || q != 2 || key != 1 {
		t.Errorf("Min = (%g, %d)", q, key)
	}
	keys := idx.KeysLess(8)
	// L < 8: tuples 1 (L=2), 6 (L=4), 2 (L=5)
	want := map[int64]bool{1: true, 2: true, 6: true}
	if len(keys) != 3 {
		t.Fatalf("KeysLess(8) = %v", keys)
	}
	for _, k := range keys {
		if !want[k] {
			t.Errorf("unexpected key %d", k)
		}
	}
}

func TestIndexUpperEndpoint(t *testing.T) {
	tab := indexTable(t)
	lat := tab.Schema().MustLookup("latency")
	idx := newIndex(tab, lat, UpperEndpoint)
	q, key, ok := idx.Min()
	if !ok || q != 4 || key != 1 {
		t.Errorf("Min upper = (%g, %d)", q, key)
	}
	keys := idx.KeysGreater(11)
	if len(keys) != 1 || keys[0] != 3 {
		t.Errorf("KeysGreater(11) = %v", keys)
	}
}

func TestIndexUpdateAfterRefresh(t *testing.T) {
	tab := indexTable(t)
	lat := tab.Schema().MustLookup("latency")
	idx := newIndex(tab, lat, LowerEndpoint)
	// Refresh tuple 1's bounded columns to exact values; latency 3.
	i := tab.ByKey(1)
	if err := tab.Refresh(i, []float64{3, 0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := idx.Update(1); err != nil {
		t.Fatal(err)
	}
	q, key, _ := idx.Min()
	if q != 3 || key != 1 {
		t.Errorf("Min after refresh = (%g, %d), want (3, 1)", q, key)
	}
	if err := idx.Update(999); err == nil {
		t.Error("Update(999) did not fail")
	}
}

func TestIndexRemove(t *testing.T) {
	tab := indexTable(t)
	lat := tab.Schema().MustLookup("latency")
	idx := newIndex(tab, lat, LowerEndpoint)
	tab.Delete(1)
	idx.Remove(1)
	if idx.Len() != 5 {
		t.Fatalf("Len after remove = %d", idx.Len())
	}
	q, key, _ := idx.Min()
	if q != 4 || key != 6 {
		t.Errorf("Min after remove = (%g, %d)", q, key)
	}
	idx.Remove(1) // idempotent
	if idx.Len() != 5 {
		t.Error("double remove changed size")
	}
}

func TestEndpointKindString(t *testing.T) {
	if LowerEndpoint.String() != "lower" || UpperEndpoint.String() != "upper" {
		t.Error("EndpointKind.String wrong")
	}
}
