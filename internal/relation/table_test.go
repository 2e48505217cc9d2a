package relation

import (
	"math"
	"testing"

	"trapp/internal/interval"
)

func linkTuple(key int64, from, to float64, lat, bw, tr interval.Interval, cost float64) Tuple {
	return Tuple{
		Key: key,
		Bounds: []interval.Interval{
			interval.Point(from), interval.Point(to), lat, bw, tr,
		},
		Cost: cost,
	}
}

// mustInsert inserts the tuples into tab, failing the test on error.
func mustInsert(t *testing.T, tab *Table, tuples ...Tuple) {
	t.Helper()
	for _, tu := range tuples {
		if err := tab.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
}

func smallTable(t *testing.T) *Table {
	t.Helper()
	tab := newSortedTable(testSchema())
	mustInsert(t, tab,
		linkTuple(1, 1, 2, interval.New(2, 4), interval.New(60, 70), interval.New(95, 105), 3),
		linkTuple(2, 2, 4, interval.New(5, 7), interval.New(45, 60), interval.New(110, 120), 6))
	return tab
}

func TestTableInsertLen(t *testing.T) {
	tab := smallTable(t)
	if tab.Len() != 2 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if a, b := tab.At(0).Key, tab.At(1).Key; a+b != 3 || !CanonicalLess(a, b) {
		t.Errorf("keys %d, %d: want 1 and 2 in canonical order", a, b)
	}
}

func TestTableByKey(t *testing.T) {
	tab := smallTable(t)
	if i := tab.ByKey(2); i < 0 || tab.At(i).Key != 2 {
		t.Errorf("ByKey(2) = %d", i)
	}
	if tab.ByKey(99) != -1 {
		t.Errorf("ByKey(99) = %d", tab.ByKey(99))
	}
}

func TestTableInsertErrors(t *testing.T) {
	tab := newSortedTable(testSchema())
	// Wrong arity.
	if err := tab.Insert(Tuple{Key: 1, Bounds: []interval.Interval{interval.Point(1)}}); err == nil {
		t.Error("wrong arity accepted")
	}
	// Non-point exact column.
	bad := linkTuple(1, 0, 0, interval.New(1, 2), interval.New(1, 2), interval.New(1, 2), 1)
	bad.Bounds[0] = interval.New(1, 2)
	if err := tab.Insert(bad); err == nil {
		t.Error("non-point exact accepted")
	}
	// Negative cost.
	neg := linkTuple(1, 0, 0, interval.New(1, 2), interval.New(1, 2), interval.New(1, 2), -1)
	if err := tab.Insert(neg); err == nil {
		t.Error("negative cost accepted")
	}
	// Duplicate key.
	ok := linkTuple(1, 0, 0, interval.New(1, 2), interval.New(1, 2), interval.New(1, 2), 1)
	if err := tab.Insert(ok); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(ok); err == nil {
		t.Error("duplicate key accepted")
	}
	// Empty bound.
	empt := linkTuple(2, 0, 0, interval.Empty, interval.New(1, 2), interval.New(1, 2), 1)
	if err := tab.Insert(empt); err == nil {
		t.Error("empty bound accepted")
	}
}

// TestInsertRejectsNonFiniteCost: a NaN or infinite refresh cost — from a
// caller or a replayed log record — must not reach a knapsack solver.
func TestInsertRejectsNonFiniteCost(t *testing.T) {
	st := NewStore(testSchema(), 0)
	for i, cost := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tu := linkTuple(int64(i), 0, 0, interval.New(1, 2), interval.New(1, 2), interval.New(1, 2), cost)
		if err := st.Insert(tu); err == nil {
			t.Errorf("cost %g accepted", cost)
		}
	}
	if st.Len() != 0 {
		t.Errorf("Len = %d after rejected inserts", st.Len())
	}
}

func TestTableDelete(t *testing.T) {
	tab := smallTable(t)
	if !tab.Delete(1) {
		t.Fatal("Delete(1) = false")
	}
	if tab.Len() != 1 {
		t.Fatalf("Len after delete = %d", tab.Len())
	}
	if tab.ByKey(2) != 0 || tab.ByKey(1) != -1 {
		t.Error("delete left the rows out of place")
	}
	if tab.Delete(1) {
		t.Error("second Delete(1) = true")
	}
}

func TestTableRefresh(t *testing.T) {
	tab := smallTable(t)
	i := tab.ByKey(1)
	if err := tab.Refresh(i, []float64{3, 61, 98}); err != nil {
		t.Fatal(err)
	}
	tu := tab.At(i)
	lat := tu.Bounds[2]
	if !lat.IsPoint() || lat.Lo != 3 {
		t.Errorf("latency after refresh = %v", lat)
	}
	if !tu.Bounds[4].IsPoint() || tu.Bounds[4].Lo != 98 {
		t.Errorf("traffic after refresh = %v", tu.Bounds[4])
	}
	// Exact columns untouched.
	if tu.Bounds[0].Lo != 1 {
		t.Error("exact column modified")
	}
	// Wrong arity.
	if err := tab.Refresh(i, []float64{1}); err == nil {
		t.Error("wrong refresh arity accepted")
	}
}

func TestTableSetBound(t *testing.T) {
	tab := smallTable(t)
	if err := tab.SetBound(0, 2, interval.New(1, 9)); err != nil {
		t.Fatal(err)
	}
	if !tab.At(0).Bounds[2].Equal(interval.New(1, 9)) {
		t.Error("SetBound did not apply")
	}
	if err := tab.SetBound(0, 0, interval.New(1, 9)); err == nil {
		t.Error("non-point on exact column accepted")
	}
	if err := tab.SetBound(0, 2, interval.Empty); err == nil {
		t.Error("empty bound accepted")
	}
}

func TestTupleClone(t *testing.T) {
	tu := linkTuple(1, 0, 0, interval.New(1, 2), interval.New(3, 4), interval.New(5, 6), 1)
	c := tu.Clone()
	c.Bounds[2] = interval.Point(9)
	if tu.Bounds[2].IsPoint() {
		t.Error("Clone shares bounds")
	}
}
