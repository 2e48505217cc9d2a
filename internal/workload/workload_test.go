package workload

import (
	"testing"

	"trapp/internal/relation"
)

func TestFigure2Fixture(t *testing.T) {
	rows := Figure2()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	tab := Figure2Store()
	if tab.Len() != 6 {
		t.Fatalf("table len = %d", tab.Len())
	}
	master := Figure2Master()
	// Every master value lies inside its cached bound.
	s := tab.Schema()
	lat := s.MustLookup(ColLatency)
	bw := s.MustLookup(ColBandwidth)
	tr := s.MustLookup(ColTraffic)
	for _, r := range rows {
		tu, _ := tab.Get(r.Key)
		m := master[r.Key]
		if !tu.Bounds[lat].Contains(m[0]) || !tu.Bounds[bw].Contains(m[1]) || !tu.Bounds[tr].Contains(m[2]) {
			t.Errorf("tuple %d: master %v outside bounds", r.Key, m)
		}
	}
	// Costs match Figure 2's refresh cost column.
	wantCosts := map[int64]float64{1: 3, 2: 6, 3: 6, 4: 8, 5: 4, 6: 2}
	for k, w := range wantCosts {
		if got, _ := tab.Get(k); got.Cost != w {
			t.Errorf("tuple %d cost = %g, want %g", k, got.Cost, w)
		}
	}
}

func TestStockDayDeterministicAndConsistent(t *testing.T) {
	a := StockDay(90, 42)
	b := StockDay(90, 42)
	if len(a) != 90 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("quote %d differs across identical seeds", i)
		}
		q := a[i]
		if q.Low > q.High {
			t.Errorf("quote %d: low %g > high %g", i, q.Low, q.High)
		}
		if q.Close < q.Low || q.Close > q.High {
			t.Errorf("quote %d: close %g outside [%g, %g]", i, q.Close, q.Low, q.High)
		}
		if q.Cost < 1 || q.Cost > 10 || q.Cost != float64(int(q.Cost)) {
			t.Errorf("quote %d: cost %g not an integer in [1, 10]", i, q.Cost)
		}
	}
	c := StockDay(90, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestStockDayIsVolatile(t *testing.T) {
	quotes := StockDay(90, 7)
	// The experiment needs meaningful bound widths; require an average
	// relative day range of at least 2%.
	var rel float64
	for _, q := range quotes {
		rel += (q.High - q.Low) / q.Close
	}
	rel /= float64(len(quotes))
	if rel < 0.02 {
		t.Errorf("average relative range = %.4f, want >= 0.02", rel)
	}
}

func TestStockTableAndMaster(t *testing.T) {
	quotes := StockDay(10, 1)
	tab := StockStore(quotes)
	if tab.Len() != 10 {
		t.Fatalf("table len = %d", tab.Len())
	}
	m := StockMaster(quotes)
	price := tab.Schema().MustLookup("price")
	for _, q := range quotes {
		tu, _ := tab.Get(int64(q.Symbol))
		mv, ok := m.Master(int64(q.Symbol))
		if !ok || !tu.Bounds[price].Contains(mv[0]) {
			t.Errorf("symbol %d: master %v outside bound %v", q.Symbol, mv, tu.Bounds[price])
		}
	}
}

func TestNewNetwork(t *testing.T) {
	n, err := NewNetwork(50, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Links) != 200 {
		t.Fatalf("links = %d", len(n.Links))
	}
	for _, l := range n.Links {
		if l.From == l.To {
			t.Errorf("self-loop on link %d", l.Key)
		}
		if l.From < 0 || l.From >= 50 || l.To < 0 || l.To >= 50 {
			t.Errorf("link %d endpoints out of range: %d→%d", l.Key, l.From, l.To)
		}
		v := l.Values()
		if len(v) != 3 || v[0] < 0 {
			t.Errorf("link %d values %v", l.Key, v)
		}
	}
}

func TestNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(1, 5, 0); err == nil {
		t.Error("1-node network accepted")
	}
	if _, err := NewNetwork(5, 0, 0); err == nil {
		t.Error("0-link network accepted")
	}
}

func TestNetworkStepChangesValues(t *testing.T) {
	n, err := NewNetwork(10, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := n.Links[0].Values()
	n.Step()
	after := n.Links[0].Values()
	changed := false
	for i := range before {
		if before[i] != after[i] {
			changed = true
		}
	}
	if !changed {
		t.Error("Step did not change any measurement")
	}
}

func TestNetworkPath(t *testing.T) {
	n, err := NewNetwork(10, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := n.Path(5, 1)
	if len(p) != 5 {
		t.Fatalf("path len = %d", len(p))
	}
}

func TestLinkSchemaShape(t *testing.T) {
	s := LinkSchema()
	if s.NumColumns() != 5 {
		t.Fatalf("columns = %d", s.NumColumns())
	}
	if len(s.BoundedColumns()) != 3 {
		t.Errorf("bounded columns = %v", s.BoundedColumns())
	}
	if s.Column(0).Kind != relation.Exact {
		t.Error("from column not exact")
	}
}
