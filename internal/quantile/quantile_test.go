package quantile

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"trapp/internal/interval"
	"trapp/internal/relation"
	"trapp/internal/workload"
)

func fig2Latency(t *testing.T) (*relation.Store, int, workload.MapOracle) {
	t.Helper()
	tab := workload.Figure2Store()
	col := tab.Schema().MustLookup(workload.ColLatency)
	return tab, col, workload.MapOracle(workload.Figure2Master())
}

// ExactKth computes the precise k-th smallest from master values (bounded
// columns in schema order), the ground truth for the bounded answers.
func ExactKth(st *relation.Store, col int, k int, master map[int64][]float64) (float64, bool) {
	ts := tuples(st)
	if k < 1 || k > len(ts) {
		return 0, false
	}
	pos := -1
	for j, c := range st.Schema().BoundedColumns() {
		if c == col {
			pos = j
		}
	}
	vals := make([]float64, 0, len(ts))
	for _, tu := range ts {
		if pos >= 0 {
			vals = append(vals, master[tu.Key][pos])
		} else {
			vals = append(vals, tu.Bounds[col].Lo)
		}
	}
	sort.Float64s(vals)
	return vals[k-1], true
}

func TestKthSmallestBounds(t *testing.T) {
	tab, col, _ := fig2Latency(t)
	// Latency bounds: [2,4],[5,7],[12,16],[9,11],[8,11],[4,6].
	// Sorted Lo: 2,4,5,8,9,12; sorted Hi: 4,6,7,11,11,16.
	cases := []struct {
		k    int
		want interval.Interval
	}{
		{1, interval.New(2, 4)},
		{2, interval.New(4, 6)},
		{3, interval.New(5, 7)},
		{4, interval.New(8, 11)},
		{6, interval.New(12, 16)},
	}
	for _, c := range cases {
		if got := KthSmallest(tab, col, c.k); !got.Equal(c.want) {
			t.Errorf("k=%d: %v, want %v", c.k, got, c.want)
		}
	}
	if !KthSmallest(tab, col, 0).IsEmpty() || !KthSmallest(tab, col, 7).IsEmpty() {
		t.Error("out-of-range k not empty")
	}
}

func TestMedianAndTopN(t *testing.T) {
	tab, col, _ := fig2Latency(t)
	// n=6 → median is the 3rd smallest: [5, 7] wait — ceil((6+1)/2)=3.
	if got := Median(tab, col); !got.Equal(interval.New(5, 7)) {
		t.Errorf("median = %v, want [5, 7]", got)
	}
	// 1st largest = 6th smallest.
	if got := TopN(tab, col, 1); !got.Equal(interval.New(12, 16)) {
		t.Errorf("top-1 = %v, want [12, 16]", got)
	}
	// 3rd largest = 4th smallest.
	if got := TopN(tab, col, 3); !got.Equal(interval.New(8, 11)) {
		t.Errorf("top-3 = %v, want [8, 11]", got)
	}
}

func TestExactKth(t *testing.T) {
	tab, col, master := fig2Latency(t)
	// True latencies: 3, 7, 13, 9, 11, 5 → sorted 3,5,7,9,11,13.
	if v, ok := ExactKth(tab, col, 3, master); !ok || v != 7 {
		t.Errorf("exact 3rd = %g, %v", v, ok)
	}
	if v, ok := ExactKth(tab, col, 6, master); !ok || v != 13 {
		t.Errorf("exact 6th = %g, %v", v, ok)
	}
	if _, ok := ExactKth(tab, col, 0, master); ok {
		t.Error("k=0 accepted")
	}
}

func TestBoundedKthContainsExact(t *testing.T) {
	tab, col, master := fig2Latency(t)
	for k := 1; k <= 6; k++ {
		bounded := KthSmallest(tab, col, k)
		exact, _ := ExactKth(tab, col, k, master)
		if !bounded.Contains(exact) {
			t.Errorf("k=%d: bound %v misses exact %g", k, bounded, exact)
		}
	}
}

func TestExecuteMedianMeetsConstraint(t *testing.T) {
	tab, col, master := fig2Latency(t)
	res, err := ExecuteMedian(tab, col, 1, master)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || res.Answer.Width() > 1+1e-9 {
		t.Fatalf("median not met: %v", res.Answer)
	}
	exact, _ := ExactKth(workload.Figure2Store(), col, 3, master)
	if !res.Answer.Expand(1e-9).Contains(exact) {
		t.Errorf("median answer %v excludes exact %g", res.Answer, exact)
	}
	if res.Refreshed == 0 {
		t.Error("no refreshes despite tight constraint")
	}
}

func TestExecuteKthNoRefreshWhenMet(t *testing.T) {
	tab, col, master := fig2Latency(t)
	res, err := ExecuteKth(tab, col, 3, 100, master)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refreshed != 0 {
		t.Errorf("refreshed %d with loose constraint", res.Refreshed)
	}
}

func TestExecuteKthErrors(t *testing.T) {
	tab, col, master := fig2Latency(t)
	if _, err := ExecuteKth(tab, col, 0, 1, master); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ExecuteKth(tab, col, 3, -1, master); err == nil {
		t.Error("negative R accepted")
	}
	if _, err := ExecuteKth(tab, col, 3, 0, nil); err == nil {
		t.Error("nil oracle accepted for refreshing query")
	}
}

// TestQuickKthSoundAndRefreshable: on random tables the bounded k-th
// contains the exact k-th, and the iterative executor meets any R.
func TestQuickKthSoundAndRefreshable(t *testing.T) {
	schema := relation.NewSchema(
		relation.Column{Name: "v", Kind: relation.Bounded},
	)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		tab := relation.NewStore(schema, 1)
		master := workload.MapOracle{}
		for i := 0; i < n; i++ {
			lo := r.Float64()*100 - 50
			w := r.Float64() * 20
			tab.MustInsert(relation.Tuple{
				Key:    int64(i + 1),
				Bounds: []interval.Interval{interval.New(lo, lo+w)},
				Cost:   1 + r.Float64()*9,
			})
			master[int64(i+1)] = []float64{lo + r.Float64()*w}
		}
		k := 1 + r.Intn(n)
		bounded := KthSmallest(tab, 0, k)
		exact, _ := ExactKth(tab, 0, k, master)
		if !bounded.Expand(1e-9).Contains(exact) {
			return false
		}
		R := r.Float64() * 10
		res, err := ExecuteKth(tab, 0, k, R, master)
		if err != nil || !res.Met {
			return false
		}
		if !res.Answer.Expand(1e-9).Contains(exact) {
			return false
		}
		return res.Answer.Width() <= R+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
