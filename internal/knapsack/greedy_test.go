package knapsack

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// tieHeavyItems draws n items whose densities and weights collide often:
// integer profits 1..10 and weights from a dozen values. zeroAndInf mixes
// in zero-weight items (both signs of zero) and +Inf weights.
func tieHeavyItems(r *rand.Rand, n int, zeroAndInf bool) []Item {
	weights := []float64{0.5, 1, 1.5, 2, 2.5, 3, 4, 5, 6, 8, 10, 12}
	items := make([]Item, n)
	for i := range items {
		it := Item{Profit: float64(1 + r.Intn(10)), Weight: weights[r.Intn(len(weights))]}
		if zeroAndInf {
			switch r.Intn(10) {
			case 0:
				it.Weight = 0
			case 1:
				it.Weight = math.Copysign(0, -1)
			case 2:
				it.Weight = math.Inf(1)
			}
		}
		items[i] = it
	}
	return items
}

// refGreedy fills in the order a stable sort by less gives — ties keep
// index order — taking every item that fits, or stopping at the first
// that does not when stopAtMiss is set.
func refGreedy(items []Item, capacity float64, less func(a, b Item) bool, stopAtMiss bool) Solution {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return less(items[order[a]], items[order[b]]) })
	take := make([]bool, len(items))
	var w float64
	for _, i := range order {
		if w+items[i].Weight <= capacity {
			take[i] = true
			w += items[i].Weight
		} else if stopAtMiss {
			break
		}
	}
	var s Solution
	for i, t := range take {
		if t {
			s.Selected = append(s.Selected, i)
			s.Profit += items[i].Profit
			s.Weight += items[i].Weight
		}
	}
	return s
}

func refGreedyUniform(items []Item, capacity float64) Solution {
	return refGreedy(items, capacity, func(a, b Item) bool { return a.Weight < b.Weight }, true)
}

func refGreedyDensity(items []Item, capacity float64) Solution {
	greedy := refGreedy(items, capacity, func(a, b Item) bool {
		if (a.Weight == 0) != (b.Weight == 0) {
			return a.Weight == 0
		}
		return a.Weight != 0 && a.Profit/a.Weight > b.Profit/b.Weight
	}, false)
	best := -1
	for i, it := range items {
		if it.Weight <= capacity && (best < 0 || it.Profit > items[best].Profit) {
			best = i
		}
	}
	if best >= 0 && items[best].Profit > greedy.Profit {
		return Solution{Selected: []int{best}, Profit: items[best].Profit, Weight: items[best].Weight}
	}
	return greedy
}

// TestGreedyMatchesStableReference checks both greedy solvers against a
// stable comparison sort on the same key: on tie-heavy instances the
// selected sets must be identical, so ties go to the lower index.
func TestGreedyMatchesStableReference(t *testing.T) {
	solvers := []struct {
		name     string
		got, ref func([]Item, float64) Solution
	}{
		{"GreedyDensity", GreedyDensity, refGreedyDensity},
		{"GreedyUniform", GreedyUniform, refGreedyUniform},
	}
	r := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 2, 13, 2000, 25000} {
		trials := 40
		if n >= 2000 {
			trials = 4
		}
		for trial := 0; trial < trials; trial++ {
			items := tieHeavyItems(r, n, trial%2 == 1)
			var finite float64
			for _, it := range items {
				if !math.IsInf(it.Weight, 1) {
					finite += it.Weight
				}
			}
			for _, capacity := range []float64{0, 0.1 * finite, 0.5 * finite, 0.9 * finite, math.Inf(1)} {
				for _, s := range solvers {
					got, want := s.got(items, capacity), s.ref(items, capacity)
					if !slices.Equal(got.Selected, want.Selected) || got.Profit != want.Profit || got.Weight != want.Weight {
						t.Fatalf("%s n=%d trial %d capacity %g: got %d items (profit %g, weight %g), stable reference %d (profit %g, weight %g)",
							s.name, n, trial, capacity, len(got.Selected), got.Profit, got.Weight,
							len(want.Selected), want.Profit, want.Weight)
					}
				}
			}
		}
	}
}

// TestValidateInfinities: +Inf is a legal profit (an unbounded width in
// the cost-budgeted dual) and a legal weight (one in the primal), but not
// both at once, where the density is NaN.
func TestValidateInfinities(t *testing.T) {
	for _, it := range []Item{
		{Profit: math.NaN(), Weight: 1},
		{Profit: math.Inf(-1), Weight: 1},
		{Profit: 1, Weight: math.NaN()},
		{Profit: math.Inf(1), Weight: math.Inf(1)},
	} {
		if err := validate([]Item{it}, 5); err == nil {
			t.Errorf("item %+v accepted", it)
		}
	}
	items := []Item{{Profit: 3, Weight: 2}, {Profit: math.Inf(1), Weight: 4}, {Profit: 1, Weight: math.Inf(1)}, {Profit: math.Inf(1), Weight: 1}}
	solvers := map[string]func() Solution{
		"GreedyDensity": func() Solution { return GreedyDensity(items, 5) },
		"GreedyUniform": func() Solution { return GreedyUniform(items, 5) },
		"Approx":        func() Solution { return Approx(items, 5, 0.1) },
	}
	for name, solve := range solvers {
		if s := solve(); !math.IsInf(s.Profit, 1) || s.Weight > 5 {
			t.Errorf("%s: profit %g weight %g, want an infinite-profit fill within 5", name, s.Profit, s.Weight)
		}
	}
	if _, err := ExactDP(items, 5); err != ErrNonIntegerProfit {
		t.Errorf("ExactDP with +Inf profit: err %v, want ErrNonIntegerProfit", err)
	}
}

// BenchmarkGreedyDensity measures one density-greedy solve at the
// candidate counts of a 2 000-link table and a 25 000-row tenant, with
// integer costs 1..10, continuous widths and a capacity of a third of
// the total width, the shape of a budgeted SUM refresh selection.
// ns/candidate is the cost per input item.
func BenchmarkGreedyDensity(b *testing.B) {
	for _, n := range []int{2000, 25000} {
		r := rand.New(rand.NewSource(int64(n)))
		items := make([]Item, n)
		var total float64
		for i := range items {
			items[i] = Item{Profit: float64(1 + r.Intn(10)), Weight: r.Float64() * 10}
			total += items[i].Weight
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				GreedyDensity(items, total/3)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/candidate")
		})
	}
}
