package knapsack

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBruteForceSmall(t *testing.T) {
	items := []Item{{Profit: 60, Weight: 10}, {Profit: 100, Weight: 20}, {Profit: 120, Weight: 30}}
	sol := BruteForce(items, 50)
	if sol.Profit != 220 {
		t.Errorf("profit = %g, want 220", sol.Profit)
	}
	if sol.Weight != 50 {
		t.Errorf("weight = %g, want 50", sol.Weight)
	}
}

func TestBruteForceEmpty(t *testing.T) {
	sol := BruteForce(nil, 10)
	if sol.Profit != 0 || len(sol.Selected) != 0 {
		t.Errorf("empty instance: %+v", sol)
	}
}

func TestBruteForceZeroCapacity(t *testing.T) {
	items := []Item{{Profit: 5, Weight: 1}, {Profit: 7, Weight: 0}}
	sol := BruteForce(items, 0)
	// Only the zero-weight item fits.
	if sol.Profit != 7 || len(sol.Selected) != 1 || sol.Selected[0] != 1 {
		t.Errorf("zero capacity: %+v", sol)
	}
}

func TestExactDPMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(12)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				Profit: float64(1 + r.Intn(10)),
				Weight: r.Float64() * 20,
			}
		}
		cap := r.Float64() * 60
		want := BruteForce(items, cap)
		got, err := ExactDP(items, cap)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Weight > cap+1e-9 {
			t.Fatalf("trial %d: DP infeasible: weight %g > cap %g", trial, got.Weight, cap)
		}
		if math.Abs(got.Profit-want.Profit) > 1e-9 {
			t.Fatalf("trial %d: DP profit %g != optimal %g\nitems=%v cap=%g",
				trial, got.Profit, want.Profit, items, cap)
		}
	}
}

func TestExactDPRejectsFractionalProfit(t *testing.T) {
	_, err := ExactDP([]Item{{Profit: 1.5, Weight: 1}}, 10)
	if err != ErrNonIntegerProfit {
		t.Errorf("err = %v, want ErrNonIntegerProfit", err)
	}
}

func TestExactDPSelectionConsistent(t *testing.T) {
	items := []Item{{Profit: 2, Weight: 2}, {Profit: 2, Weight: 3}, {Profit: 4, Weight: 5}, {Profit: 1, Weight: 1}}
	sol, err := ExactDP(items, 6)
	if err != nil {
		t.Fatal(err)
	}
	var p, w float64
	for _, i := range sol.Selected {
		p += items[i].Profit
		w += items[i].Weight
	}
	if p != sol.Profit || w != sol.Weight {
		t.Errorf("selection sums (%g, %g) disagree with solution (%g, %g)", p, w, sol.Profit, sol.Weight)
	}
}

func TestComplement(t *testing.T) {
	s := Solution{Selected: []int{0, 2, 3}}
	got := s.Complement(5)
	want := []int{1, 4}
	if len(got) != len(want) {
		t.Fatalf("complement = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("complement = %v, want %v", got, want)
		}
	}
}

func TestApproxFeasibleAndNearOptimal(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(14)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Profit: 1 + r.Float64()*9, Weight: r.Float64() * 20}
		}
		cap := r.Float64() * 60
		opt := BruteForce(items, cap)
		for _, eps := range []float64{0.5, 0.1, 0.05} {
			got := Approx(items, cap, eps)
			if got.Weight > cap+1e-9 {
				t.Fatalf("eps=%g trial %d: infeasible weight %g > %g", eps, trial, got.Weight, cap)
			}
			if got.Profit < (1-eps)*opt.Profit-1e-9 {
				t.Fatalf("eps=%g trial %d: profit %g < (1-eps)*opt %g",
					eps, trial, got.Profit, (1-eps)*opt.Profit)
			}
		}
	}
}

func TestApproxCoarsensToTheMemoryCeiling(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	items := make([]Item, 300)
	var weights float64
	for i := range items {
		items[i] = Item{Profit: 1 + r.Float64()*9, Weight: 1 + r.Float64()*9}
		weights += items[i].Weight
	}
	capacity := weights / 2
	// At ε = 0.01 the table would hold n × Σp/K ≈ n³/(2ε) cells, past the
	// ceiling: K is coarsened and the solution reports the weaker ε.
	got := Approx(items, capacity, 0.01)
	if !(got.Eps > 0.01 && got.Eps < 1) {
		t.Fatalf("reported ε = %g, want a coarsened ε in (0.01, 1)", got.Eps)
	}
	if got.Weight > capacity {
		t.Errorf("infeasible weight %g > %g", got.Weight, capacity)
	}
	// The greedy is a lower bound on OPT, so the reported guarantee
	// holds against it too.
	if greedy := GreedyDensity(items, capacity); got.Profit < (1-got.Eps)*greedy.Profit {
		t.Errorf("profit %g < (1-%g)·greedy %g", got.Profit, got.Eps, greedy.Profit)
	}
	// Under the ceiling the requested ε stands.
	if small := Approx(items[:20], capacity, 0.01); small.Eps != 0.01 {
		t.Errorf("a 20-item instance reports ε = %g, want 0.01", small.Eps)
	}
}

func TestApproxEmptyAndAllTooHeavy(t *testing.T) {
	if sol := Approx(nil, 5, 0.1); sol.Profit != 0 {
		t.Errorf("empty: %+v", sol)
	}
	items := []Item{{Profit: 10, Weight: 100}, {Profit: 20, Weight: 200}}
	if sol := Approx(items, 5, 0.1); len(sol.Selected) != 0 {
		t.Errorf("all too heavy: %+v", sol)
	}
}

func TestApproxPanicsOnBadEps(t *testing.T) {
	for _, eps := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("eps=%g did not panic", eps)
				}
			}()
			Approx([]Item{{Profit: 1, Weight: 1}}, 5, eps)
		}()
	}
}

func TestGreedyUniformOptimalForUniformProfits(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(12)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Profit: 3, Weight: r.Float64() * 10}
		}
		cap := r.Float64() * 40
		want := BruteForce(items, cap)
		got := GreedyUniform(items, cap)
		if got.Weight > cap+1e-9 {
			t.Fatalf("trial %d: infeasible", trial)
		}
		if math.Abs(got.Profit-want.Profit) > 1e-9 {
			t.Fatalf("trial %d: greedy %g != opt %g", trial, got.Profit, want.Profit)
		}
	}
}

func TestGreedyDensityHalfApprox(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(12)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Profit: r.Float64() * 10, Weight: r.Float64() * 10}
		}
		cap := r.Float64() * 30
		opt := BruteForce(items, cap)
		got := GreedyDensity(items, cap)
		if got.Weight > cap+1e-9 {
			t.Fatalf("trial %d: infeasible", trial)
		}
		if opt.Profit > 0 && got.Profit < 0.5*opt.Profit-1e-9 {
			t.Fatalf("trial %d: density %g < opt/2 %g", trial, got.Profit, opt.Profit/2)
		}
	}
}

func TestGreedyDensityZeroWeightFirst(t *testing.T) {
	items := []Item{{Profit: 1, Weight: 5}, {Profit: 0.5, Weight: 0}, {Profit: 3, Weight: 0}}
	sol := GreedyDensity(items, 5)
	if sol.Profit != 4.5 {
		t.Errorf("profit = %g, want 4.5 (all items)", sol.Profit)
	}
}

func TestValidateRejectsNegative(t *testing.T) {
	if _, err := ExactDP([]Item{{Profit: -1, Weight: 1}}, 5); err == nil {
		t.Error("negative profit accepted")
	}
	if _, err := ExactDP([]Item{{Profit: 1, Weight: -1}}, 5); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := ExactDP([]Item{{Profit: 1, Weight: 1}}, -5); err == nil {
		t.Error("negative capacity accepted")
	}
}

// TestQuickDPFeasibleAndDominatesGreedy verifies on random instances that
// the exact DP never violates capacity and is at least as good as both
// greedy heuristics.
func TestQuickDPDominatesHeuristics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Profit: float64(1 + r.Intn(10)), Weight: r.Float64() * 15}
		}
		cap := r.Float64() * 80
		dp, err := ExactDP(items, cap)
		if err != nil {
			return false
		}
		if dp.Weight > cap+1e-9 {
			return false
		}
		if g := GreedyDensity(items, cap); g.Profit > dp.Profit+1e-9 {
			return false
		}
		if a := Approx(items, cap, 0.1); a.Profit > dp.Profit+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
