package refresh

import (
	"math"
	"math/rand"
	"testing"

	"trapp/internal/aggregate"
	"trapp/internal/interval"
	"trapp/internal/predicate"
)

// budgetInput builds one no-predicate input.
func budgetInput(key int64, lo, hi, cost float64) aggregate.Input {
	return aggregate.Input{
		Key:   key,
		Bound: interval.New(lo, hi),
		Cost:  cost,
		Class: predicate.Plus,
	}
}

// bruteBudgetSum enumerates every refresh subset with cost ≤ budget and
// returns the maximum total width removed — the SUM dual's objective.
func bruteBudgetSum(inputs []aggregate.Input, budget float64) float64 {
	n := len(inputs)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		var cost, width float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				cost += inputs[i].Cost
				width += inputs[i].Bound.Width()
			}
		}
		if cost <= budget && width > best {
			best = width
		}
	}
	return best
}

func TestChooseBudgetSumMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(10)
		inputs := make([]aggregate.Input, n)
		for i := range inputs {
			lo := rng.Float64() * 50
			w := float64(rng.Intn(8))
			inputs[i] = budgetInput(int64(i+1), lo, lo+w, float64(1+rng.Intn(9)))
			inputs[i].Index = i
		}
		budget := float64(rng.Intn(30))
		plan, err := ChooseBudget(inputs, aggregate.Sum, true, budget, n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Cost > budget {
			t.Fatalf("trial %d: plan cost %g over budget %g", trial, plan.Cost, budget)
		}
		byKey := make(map[int64]aggregate.Input, n)
		for _, in := range inputs {
			byKey[in.Key] = in
		}
		removed := 0.0
		for _, key := range plan.Keys {
			removed += byKey[key].Bound.Width()
		}
		if opt := bruteBudgetSum(inputs, budget); removed < opt-1e-9 {
			t.Fatalf("trial %d (budget %g): removed width %g, optimum %g\ninputs %+v",
				trial, budget, removed, opt, inputs)
		}
	}
}

// TestChooseBudgetUnboundedBounds: a recovered tuple not yet
// re-handshaked has an unbounded bound, so its profit in the SUM/AVG
// dual is +Inf. Every solver must plan within the budget, refreshing one
// such tuple, rather than panic.
func TestChooseBudgetUnboundedBounds(t *testing.T) {
	var inputs []aggregate.Input
	for i := 0; i < 12; i++ {
		in := budgetInput(int64(i+1), 0, float64(1+i%4), float64(1+i%3))
		if i%3 == 0 {
			in.Bound = interval.Unbounded
		}
		in.Index = i
		inputs = append(inputs, in)
	}
	const budget = 5 // below the total cost of 24
	for _, solver := range []Solver{Auto, SolverExactDP, SolverApprox, SolverGreedyUniform, SolverGreedyDensity} {
		for _, fn := range []aggregate.Func{aggregate.Sum, aggregate.Avg} {
			plan, err := ChooseBudget(inputs, fn, true, budget, len(inputs), Options{Solver: solver})
			if err != nil {
				t.Fatal(err)
			}
			unbounded := 0
			for _, i := range plan.Indexes {
				if inputs[i].Bound == interval.Unbounded {
					unbounded++
				}
			}
			if plan.Cost > budget || unbounded == 0 {
				t.Errorf("solver %v %v: plan %v costs %g (budget %d), %d unbounded refreshed",
					solver, fn, plan.Indexes, plan.Cost, budget, unbounded)
			}
		}
	}
}

func TestChooseBudgetMinIsAffordableAscendingPrefix(t *testing.T) {
	// MIN's guaranteed lower endpoint is the smallest unrefreshed L, so
	// the useful refresh sets are ascending-L prefixes. Four tuples with
	// L = 1, 2, 3, 40 and costs 5, 1, 1, 1; minPlusH is 20 (so the L=40
	// tuple is never useful).
	inputs := []aggregate.Input{
		budgetInput(1, 1, 20, 5),
		budgetInput(2, 2, 25, 1),
		budgetInput(3, 3, 30, 1),
		budgetInput(4, 40, 60, 1),
	}
	// Budget 4 cannot afford the L=1 head of the prefix: nothing is
	// refreshed (skipping ahead to the cheap L=2 tuple would not raise
	// the guaranteed bound).
	plan, err := ChooseBudget(inputs, aggregate.Min, true, 4, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 0 {
		t.Fatalf("budget 4 chose %v, want empty (prefix head unaffordable)", plan.Keys)
	}
	// Budget 6 buys the first two; budget 7 the full useful prefix.
	plan, err = ChooseBudget(inputs, aggregate.Min, true, 6, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Keys) != 2 || plan.Keys[0] != 1 || plan.Keys[1] != 2 {
		t.Fatalf("budget 6 chose %v, want [1 2]", plan.Keys)
	}
	plan, err = ChooseBudget(inputs, aggregate.Min, true, 7, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Keys) != 3 {
		t.Fatalf("budget 7 chose %v, want [1 2 3]", plan.Keys)
	}
}

func TestChooseBudgetMinTieGroupsAtomic(t *testing.T) {
	// Two tuples tied at L = 1: refreshing only one leaves the guaranteed
	// endpoint at 1, so the pair is all-or-nothing.
	inputs := []aggregate.Input{
		budgetInput(1, 1, 20, 3),
		budgetInput(2, 1, 25, 3),
		budgetInput(3, 5, 30, 1),
	}
	plan, err := ChooseBudget(inputs, aggregate.Min, true, 5, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 0 {
		t.Fatalf("budget 5 split a tie group: %v", plan.Keys)
	}
	plan, err = ChooseBudget(inputs, aggregate.Min, true, 6, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Keys) != 2 {
		t.Fatalf("budget 6 chose %v, want the L=1 pair", plan.Keys)
	}
}

func TestChooseBudgetCountCheapestFirst(t *testing.T) {
	// COUNT's width is |T?|; every refreshed T? tuple removes 1, so the
	// dual refreshes the cheapest T? tuples while the budget lasts.
	mk := func(key int64, cls predicate.Class, cost float64) aggregate.Input {
		return aggregate.Input{Key: key, Bound: interval.New(0, 10), Cost: cost, Class: cls}
	}
	inputs := []aggregate.Input{
		mk(1, predicate.Plus, 1),
		mk(2, predicate.Maybe, 5),
		mk(3, predicate.Maybe, 2),
		mk(4, predicate.Maybe, 3),
	}
	plan, err := ChooseBudget(inputs, aggregate.Count, false, 5, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Keys) != 2 || plan.Keys[0] != 3 || plan.Keys[1] != 4 {
		t.Fatalf("chose %v, want cheapest T? pair [3 4]", plan.Keys)
	}
	// Without a predicate COUNT is exact: nothing to buy.
	plan, err = ChooseBudget(inputs, aggregate.Count, true, 100, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 0 {
		t.Fatalf("no-predicate COUNT refreshed %v", plan.Keys)
	}
}

func TestChooseBudgetEdgeCases(t *testing.T) {
	inputs := []aggregate.Input{budgetInput(1, 0, 10, 2)}
	if _, err := ChooseBudget(inputs, aggregate.Sum, true, -1, 1, Options{}); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := ChooseBudget(inputs, aggregate.Sum, true, math.NaN(), 1, Options{}); err == nil {
		t.Error("NaN budget accepted")
	}
	plan, err := ChooseBudget(inputs, aggregate.Sum, true, 0, 1, Options{})
	if err != nil || plan.Len() != 0 {
		t.Errorf("zero budget: plan %v, err %v", plan.Keys, err)
	}
	// Infinite budget refreshes everything useful — the precise plan.
	plan, err = ChooseBudget(inputs, aggregate.Sum, true, math.Inf(1), 1, Options{})
	if err != nil || plan.Len() != 1 {
		t.Errorf("infinite budget: plan %v, err %v", plan.Keys, err)
	}
	// Point bounds buy nothing and must not consume budget.
	points := []aggregate.Input{budgetInput(1, 5, 5, 1), budgetInput(2, 0, 4, 1)}
	plan, err = ChooseBudget(points, aggregate.Sum, true, 1, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Keys) != 1 || plan.Keys[0] != 2 {
		t.Errorf("chose %v, want only the wide tuple [2]", plan.Keys)
	}
}
