package refresh

// The cost-bounded dual of CHOOSE_REFRESH. The paper's algorithm takes
// a precision constraint R and minimizes refresh cost; the dual takes a
// cost budget B and minimizes the guaranteed answer width:
//
//	maximize   width reduction of the refresh set
//	subject to Σ C_i over the refresh set ≤ B
//
// Per aggregate the structure inverts cleanly:
//
//   - SUM: the primal keeps tuples (knapsack of the complement); the
//     dual *selects* the refresh set directly — profit = the tuple's
//     residual width contribution (T? widths extended to include 0,
//     exactly the primal's weights), weight = its refresh cost C_i,
//     capacity = B. The same solvers apply with the roles swapped.
//   - AVG: SUM's knapsack; without a predicate the 1/COUNT scaling is a
//     constant and does not change the argmax. With a predicate, T?
//     profits carry the Appendix F reclassification slope at its
//     precise-target value (r = 0), the conservative inflation.
//   - MIN: the guaranteed lower endpoint is the smallest unrefreshed
//     L_i, so partial refreshes below a threshold buy nothing — useful
//     refresh sets are exactly the prefixes of the ascending-L_i order
//     (the Appendix B threshold structure inverted). Take the longest
//     affordable prefix, whole L-tie groups at a time. MAX is
//     symmetric over descending H_i.
//   - COUNT: each refreshed T? tuple shrinks the width by exactly 1, so
//     cheapest-first is optimal: refresh T? tuples in ascending cost
//     order while the budget lasts.
//
// Determinism: inputs arrive in the canonical order, cost ties are broken
// by that order and endpoint ties by object key, so the chosen plan —
// like the primal's — is bit-identical across physical store layouts.

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"trapp/internal/aggregate"
	"trapp/internal/knapsack"
	"trapp/internal/predicate"
)

// ChooseBudget selects the refresh set that maximizes the guaranteed
// width reduction of the aggregate subject to a total refresh cost of at
// most budget — the cost-bounded dual of ChooseFromInputs. A zero budget
// (or one smaller than every useful refresh) yields an empty plan; an
// infinite budget refreshes everything useful, reproducing precise mode.
// The returned plan always satisfies Plan.Cost ≤ budget.
func ChooseBudget(inputs []aggregate.Input, fn aggregate.Func, noPred bool, budget float64, tableLen int, opts Options) (Plan, error) {
	if budget < 0 || math.IsNaN(budget) {
		return Plan{}, fmt.Errorf("refresh: invalid cost budget %g", budget)
	}
	if budget == 0 || len(inputs) == 0 {
		return Plan{}, nil
	}
	switch fn {
	case aggregate.Min:
		return planFromInputs(budgetMin(inputs, budget)), nil
	case aggregate.Max:
		return planFromInputs(budgetMax(inputs, budget)), nil
	case aggregate.Sum:
		return planFromInputs(budgetKnapsack(inputs, noPred, budget, 0, opts)), nil
	case aggregate.Count:
		return planFromInputs(budgetCount(inputs, noPred, budget)), nil
	case aggregate.Avg:
		return planFromInputs(budgetAvg(inputs, noPred, budget, tableLen, opts)), nil
	default:
		return Plan{}, fmt.Errorf("refresh: unknown aggregate %v", fn)
	}
}

// budgetMin takes the longest affordable prefix of the ascending-L_i
// order over the tuples that can matter (L_i below the certain upper
// endpoint min over T+ of H_k — precisely the full-refresh set of the
// primal at R = 0). Tuples tied on L_i enter together or not at all:
// the guaranteed lower endpoint is the smallest unrefreshed L_i, so a
// partial tie group costs budget without narrowing the guarantee.
func budgetMin(inputs []aggregate.Input, budget float64) []aggregate.Input {
	minPlusH := math.Inf(1)
	for _, in := range inputs {
		if in.Class == predicate.Plus && in.Bound.Hi < minPlusH {
			minPlusH = in.Bound.Hi
		}
	}
	var cand []aggregate.Input
	for _, in := range inputs {
		if in.Bound.Lo < minPlusH {
			cand = append(cand, in)
		}
	}
	sort.SliceStable(cand, func(a, b int) bool {
		if cand[a].Bound.Lo != cand[b].Bound.Lo {
			return cand[a].Bound.Lo < cand[b].Bound.Lo
		}
		return cand[a].Key < cand[b].Key
	})
	return affordablePrefix(cand, budget, func(in aggregate.Input) float64 { return in.Bound.Lo })
}

// budgetMax is the symmetric prefix over descending H_i.
func budgetMax(inputs []aggregate.Input, budget float64) []aggregate.Input {
	maxPlusL := math.Inf(-1)
	for _, in := range inputs {
		if in.Class == predicate.Plus && in.Bound.Lo > maxPlusL {
			maxPlusL = in.Bound.Lo
		}
	}
	var cand []aggregate.Input
	for _, in := range inputs {
		if in.Bound.Hi > maxPlusL {
			cand = append(cand, in)
		}
	}
	sort.SliceStable(cand, func(a, b int) bool {
		if cand[a].Bound.Hi != cand[b].Bound.Hi {
			return cand[a].Bound.Hi > cand[b].Bound.Hi
		}
		return cand[a].Key < cand[b].Key
	})
	return affordablePrefix(cand, budget, func(in aggregate.Input) float64 { return in.Bound.Hi })
}

// affordablePrefix walks the ordered candidates, admitting whole groups
// of tuples tied on endpoint(·), and stops at the first group that does
// not fit the remaining budget.
func affordablePrefix(cand []aggregate.Input, budget float64, endpoint func(aggregate.Input) float64) []aggregate.Input {
	var chosen []aggregate.Input
	spent := 0.0
	for i := 0; i < len(cand); {
		j := i + 1
		groupCost := cand[i].Cost
		for j < len(cand) && endpoint(cand[j]) == endpoint(cand[i]) {
			groupCost += cand[j].Cost
			j++
		}
		if spent+groupCost > budget {
			break
		}
		chosen = append(chosen, cand[i:j]...)
		spent += groupCost
		i = j
	}
	return chosen
}

// budgetCount refreshes T? tuples cheapest-first while the budget lasts;
// each one shrinks the COUNT width by exactly 1, so cheapest-first
// maximizes the reduction.
func budgetCount(inputs []aggregate.Input, noPred bool, budget float64) []aggregate.Input {
	if noPred {
		return nil // COUNT without a predicate is already exact
	}
	var maybes []aggregate.Input
	for _, in := range inputs {
		if in.Class == predicate.Maybe {
			maybes = append(maybes, in)
		}
	}
	return cheapestAffordable(maybes, budget)
}

// cheapestAffordable sorts the candidates by (cost, input order), as the
// primal COUNT does, and takes them greedily while the budget lasts — the
// shared spend rule of the COUNT dual and the degenerate
// no-certain-tuple AVG fallback.
func cheapestAffordable(cand []aggregate.Input, budget float64) []aggregate.Input {
	cand = append([]aggregate.Input(nil), cand...)
	slices.SortFunc(cand, cheaperFirst)
	var chosen []aggregate.Input
	spent := 0.0
	for _, in := range cand {
		if spent+in.Cost > budget {
			break
		}
		chosen = append(chosen, in)
		spent += in.Cost
	}
	return chosen
}

// budgetKnapsack solves the inverted SUM/AVG knapsack: select the
// refresh set directly, profit = residual width contribution (plus the
// optional T? slope inflation), weight = refresh cost, capacity =
// budget. Zero-profit tuples are excluded up front — refreshing a point
// bound buys nothing and must not consume budget.
func budgetKnapsack(inputs []aggregate.Input, noPred bool, budget, maybeSlope float64, opts Options) []aggregate.Input {
	useful := make([]aggregate.Input, 0, len(inputs))
	items := make([]knapsack.Item, 0, len(inputs))
	for _, in := range inputs {
		w := sumWeight(in, noPred)
		if !noPred && in.Class == predicate.Maybe {
			w += maybeSlope
		}
		if w <= 0 {
			continue
		}
		useful = append(useful, in)
		items = append(items, knapsack.Item{Profit: w, Weight: in.Cost})
	}
	if len(useful) == 0 {
		return nil
	}
	// Fast path: everything useful fits, refresh it all (precise mode).
	total := 0.0
	for _, it := range items {
		total += it.Weight
	}
	if total <= budget {
		return useful
	}
	sol := solve(items, budget, opts)
	chosen := make([]aggregate.Input, len(sol.Selected))
	for i, j := range sol.Selected {
		chosen[i] = useful[j]
	}
	return chosen
}

// budgetAvg is the AVG dual. Without a predicate the 1/n scaling is
// constant, so it is SUM's knapsack. With one, T? profits are inflated
// by the Appendix F reclassification slope at its precise-target value;
// with no certain tuple the loose AVG bound has no usable denominator
// (the primal falls back to full refresh), so the dual degrades to
// spending the budget cheapest-first.
func budgetAvg(inputs []aggregate.Input, noPred bool, budget float64, tableLen int, opts Options) []aggregate.Input {
	if noPred {
		if tableLen == 0 {
			return nil
		}
		return budgetKnapsack(inputs, true, budget, 0, opts)
	}
	sum := aggregate.EvalInputs(inputs, aggregate.Sum, false, tableLen)
	lCount := 0
	for _, in := range inputs {
		if in.Class == predicate.Plus {
			lCount++
		}
	}
	if lCount == 0 {
		return cheapestAffordable(inputs, budget)
	}
	slope := math.Max(sum.Hi, math.Max(-sum.Lo, sum.Hi-sum.Lo)) / float64(lCount)
	if slope < 0 {
		slope = 0
	}
	return budgetKnapsack(inputs, false, budget, slope, opts)
}
