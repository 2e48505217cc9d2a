// Package quantile extends TRAPP/AG with bounded order-statistic queries —
// MEDIAN, general k-th smallest, and TOP-n — the first item on the paper's
// future-work list (section 8.1, citing the companion paper [FMP+00],
// "Computing the median with uncertainty").
//
// The bounded answer for the k-th smallest value over bounds
// [L_1,H_1]..[L_n,H_n] is
//
//	[ k-th smallest of {L_i},  k-th smallest of {H_i} ]
//
// which follows from the monotonicity of order statistics: pushing every
// value to its lower endpoint minimizes the k-th smallest, pushing every
// value to its upper endpoint maximizes it, and the statistic moves
// continuously in between.
//
// Refresh selection for order statistics does not reduce to a knapsack the
// way SUM does — refreshing a tuple helps only if its bound overlaps the
// answer region — so this package provides the iterative strategy the
// paper sketches in section 8.2: repeatedly refresh the cheapest tuple
// whose bound overlaps the current answer interval, recomputing after each
// refresh, until the precision constraint is met. Each step strictly
// shrinks some bound to a point, so the loop terminates with an exact
// answer in the worst case.
package quantile

import (
	"fmt"
	"math"
	"sort"

	"trapp/internal/interval"
	"trapp/internal/query"
	"trapp/internal/relation"
)

// KthSmallest computes the bounded k-th smallest value (1-based) of the
// given column over all tuples of the store. It returns Empty when k is
// out of range.
func KthSmallest(st *relation.Store, col int, k int) interval.Interval {
	return kthSmallest(tuples(st), col, k)
}

// Median computes the bounded median: the ⌈n/2⌉-th smallest value, the
// convention of [FMP+00] for odd and even n alike.
func Median(st *relation.Store, col int) interval.Interval {
	return KthSmallest(st, col, (st.Len()+1)/2)
}

// TopN computes the bounded n-th largest value, i.e. the (N−n+1)-th
// smallest over a store of N tuples.
func TopN(st *relation.Store, col int, n int) interval.Interval {
	return KthSmallest(st, col, st.Len()-n+1)
}

// tuples returns copies of the store's tuples in ascending key order, the
// order every scan here uses: ties between equally cheap refresh
// candidates then depend only on the tuple set, not on the store's layout.
func tuples(st *relation.Store) []relation.Tuple {
	keys := st.SortedKeys()
	out := make([]relation.Tuple, 0, len(keys))
	for _, key := range keys {
		if tu, ok := st.Get(key); ok {
			out = append(out, tu)
		}
	}
	return out
}

// kthSmallest is KthSmallest over a tuple snapshot.
func kthSmallest(ts []relation.Tuple, col int, k int) interval.Interval {
	n := len(ts)
	if k < 1 || k > n {
		return interval.Empty
	}
	los := make([]float64, n)
	his := make([]float64, n)
	for i := range ts {
		los[i] = ts[i].Bounds[col].Lo
		his[i] = ts[i].Bounds[col].Hi
	}
	sort.Float64s(los)
	sort.Float64s(his)
	return interval.Interval{Lo: los[k-1], Hi: his[k-1]}
}

// Result reports an order-statistic query execution.
type Result struct {
	// Answer is the final bounded k-th smallest.
	Answer interval.Interval
	// Initial is the pre-refresh bound.
	Initial interval.Interval
	// Refreshed counts refreshed tuples.
	Refreshed int
	// RefreshCost is the total cost paid.
	RefreshCost float64
	// Met reports whether the final width is within the constraint.
	Met bool
}

// ExecuteKth runs the iterative bounded k-th smallest query: refresh the
// cheapest tuple overlapping the current answer interval (the smallest
// key among equally cheap ones) until the width is at most r.
func ExecuteKth(st *relation.Store, col int, k int, r float64, oracle query.Oracle) (Result, error) {
	if r < 0 || math.IsNaN(r) {
		return Result{}, fmt.Errorf("quantile: invalid precision constraint %g", r)
	}
	ts := tuples(st)
	if k < 1 || k > len(ts) {
		return Result{}, fmt.Errorf("quantile: k=%d out of range for %d tuples", k, len(ts))
	}
	var res Result
	res.Initial = kthSmallest(ts, col, k)
	res.Answer = res.Initial
	refreshed := make(map[int64]bool)
	for res.Answer.Width() > r+1e-12 {
		// Candidates: unrefreshed tuples with nonzero width overlapping
		// the answer interval. Refreshing anything else cannot move
		// either endpoint of the k-th order statistic.
		var best *relation.Tuple
		for i := range ts {
			tu := &ts[i]
			if refreshed[tu.Key] || tu.Bounds[col].Width() == 0 {
				continue
			}
			if !tu.Bounds[col].Intersects(res.Answer) {
				continue
			}
			if best == nil || tu.Cost < best.Cost {
				best = tu
			}
		}
		if best == nil {
			// No overlapping uncertain tuple remains, yet the width
			// exceeds r: impossible, because with every overlapping bound
			// a point the k-th smallest of Lo's equals that of Hi's.
			return res, fmt.Errorf("quantile: stalled at width %g > %g", res.Answer.Width(), r)
		}
		if oracle == nil {
			return res, fmt.Errorf("quantile: no oracle to refresh tuple %d", best.Key)
		}
		vals, ok := oracle.Master(best.Key)
		if !ok {
			return res, fmt.Errorf("quantile: oracle missing key %d", best.Key)
		}
		if present, err := st.Refresh(best.Key, vals); err != nil {
			return res, err
		} else if !present {
			return res, fmt.Errorf("quantile: key %d left the store", best.Key)
		}
		refreshed[best.Key] = true
		res.Refreshed++
		res.RefreshCost += best.Cost
		ts = tuples(st)
		res.Answer = kthSmallest(ts, col, k)
	}
	res.Met = true
	return res, nil
}

// ExecuteMedian runs the iterative bounded median query.
func ExecuteMedian(st *relation.Store, col int, r float64, oracle query.Oracle) (Result, error) {
	return ExecuteKth(st, col, (st.Len()+1)/2, r, oracle)
}
