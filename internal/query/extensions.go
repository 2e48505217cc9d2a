package query

// This file implements three extensions the paper lists as future work
// (sections 8.1 and 8.2), built on the unchanged core algorithms:
//
//   - GROUP BY over exact columns: each group's aggregate independently
//     satisfies the precision constraint. Grouping on exact columns keeps
//     group membership certain, sidestepping the open problem of grouping
//     on bounded values (§8.1).
//   - Relative precision constraints (§8.1): WITHIN p% asks for
//     HA − LA ≤ 2·|A|·p. Since the actual answer A is unknown, a
//     conservative absolute constraint R = 2·p·min|a| over the initial
//     bounded answer a ∈ [L, H] is derived from the first pass and fed to
//     the standard algorithms, exactly the strategy §8.1 sketches.
//   - Iterative refresh (§8.2): instead of committing to a batch refresh
//     set chosen against worst-case master values, refresh one tuple at a
//     time, recompute with the actual refreshed values, and stop as soon
//     as the constraint is met — an online/anytime execution mode that
//     often pays less total cost at the price of sequential rounds.

import (
	"context"
	"fmt"
	"math"
	"sort"

	"trapp/internal/interval"
	"trapp/internal/predicate"
	"trapp/internal/relation"
)

// GroupRow is one group's bounded result in a GROUP BY query.
type GroupRow struct {
	// Key holds the group's values of the grouping columns, in the order
	// given to ExecuteGroupBy.
	Key []float64
	// Result is the group's bounded execution result.
	Result Result
}

// ExecuteGroupBy runs the query once per distinct combination of its
// GroupBy columns, as if the query's WHERE clause were augmented with
// "AND groupCol = v" for each group. Every group's answer independently
// satisfies the precision constraint. Rows are ordered by group key.
// Grouping columns must be exact (bounded grouping columns would make
// group membership uncertain, which the paper leaves open).
func (p *Processor) ExecuteGroupBy(q Query) ([]GroupRow, error) {
	e := p.storeEntry(q.Table)
	if e == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, q.Table)
	}
	groupCols := q.GroupBy
	if len(groupCols) == 0 {
		return nil, fmt.Errorf("query: ExecuteGroupBy needs at least one grouping column")
	}
	q.GroupBy = nil // subqueries are scalar
	schema := e.Schema()
	colIdx := make([]int, len(groupCols))
	for i, name := range groupCols {
		ci, ok := schema.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("%w: %q.%q", ErrUnknownColumn, q.Table, name)
		}
		if schema.Column(ci).Kind != relation.Exact {
			return nil, fmt.Errorf("query: grouping column %q must be exact", name)
		}
		colIdx[i] = ci
	}

	// Enumerate distinct group keys from the cached table; exact columns
	// are points, so this is precise. The scan shares the read lock(s).
	type groupKey string
	seen := make(map[groupKey][]float64)
	var order []groupKey
	e.forEachTuple(func(tu *relation.Tuple) {
		vals := make([]float64, len(colIdx))
		for j, ci := range colIdx {
			vals[j] = tu.Bounds[ci].Lo
		}
		k := groupKey(fmt.Sprint(vals))
		if _, dup := seen[k]; !dup {
			seen[k] = vals
			order = append(order, k)
		}
	})
	sort.Slice(order, func(a, b int) bool {
		va, vb := seen[order[a]], seen[order[b]]
		for i := range va {
			if va[i] != vb[i] {
				return va[i] < vb[i]
			}
		}
		return false
	})

	rows := make([]GroupRow, 0, len(order))
	for _, k := range order {
		vals := seen[k]
		gq := q
		gq.Where = conjoinGroupPredicate(q.Where, colIdx, groupCols, vals)
		res, err := p.ExecuteCtx(context.Background(), gq)
		if err != nil {
			return rows, fmt.Errorf("query: group %v: %w", vals, err)
		}
		rows = append(rows, GroupRow{Key: vals, Result: res})
	}
	return rows, nil
}

// conjoinGroupPredicate appends "col = v" conjuncts for the group key.
func conjoinGroupPredicate(where predicate.Expr, colIdx []int, names []string, vals []float64) predicate.Expr {
	var out predicate.Expr
	for i, ci := range colIdx {
		cmp := predicate.NewCmp(predicate.Column(ci, names[i]), predicate.Eq, predicate.Const(vals[i]))
		if out == nil {
			out = cmp
		} else {
			out = predicate.NewAnd(out, cmp)
		}
	}
	if !predicate.IsTrivial(where) {
		out = predicate.NewAnd(out, where)
	}
	return out
}

// RelativeR converts a relative precision constraint p (e.g. 0.05 for
// "within 5%") into a conservative absolute constraint given the initial
// bounded answer: the requirement HA − LA ≤ 2·|A|·p must hold for the
// unknown actual answer A, and A is guaranteed to lie in the initial
// bound, so the smallest possible |A| over that interval is used. If the
// interval straddles zero the conservative constraint is 0 (exact answer
// required), since A might be arbitrarily close to zero.
func RelativeR(initial interval.Interval, p float64) float64 {
	if initial.IsEmpty() || math.IsInf(initial.Width(), 1) {
		return 0
	}
	var minAbs float64
	switch {
	case initial.Contains(0):
		minAbs = 0
	case initial.Lo > 0:
		minAbs = initial.Lo
	default:
		minAbs = -initial.Hi
	}
	return 2 * p * minAbs
}

// ExecuteRelative runs the query under a relative precision constraint p:
// the final answer [LA, HA] satisfies HA − LA ≤ 2·|A|·p for the true
// answer A. The query's own Within field is ignored. It is ExecuteCtx
// with Query.RelativeWithin set: the executor derives the conservative
// absolute constraint from its step-1 answer (RelativeR) and runs the
// standard algorithm against it.
func (proc *Processor) ExecuteRelative(q Query, p float64) (Result, error) {
	q.Within, q.RelativeWithin = 0, p // p = 0 asks for the exact answer
	return proc.ExecuteCtx(context.Background(), q)
}

// ExecuteIterative runs the §8.2 online variant: repeatedly compute the
// batch refresh plan but perform only its single cheapest refresh, then
// recompute with the actual refreshed value. Because real values usually
// tighten the answer faster than the worst case assumed by the batch
// plan, the total cost paid is at most the batch plan's cost and often
// less. The Result additionally reports the number of refresh rounds via
// Refreshed (one tuple per round).
//
// It runs ExecuteConfig's steps under the default request options, one
// Execution per round — step 1's fold, step 2's snapshot and plan, then
// a refresh of the plan's cheapest key alone — so it works over any
// registration.
func (proc *Processor) ExecuteIterative(q Query) (Result, error) {
	var x job
	if err := proc.prepare(&x, q, ExecConfig{}); err != nil {
		return Result{}, err
	}
	ctx := context.Background()
	var res Result
	for round := 0; ; round++ {
		done, err := x.fold(ctx)
		if round == 0 {
			res.Initial = x.res.Initial
		}
		res.Answer, res.Met = x.res.Answer, x.res.Met
		if done {
			return res, err
		}
		err = x.choose(ctx)
		res.ChooseTime += x.res.ChooseTime
		if err != nil {
			return res, err
		}
		plan := x.plan
		if plan.Len() == 0 {
			// The batch plan guarantees the constraint, so an empty plan
			// with an unmet constraint cannot occur; guard regardless.
			return res, fmt.Errorf("query: iterative execution stalled at width %g", res.Answer.Width())
		}
		// Refresh only the cheapest tuple of the plan this round.
		best := 0
		for i := range plan.Costs {
			if plan.Costs[i] < plan.Costs[best] {
				best = i
			}
		}
		// Nothing installed means the key vanished mid-round: replan.
		installed, _, err := x.run.Refresh(ctx, x.req, plan.Keys[best:best+1])
		if err != nil {
			return res, err
		}
		if installed[0] {
			res.Refreshed++
			res.RefreshCost += plan.Costs[best]
		}
	}
}
