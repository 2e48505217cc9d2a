// Package join implements bounded aggregation queries over two-table joins
// (paper section 7). Computing the bounded answer reuses the predicate
// classification machinery of section 6: each joined pair of base tuples is
// classified into T+/T?/T− by evaluating the combined join-and-selection
// predicate over the concatenated bounds, and the single-table aggregation
// formulas then apply to the classified pairs.
//
// Choosing tuples to refresh is substantially harder for joins — each base
// tuple can feed many joined pairs, and each pair can be shrunk by
// refreshing either side — and the paper stops at noting it considered
// heuristics. This package implements two documented heuristics:
//
//   - BatchGreedy: conservative a-priori selection that repeatedly picks the
//     base tuple with the best worst-case width reduction per unit cost
//     until the worst-case post-refresh width meets the constraint. The
//     guarantee holds for any master values inside the bounds, like the
//     single-table algorithms.
//   - Iterative: the section 8.2 style online loop — refresh the current
//     best-scoring base tuple, recompute the actual bounded answer, and stop
//     as soon as the constraint is met. Usually cheaper in refresh cost, but
//     refreshes are sequential rather than batched.
package join

import (
	"fmt"
	"math"
	"sort"

	"trapp/internal/aggregate"
	"trapp/internal/interval"
	"trapp/internal/predicate"
	"trapp/internal/query"
	"trapp/internal/relation"
)

// Side identifies which base table a column or tuple belongs to.
type Side int8

const (
	// Left is the first table in the FROM clause.
	Left Side = iota
	// Right is the second.
	Right
)

// String returns "left" or "right".
func (s Side) String() string {
	if s == Left {
		return "left"
	}
	return "right"
}

// Spec describes an aggregation query over a two-table join:
//
//	SELECT AGG(side.column) WITHIN R FROM left, right WHERE pred
//
// The predicate is expressed over the concatenated schema: columns
// 0..len(left)−1 are the left table's, the rest are the right table's
// shifted by len(left).
type Spec struct {
	// Agg is the aggregation function.
	Agg aggregate.Func
	// AggSide and AggColumn locate the aggregation column in its base
	// table's schema.
	AggSide   Side
	AggColumn int
	// Pred is the combined join + selection predicate over the
	// concatenated column space; it must not be nil (a join without a
	// predicate is a plain cross product, which is supported by passing
	// predicate.TruePred).
	Pred predicate.Expr
	// Within is the precision constraint R.
	Within float64
}

// ShiftColumn converts a right-table column index into the concatenated
// predicate column space.
func ShiftColumn(leftSchema *relation.Schema, rightCol int) int {
	return leftSchema.NumColumns() + rightCol
}

// tuples returns copies of the store's tuples in ascending key order, the
// order every scan here uses: pair enumeration and the planners'
// tie-breaks then depend only on the tuple sets, not on the stores'
// layouts.
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

// pair is one joined tuple: indexes into the two base-table snapshots
// (see tuples), its classification and its aggregation-column bound.
type pair struct {
	li, ri int
	class  predicate.Class
	bound  interval.Interval // aggregation column bound
}

// classifyPairs enumerates the cross product and classifies every pair
// whose membership is possible. The nested loop is O(|L|·|R|); at the
// paper's simulation scale this is adequate, and the classification
// predicates could be pushed into standard join algorithms as the paper
// notes.
func classifyPairs(left, right []relation.Tuple, spec Spec) []pair {
	var combined []interval.Interval
	var pairs []pair
	for li := range left {
		lt := &left[li]
		for ri := range right {
			rt := &right[ri]
			combined = append(append(combined[:0], lt.Bounds...), rt.Bounds...)
			tu := relation.Tuple{Bounds: combined}
			cls := predicate.ClassifyTuple(spec.Pred, &tu)
			if cls == predicate.Minus {
				continue
			}
			b := lt.Bounds[spec.AggColumn]
			if spec.AggSide == Right {
				b = rt.Bounds[spec.AggColumn]
			}
			pairs = append(pairs, pair{li: li, ri: ri, class: cls, bound: b})
		}
	}
	return pairs
}

// Eval computes the bounded answer for the join query from cached bounds,
// applying the section 6 aggregation formulas to the classified pairs.
func Eval(left, right *relation.Store, spec Spec) interval.Interval {
	return eval(tuples(left), tuples(right), spec)
}

// eval is Eval over base-table snapshots.
func eval(left, right []relation.Tuple, spec Spec) interval.Interval {
	pairs := classifyPairs(left, right, spec)
	inputs := make([]aggregate.Input, len(pairs))
	for i, p := range pairs {
		inputs[i] = aggregate.Input{Index: i, Bound: p.bound, Class: p.class}
	}
	return aggregate.EvalInputs(inputs, spec.Agg, false, len(left)*len(right))
}

// Plan is a refresh selection over the two base tables.
type Plan struct {
	// LeftKeys and RightKeys are the base tuples to refresh on each side.
	LeftKeys, RightKeys []int64
	// Cost is the total refresh cost.
	Cost float64
}

// Len returns the total number of base-tuple refreshes.
func (p Plan) Len() int { return len(p.LeftKeys) + len(p.RightKeys) }

// baseRef identifies one base tuple by its position in its side's
// snapshot.
type baseRef struct {
	side Side
	idx  int
}

// BatchGreedy selects a refresh set that guarantees the precision
// constraint for any master values inside the current bounds. It uses a
// conservative worst-case width model: a joined pair stops contributing
// uncertainty only when both of its base tuples are refreshed (its value
// becomes exact and its membership definite); a T+ pair whose
// aggregation-side tuple is refreshed also stops contributing for SUM/AVG.
// Greedily, the base tuple with the largest worst-case width reduction per
// unit cost is added until the modelled width is within R.
func BatchGreedy(left, right *relation.Store, spec Spec) (Plan, error) {
	return batchGreedy(tuples(left), tuples(right), spec)
}

// batchGreedy is BatchGreedy over base-table snapshots.
func batchGreedy(left, right []relation.Tuple, spec Spec) (Plan, error) {
	if spec.Within < 0 || math.IsNaN(spec.Within) {
		return Plan{}, fmt.Errorf("join: invalid precision constraint %g", spec.Within)
	}
	pairs := classifyPairs(left, right, spec)
	chosen := make(map[baseRef]bool)

	width := func() float64 { return worstWidth(pairs, chosen, spec) }
	if math.IsInf(spec.Within, 1) {
		return Plan{}, nil
	}
	for width() > spec.Within+1e-12 {
		best, bestScore := baseRef{}, -1.0
		for _, cand := range candidates(pairs, chosen) {
			cost := refreshCost(left, right, cand)
			chosen[cand] = true
			reduced := width()
			delete(chosen, cand)
			gain := worstWidth(pairs, chosen, spec) - reduced
			score := gain / math.Max(cost, 1e-9)
			if score > bestScore {
				best, bestScore = cand, score
			}
		}
		if bestScore < 0 {
			return Plan{}, fmt.Errorf("join: no refresh candidate reduces width")
		}
		if bestScore == 0 {
			// No single tuple helps (pairs need both sides); pick the
			// cheapest unchosen tuple of the pair with the widest
			// contribution to make progress.
			best = cheapestBlocking(pairs, chosen, left, right)
		}
		chosen[best] = true
	}
	return materialize(left, right, chosen), nil
}

// candidates returns the unchosen base tuples of unresolved pairs.
func candidates(pairs []pair, chosen map[baseRef]bool) []baseRef {
	seen := make(map[baseRef]bool)
	var out []baseRef
	for _, p := range pairs {
		for _, ref := range []baseRef{{Left, p.li}, {Right, p.ri}} {
			if !chosen[ref] && !seen[ref] {
				seen[ref] = true
				out = append(out, ref)
			}
		}
	}
	return out
}

// cheapestBlocking finds the cheapest unchosen tuple among pairs that are
// not fully resolved.
func cheapestBlocking(pairs []pair, chosen map[baseRef]bool, left, right []relation.Tuple) baseRef {
	best, bestCost := baseRef{}, math.Inf(1)
	for _, p := range pairs {
		if chosen[baseRef{Left, p.li}] && chosen[baseRef{Right, p.ri}] {
			continue
		}
		for _, ref := range []baseRef{{Left, p.li}, {Right, p.ri}} {
			if chosen[ref] {
				continue
			}
			if c := refreshCost(left, right, ref); c < bestCost {
				best, bestCost = ref, c
			}
		}
	}
	return best
}

// refreshCost returns the cost of refreshing a base tuple.
func refreshCost(left, right []relation.Tuple, ref baseRef) float64 {
	if ref.side == Left {
		return left[ref.idx].Cost
	}
	return right[ref.idx].Cost
}

// worstWidth computes the conservative post-refresh answer width for the
// current chosen set: pairs with both sides chosen are resolved; remaining
// pairs contribute their current (membership-extended) uncertainty.
func worstWidth(pairs []pair, chosen map[baseRef]bool, spec Spec) float64 {
	inputs := make([]aggregate.Input, 0, len(pairs))
	for i, p := range pairs {
		lDone := chosen[baseRef{Left, p.li}]
		rDone := chosen[baseRef{Right, p.ri}]
		aggDone := lDone
		if spec.AggSide == Right {
			aggDone = rDone
		}
		b := p.bound
		cls := p.class
		switch {
		case lDone && rDone:
			// Fully resolved: value exact, membership definite. Worst case
			// still spans the bound for MIN/MAX (the exact value can land
			// anywhere), but contributes no membership uncertainty; for
			// SUM/COUNT/AVG it contributes zero residual width. Model as a
			// T+ point at either end — we take the conservative midpoint
			// representation: a point contributes no width to SUM/COUNT,
			// and MIN/MAX handle it via the bound endpoints below.
			if spec.Agg == aggregate.Min || spec.Agg == aggregate.Max {
				// The exact value lies somewhere in b; keep the bound but
				// as T+ (definite membership is the worst case for MIN's
				// upper endpoint is covered by b.Hi).
				inputs = append(inputs, aggregate.Input{Index: i, Bound: b, Class: predicate.Plus})
			}
			continue
		case aggDone && p.class == predicate.Plus:
			// Value exact, membership already certain: no residual width
			// for SUM/AVG/COUNT; MIN/MAX keep the bound as T+.
			if spec.Agg == aggregate.Min || spec.Agg == aggregate.Max {
				inputs = append(inputs, aggregate.Input{Index: i, Bound: b, Class: predicate.Plus})
			}
			continue
		case aggDone:
			// Value exact, membership possibly unknown: worst-case residual
			// is the larger endpoint magnitude (the exact value extended to
			// include 0 for SUM).
			m := math.Max(math.Abs(b.Lo), math.Abs(b.Hi))
			inputs = append(inputs, aggregate.Input{
				Index: i,
				Bound: interval.New(-m, m).Intersect(b.IncludeZero()),
				Class: predicate.Maybe,
			})
			continue
		default:
			inputs = append(inputs, aggregate.Input{Index: i, Bound: b, Class: cls})
		}
	}
	ans := aggregate.EvalInputs(inputs, spec.Agg, false, len(pairs))
	if ans.IsEmpty() {
		return 0
	}
	return ans.Width()
}

// materialize converts the chosen set into a Plan.
func materialize(left, right []relation.Tuple, chosen map[baseRef]bool) Plan {
	var plan Plan
	for ref := range chosen {
		if ref.side == Left {
			tu := &left[ref.idx]
			plan.LeftKeys = append(plan.LeftKeys, tu.Key)
			plan.Cost += tu.Cost
		} else {
			tu := &right[ref.idx]
			plan.RightKeys = append(plan.RightKeys, tu.Key)
			plan.Cost += tu.Cost
		}
	}
	sort.Slice(plan.LeftKeys, func(a, b int) bool { return plan.LeftKeys[a] < plan.LeftKeys[b] })
	sort.Slice(plan.RightKeys, func(a, b int) bool { return plan.RightKeys[a] < plan.RightKeys[b] })
	return plan
}

// Result reports an executed join query.
type Result struct {
	// Answer is the final bounded answer.
	Answer interval.Interval
	// Initial is the pre-refresh bounded answer.
	Initial interval.Interval
	// Refreshed counts base-tuple refreshes performed.
	Refreshed int
	// RefreshCost is the total cost paid.
	RefreshCost float64
	// Met reports whether the final answer satisfies the constraint.
	Met bool
}

// Execute runs a join query end to end with the BatchGreedy planner,
// refreshing from the two oracles.
func Execute(left, right *relation.Store, spec Spec, leftOracle, rightOracle query.Oracle) (Result, error) {
	var res Result
	l, r := tuples(left), tuples(right)
	res.Initial = eval(l, r, spec)
	res.Answer = res.Initial
	if res.Answer.IsEmpty() || res.Answer.Width() <= spec.Within+1e-9 {
		res.Met = true
		return res, nil
	}
	plan, err := batchGreedy(l, r, spec)
	if err != nil {
		return res, err
	}
	if err := applyPlan(left, plan.LeftKeys, leftOracle); err != nil {
		return res, err
	}
	if err := applyPlan(right, plan.RightKeys, rightOracle); err != nil {
		return res, err
	}
	res.Refreshed = plan.Len()
	res.RefreshCost = plan.Cost
	res.Answer = Eval(left, right, spec)
	res.Met = res.Answer.IsEmpty() || res.Answer.Width() <= spec.Within+1e-9
	return res, nil
}

// ExecuteIterative runs the section 8.2 style online loop: repeatedly
// refresh the single cheapest base tuple participating in an unresolved
// pair (the first in pair order among equally cheap ones) and recompute,
// stopping when the constraint is met. Unlike BatchGreedy it exploits the
// actual refreshed values, typically paying less total cost at the price
// of sequential refresh rounds.
func ExecuteIterative(left, right *relation.Store, spec Spec, leftOracle, rightOracle query.Oracle) (Result, error) {
	var res Result
	res.Initial = Eval(left, right, spec)
	res.Answer = res.Initial
	refreshedL := make(map[int64]bool)
	refreshedR := make(map[int64]bool)
	for {
		if res.Answer.IsEmpty() || res.Answer.Width() <= spec.Within+1e-9 {
			res.Met = true
			return res, nil
		}
		l, r := tuples(left), tuples(right)
		pairs := classifyPairs(l, r, spec)
		best, bestCost := baseRef{}, math.Inf(1)
		found := false
		for _, p := range pairs {
			uncertain := p.class == predicate.Maybe || p.bound.Width() > 0
			if !uncertain {
				continue
			}
			for _, ref := range []baseRef{{Left, p.li}, {Right, p.ri}} {
				var key int64
				var done map[int64]bool
				if ref.side == Left {
					key = l[ref.idx].Key
					done = refreshedL
				} else {
					key = r[ref.idx].Key
					done = refreshedR
				}
				if done[key] {
					continue
				}
				if c := refreshCost(l, r, ref); c < bestCost {
					best, bestCost, found = ref, c, true
				}
			}
		}
		if !found {
			// Nothing left to refresh; the answer is as tight as it gets.
			res.Met = res.Answer.IsEmpty() || res.Answer.Width() <= spec.Within+1e-9
			if !res.Met {
				return res, fmt.Errorf("join: constraint unreachable (width %g > R %g)",
					res.Answer.Width(), spec.Within)
			}
			return res, nil
		}
		st, ts, o, done := left, l, leftOracle, refreshedL
		if best.side == Right {
			st, ts, o, done = right, r, rightOracle, refreshedR
		}
		key := ts[best.idx].Key
		if err := applyPlan(st, []int64{key}, o); err != nil {
			return res, err
		}
		done[key] = true
		res.Refreshed++
		res.RefreshCost += bestCost
		res.Answer = Eval(left, right, spec)
	}
}

// applyPlan refreshes the listed keys from the oracle.
func applyPlan(st *relation.Store, keys []int64, o query.Oracle) error {
	for _, key := range keys {
		vals, ok := o.Master(key)
		if !ok {
			return fmt.Errorf("join: oracle missing key %d", key)
		}
		if present, err := st.Refresh(key, vals); err != nil {
			return err
		} else if !present {
			return fmt.Errorf("join: key %d left the store", key)
		}
	}
	return nil
}
