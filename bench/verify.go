package main

import (
	"errors"
	"fmt"
	"math"

	"trapp"
)

// The oracle and the checks. Before anything is timed, the verify pass
// replays the head of the script one operation at a time and checks
// every answer against the exact aggregate over the benchmark's own
// master copy and — where the workload has a wire or a cluster between
// the client and the engine — bit-identically against an embedded mirror
// driven in lockstep. The timed segments keep only the checks that cost
// nothing (checkCheap), so a wrong answer still lands in the failed count.

// oracle holds the master copy the exact answers are computed from:
// rows[i] is object i's full row in schema order, as of the last push
// the driver applied.
type oracle struct {
	pop  *population
	rows [][]float64
}

func newOracle(pop *population) *oracle {
	o := &oracle{pop: pop, rows: make([][]float64, pop.len())}
	for i := range o.rows {
		o.rows[i] = pop.row(i)
	}
	return o
}

// applied records a push the driver delivered.
func (o *oracle) applied(obj int, vals []float64) {
	row := o.rows[obj]
	copy(row[len(row)-len(vals):], vals)
}

// exact computes the query's exact answer over the master rows; ok is
// false when the aggregate is undefined (MIN/MAX/AVG over no rows).
func (o *oracle) exact(q *queryOp) (v float64, ok bool) {
	t := o.pop.tables[q.table]
	col, found := t.schema.Lookup(q.q.Column)
	if !found {
		return 0, false
	}
	var sum, lo, hi float64
	n := 0
	for _, i := range t.objs {
		row := o.rows[i]
		if q.q.Where != nil && !q.q.Where.EvalExact(row) {
			continue
		}
		x := row[col]
		if n == 0 {
			lo, hi = x, x
		}
		sum, lo, hi = sum+x, math.Min(lo, x), math.Max(hi, x)
		n++
	}
	switch q.q.Agg {
	case trapp.Count:
		return float64(n), true
	case trapp.Sum:
		return sum, true
	case trapp.Min:
		return lo, n > 0
	case trapp.Max:
		return hi, n > 0
	default:
		return sum / float64(n), n > 0
	}
}

// slack is the floating-point tolerance of the contract checks: the
// engine folds sums in canonical bucket order, the oracle in object
// order, so two exact sums may differ in their last bits.
func slack(x float64) float64 { return 1e-9 * (1 + math.Abs(x)) }

// checkCheap applies the checks that need neither the master copy nor a
// mirror: only typed, expected errors; Met implies width ≤ R; spent ≤
// budget. It returns "" or the reason the operation failed.
func checkCheap(q *queryOp, res trapp.Result, err error) string {
	if err != nil {
		if q.budget > 0 && errors.As(err, &trapp.ErrBudgetExhausted{}) {
			// the budget ran out before the constraint: expected, and
			// the result alongside it is still sound
		} else {
			return "unexpected error: " + err.Error()
		}
	}
	if res.Met && res.Answer.Width() > q.q.Within+slack(q.q.Within) {
		return fmt.Sprintf("Met with width %g > R %g", res.Answer.Width(), q.q.Within)
	}
	if q.budget > 0 && res.RefreshCost > q.budget+slack(q.budget) {
		return fmt.Sprintf("spent %g > budget %g", res.RefreshCost, q.budget)
	}
	return ""
}

// check is checkCheap plus the contract itself: the answer contains the
// exact value computed from the master copy.
func (o *oracle) check(q *queryOp, res trapp.Result, err error) string {
	if why := checkCheap(q, res, err); why != "" {
		return why
	}
	// Nothing moves during a query of the single-threaded verify pass,
	// so an unmet constraint must come with its typed error. (Beside an
	// open-loop writer a tick can land between refresh and refold.)
	if err == nil && !res.Met {
		return fmt.Sprintf("constraint %g unmet (width %g) without an error", q.q.Within, res.Answer.Width())
	}
	if v, ok := o.exact(q); ok {
		if v < res.Answer.Lo-slack(v) || v > res.Answer.Hi+slack(v) {
			return fmt.Sprintf("answer %v does not contain the exact value %g", res.Answer, v)
		}
	}
	return ""
}

// sameOutcome reports how a target's outcome differs from the embedded
// mirror's: intervals, refresh counts and costs bit-identical, errors of
// the same type. ChooseTime is wall-clock noise and is not compared.
func sameOutcome(res trapp.Result, err error, mres trapp.Result, merr error) string {
	switch {
	case res.Answer != mres.Answer:
		return fmt.Sprintf("answer %v, mirror %v", res.Answer, mres.Answer)
	case res.Initial != mres.Initial:
		return fmt.Sprintf("initial %v, mirror %v", res.Initial, mres.Initial)
	case res.Refreshed != mres.Refreshed || res.RefreshCost != mres.RefreshCost:
		return fmt.Sprintf("refreshed %d for %g, mirror %d for %g", res.Refreshed, res.RefreshCost, mres.Refreshed, mres.RefreshCost)
	case res.Met != mres.Met:
		return fmt.Sprintf("met %t, mirror %t", res.Met, mres.Met)
	case (err == nil) != (merr == nil) || errors.As(err, &trapp.ErrBudgetExhausted{}) != errors.As(merr, &trapp.ErrBudgetExhausted{}):
		return fmt.Sprintf("error %v, mirror %v", err, merr)
	}
	return ""
}
