package query

// Cross-query batch execution. ExecuteBatch runs the single-query
// skeleton's steps (query.go) for every query: the prologue and steps 1
// and 2 for all of them first, then one deduped batched refresh per
// table over the union of their plans (which the cache fans out as one
// batched request per source — the same machinery the continuous
// scheduler's shared refresh rounds use), then the shared outcome step
// per query. A tuple needed by several queries is fetched and
// paid for once; each query's Result still attributes the full per-key
// cost of its own plan, exactly as a standalone execution would, so the
// network-level saving is the difference between the union's cost and
// the sum of the attributions.
//
// # Answer semantics
//
// Each query is answered from its own plan only: the step-1 snapshot is
// patched with the refreshed tuples of that query's plan and re-folded
// in canonical order. Tuples another query's plan refreshed do not leak
// into the answer. This makes every batch answer bit-identical to
// executing the same query alone on an identical system — the batch
// changes what the fleet pays, never what any caller observes.
//
// Queries sharing a (table, column, predicate) shape share one
// classification scan through the plan cache's scan memo, so a
// multi-aggregate SQL statement (SELECT MIN(v), MAX(v) WITHIN 5 FROM t)
// compiles to a batch that scans once, plans per aggregate, and
// refreshes the union.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"trapp/internal/aggregate"
	"trapp/internal/interval"
	"trapp/internal/relation"
)

// ExecuteBatch executes a set of scalar bounded queries as one batch:
// shared classification scans, per-query CHOOSE_REFRESH (honoring the
// request options, including WithCostBudget's dual), one deduped
// refresh round per table, and per-query answers bit-identical to
// standalone execution. Every query runs ExecuteConfig's steps, so it is
// validated, planned, shaped and recorded in the engine metrics exactly
// as alone; only the refresh round is shared, and each answer is its
// snapshot patched with its own plan's refreshed tuples. The queries'
// tables must be store-backed. The returned slice always aligns
// index-for-index with qs. Validation problems (unknown table or column,
// GROUP BY queries, invalid constraints) fail the whole batch before any
// step runs; per-query execution outcomes (ErrBudgetExhausted, a
// deadline's ErrPrecisionUnmet) are joined into the returned error while
// every Result still carries its best achieved answer — use errors.Is /
// errors.As on the joined error. A batch is not traced.
func (p *Processor) ExecuteBatch(ctx context.Context, qs []Query, opts ...ExecOption) ([]Result, error) {
	results, perQuery, err := p.ExecuteBatchDetailed(ctx, qs, BuildExecConfig(opts...))
	if err != nil {
		return results, err
	}
	return results, JoinBatchErrors(perQuery)
}

// JoinBatchErrors joins per-query batch outcomes into one error,
// annotating each with its query index (nil when none failed).
func JoinBatchErrors(perQuery []error) error {
	var errs []error
	for i, e := range perQuery {
		if e != nil {
			errs = append(errs, fmt.Errorf("batch %d: %w", i, e))
		}
	}
	return errors.Join(errs...)
}

// ExecuteBatchDetailed is the batch executor with per-query outcomes
// kept separate: results and perQuery align index-for-index with qs
// (perQuery entries are nil, ErrBudgetExhausted, or ErrPrecisionUnmet),
// and err reports whole-batch failures (validation, hard oracle errors —
// after which the results still report every refresh that was paid
// before the failure). The System façade uses it to post-process
// individual results — e.g. the §8.3 slack-COUNT widening — without
// losing the typed per-query errors' field consistency.
func (p *Processor) ExecuteBatchDetailed(ctx context.Context, qs []Query, cfg ExecConfig) ([]Result, []error, error) {
	if len(qs) == 0 {
		return nil, nil, nil
	}
	// The refresh rounds are shared, so no one query's span tree could
	// hold them: a batch is not traced.
	cfg.Trace, cfg.TraceRoot = false, nil
	xs := make([]job, len(qs))
	for i, q := range qs {
		if err := p.prepare(&xs[i], q, cfg); err != nil {
			return nil, nil, fmt.Errorf("batch %d: %w", i, err)
		}
		if _, ok := xs[i].reg.(*storeEntry); !ok {
			// The own-plan answer reads the refreshed tuples from a store.
			return nil, nil, fmt.Errorf("batch %d: %w: %q", i, ErrUnknownTable, q.Table)
		}
	}
	ctx, cancel := cfg.withDeadline(ctx)
	defer cancel()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	// Steps 1 and 2 for every query, before any refresh.
	results := make([]Result, len(qs))
	var slow []int // the queries past step 1
	for i := range xs {
		x := &xs[i]
		done, err := x.fold(ctx)
		if err == nil && !done {
			slow = append(slow, i)
			err = x.choose(ctx)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("batch %d: %w", i, err)
		}
		results[i] = x.res
	}

	// Merge the plans into one deduped refresh round per table and run
	// them. The fan-out boundary honors the context; a cutoff leaves
	// later tables unfetched and their queries fall back to cached-bound
	// answers plus whatever partial refreshes beat the deadline.
	unions := make(map[Registration]*tableUnion)
	var order []*tableUnion
	for _, i := range slow {
		x := &xs[i]
		if x.plan.Len() == 0 {
			continue
		}
		u := unions[x.reg]
		if u == nil {
			u = &tableUnion{x: x, index: make(map[int64]int)}
			unions[x.reg] = u
			order = append(order, u)
		}
		for _, key := range x.plan.Keys {
			if _, seen := u.index[key]; !seen {
				u.index[key] = len(u.keys)
				u.keys = append(u.keys, key)
			}
		}
	}
	var ctxErr, hardErr error
	for _, u := range order {
		if ctxErr = ctx.Err(); ctxErr != nil {
			break
		}
		t := time.Now()
		u.installed, ctxErr, hardErr = u.x.run.Refresh(ctx, u.x.req, u.keys)
		p.metrics.Refresh.ObserveDuration(time.Since(t))
		if ctxErr != nil || hardErr != nil {
			break
		}
	}

	// Step 3 and the outcome for every query past step 1, each answered
	// from its own plan. A hard error still fails the batch, but only
	// after every query is charged for the refreshes installed ahead of
	// it.
	perQuery := make([]error, len(qs))
	for _, i := range slow {
		x := &xs[i]
		var installed []bool
		if u := unions[x.reg]; u != nil && len(u.installed) > 0 {
			installed = make([]bool, x.plan.Len())
			for j, key := range x.plan.Keys {
				installed[j] = u.installed[u.index[key]]
			}
		}
		own := func(Request) interval.Interval { return x.ownAnswer(installed) }
		results[i], perQuery[i] = x.end(x.settle(nil, installed, ctxErr, nil, own))
	}
	return results, perQuery, hardErr
}

// tableUnion is one table's deduped refresh round: the union of its
// queries' plan keys in first-seen order, each key's position in it, and
// the round's outcome aligned with keys (nil if the round never ran). x
// is the first query planning there, whose Execution runs the round.
type tableUnion struct {
	x         *job
	keys      []int64
	index     map[int64]int
	installed []bool
}

// ownAnswer is a batch query's step-3 answer: its step-2 snapshot patched
// with the refreshed tuples of its own plan (installed aligns with the
// plan) and re-folded in canonical order. The patch classifies each
// refreshed tuple exactly as a full post-refresh rescan would, so the
// patched inputs are bit-identical to that rescan's.
func (x *job) ownAnswer(installed []bool) interval.Interval {
	mine := make(map[int64]bool, len(installed))
	for j, ok := range installed {
		if ok {
			mine[x.plan.Keys[j]] = true
		}
	}
	patched := x.inputs
	if len(mine) > 0 {
		e := x.reg.(*storeEntry)
		cl := aggregate.NewClassifier(x.req.Col, x.req.Query.Where, true)
		patched = make([]aggregate.Input, 0, len(x.inputs))
		for _, in := range x.inputs {
			if !mine[in.Key] {
				patched = append(patched, in)
				continue
			}
			var ni aggregate.Input
			contributes := false
			present := e.viewTuple(in.Key, func(tu *relation.Tuple) {
				ni, contributes = cl.Classify(tu)
			})
			// A tuple dropped mid-flight, or reclassified to T− by its
			// refreshed point values, no longer contributes.
			if !present || !contributes {
				continue
			}
			ni.Index = in.Index
			patched = append(patched, ni)
		}
	}
	return aggregate.EvalInputs(patched, x.req.Query.Agg, x.req.NoPred, x.tableLen)
}
