package query

// Cross-query batch execution. ExecuteBatch plans every query first,
// merges the refresh plans into one deduped batched refresh per table
// (which the cache fans out as one batched request per source — the same
// machinery the continuous scheduler's shared refresh rounds use), then
// answers each query. A tuple needed by several queries is fetched and
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
// classification scan, so a multi-aggregate SQL statement
// (SELECT MIN(v), MAX(v) WITHIN 5 FROM t) compiles to a batch that scans
// once, plans per aggregate, and refreshes the union.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"trapp/internal/aggregate"
	"trapp/internal/predicate"
	"trapp/internal/refresh"
	"trapp/internal/relation"
)

// batchItem is one query's in-flight state during ExecuteBatch.
type batchItem struct {
	q      Query
	e      *storeEntry
	col    int
	noPred bool
	snap   *batchSnapshot
	plan   refresh.Plan
	res    Result
	err    error
}

// batchSnapshot is one shared classification scan.
type batchSnapshot struct {
	inputs   []aggregate.Input
	tableLen int
}

// snapshotKey identifies a shareable scan: same table, aggregation
// column and predicate shape.
func snapshotKey(q Query, col int) string {
	w := "TRUE"
	if !predicate.IsTrivial(q.Where) {
		w = q.Where.String()
	}
	return fmt.Sprintf("%s\x00%d\x00%s", q.Table, col, w)
}

// ExecuteBatch executes a set of scalar bounded queries as one batch:
// shared classification scans, per-query CHOOSE_REFRESH (honoring the
// request options, including WithCostBudget's dual), one deduped
// refresh round per table, and per-query answers bit-identical to
// standalone execution. The returned slice always aligns index-for-index
// with qs. Validation problems (unknown table or column, GROUP BY
// queries, invalid constraints) fail the whole batch before any refresh
// is paid; per-query execution outcomes (ErrBudgetExhausted, a
// deadline's ErrPrecisionUnmet) are joined into the returned error while
// every Result still carries its best achieved answer — use errors.Is /
// errors.As on the joined error.
func (p *Processor) ExecuteBatch(ctx context.Context, qs []Query, opts ...ExecOption) ([]Result, error) {
	return p.ExecuteBatchConfig(ctx, qs, BuildExecConfig(opts...))
}

// ExecuteBatchConfig is ExecuteBatch over an already-resolved option
// set.
func (p *Processor) ExecuteBatchConfig(ctx context.Context, qs []Query, cfg ExecConfig) ([]Result, error) {
	results, perQuery, err := p.ExecuteBatchDetailed(ctx, qs, cfg)
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
	if cfg.HasBudget && (cfg.Budget < 0 || math.IsNaN(cfg.Budget)) {
		return nil, nil, fmt.Errorf("query: invalid cost budget %g", cfg.Budget)
	}
	if !cfg.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, cfg.Deadline)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	// Validate every query and share classification scans per
	// (table, column, predicate) shape. The refresh options are purely
	// request-level (solver override), so they are resolved once for the
	// whole batch.
	items := make([]batchItem, len(qs))
	snaps := make(map[string]*batchSnapshot)
	_, ropts := cfg.apply(Query{}, p.opts)
	for i, q := range qs {
		if len(q.GroupBy) > 0 {
			return nil, nil, fmt.Errorf("query: batch %d: GROUP BY queries are not batchable; use ExecuteGroupBy", i)
		}
		q, _ = cfg.apply(q, p.opts)
		e := p.storeEntry(q.Table)
		if e == nil {
			return nil, nil, fmt.Errorf("batch %d: %w: %q", i, ErrUnknownTable, q.Table)
		}
		col, ok := e.Schema().Lookup(q.Column)
		if !ok {
			return nil, nil, fmt.Errorf("batch %d: %w: %q.%q", i, ErrUnknownColumn, q.Table, q.Column)
		}
		if q.RelativeWithin < 0 || math.IsNaN(q.RelativeWithin) {
			return nil, nil, fmt.Errorf("query: batch %d: invalid relative precision %g", i, q.RelativeWithin)
		}
		if q.RelativeWithin == 0 && (q.Within < 0 || math.IsNaN(q.Within)) {
			return nil, nil, fmt.Errorf("query: batch %d: invalid precision constraint %g", i, q.Within)
		}
		key := snapshotKey(q, col)
		snap := snaps[key]
		if snap == nil {
			inputs, tableLen := e.snapshot(col, q.Where, ropts.Parallelism)
			snap = &batchSnapshot{inputs: inputs, tableLen: tableLen}
			snaps[key] = snap
		}
		items[i] = batchItem{q: q, e: e, col: col, noPred: predicate.IsTrivial(q.Where), snap: snap}
	}

	// Step 1 + step 2 planning for every query, before any refresh.
	budgetDual := cfg.HasBudget && cfg.Mode != ModeImprecise
	for i := range items {
		it := &items[i]
		it.res.Initial = aggregate.EvalInputs(it.snap.inputs, it.q.Agg, it.noPred, it.snap.tableLen)
		it.res.Answer = it.res.Initial
		if it.q.RelativeWithin > 0 {
			rel := it.q.RelativeWithin
			it.q.RelativeWithin = 0
			it.q.Within = RelativeR(it.res.Initial, rel)
		}
		it.res.Met = Satisfies(it.res.Answer, it.q.Within)
		if it.res.Met && !(budgetDual && math.IsInf(it.q.Within, 1)) {
			continue
		}
		start := time.Now()
		plan, err := choosePlan(it.snap.inputs, it.q, it.noPred, it.snap.tableLen, cfg, ropts)
		it.res.ChooseTime = time.Since(start)
		if err != nil {
			return nil, nil, fmt.Errorf("batch %d: %w", i, err)
		}
		it.plan = plan
		if plan.Len() > 0 && it.e.oracle == nil {
			return nil, nil, fmt.Errorf("batch %d: %w: %q", i, ErrNoOracle, it.q.Table)
		}
	}

	// Merge the plans into one deduped refresh round per table and run
	// them. The fan-out boundary honors the context; a cutoff leaves
	// later tables unfetched and their queries fall back to cached-bound
	// answers plus whatever partial refreshes beat the deadline.
	unions := make(map[*storeEntry]*tableUnion)
	var order []*tableUnion
	for i := range items {
		it := &items[i]
		if it.plan.Len() == 0 {
			continue
		}
		u := unions[it.e]
		if u == nil {
			u = &tableUnion{e: it.e, index: make(map[int64]int)}
			unions[it.e] = u
			order = append(order, u)
		}
		for _, key := range it.plan.Keys {
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
		u.set, ctxErr, hardErr = u.e.fetch(ctx, u.keys)
		if ctxErr != nil || hardErr != nil {
			break
		}
	}

	// Step 3: answer each query from its own plan's refreshed tuples. A
	// hard error still fails the batch, but only after every query is
	// charged for the refreshes installed ahead of it.
	perQuery := make([]error, len(qs))
	results := make([]Result, len(qs))
	for i := range items {
		it := &items[i]
		finalizeBatchItem(it, unions[it.e], ctxErr, budgetDual, cfg.Budget)
		perQuery[i] = it.err
		results[i] = it.res
	}
	return results, perQuery, hardErr
}

// tableUnion is one table's deduped refresh round: the union of its
// queries' plan keys in first-seen order, each key's position in it, and
// the round's outcome aligned with keys (empty if the round never ran).
type tableUnion struct {
	e     *storeEntry
	keys  []int64
	index map[int64]int
	set   relation.RefreshSet
}

// finalizeBatchItem computes one query's final answer from its snapshot
// patched with the refreshed tuples of its own plan, and shapes its
// per-query error (budget exhaustion, deadline cutoff) exactly as the
// standalone execution path would. u is the refresh round of the query's
// table (nil when no query planned a refresh there).
func finalizeBatchItem(it *batchItem, u *tableUnion, ctxErr error, budgetDual bool, budget float64) {
	if it.plan.Len() == 0 {
		// Answered from cache alone (or the budget bought nothing).
		if budgetDual && !it.res.Met && !math.IsInf(it.q.Within, 1) && ctxErr == nil {
			it.err = ErrBudgetExhausted{Achieved: it.res.Answer, Spent: 0, Budget: budget}
		} else if ctxErr != nil && !it.res.Met {
			it.err = ErrPrecisionUnmet{Achieved: it.res.Answer, Spent: 0, Cause: ctxErr}
		}
		return
	}
	mine := make(map[int64]bool, it.plan.Len())
	for j, key := range it.plan.Keys {
		if len(u.set.Installed) > 0 && u.set.Installed[u.index[key]] {
			mine[key] = true
			it.res.Refreshed++
			it.res.RefreshCost += it.plan.Costs[j]
		}
	}
	patched := it.snap.inputs
	if len(mine) > 0 {
		// The patch classifies each refreshed tuple exactly as a full
		// post-refresh rescan would, so the patched inputs are
		// bit-identical to that rescan's.
		cl := aggregate.NewClassifier(it.col, it.q.Where, true)
		patched = make([]aggregate.Input, 0, len(it.snap.inputs))
		for _, in := range it.snap.inputs {
			if !mine[in.Key] {
				patched = append(patched, in)
				continue
			}
			var ni aggregate.Input
			contributes := false
			present := it.e.viewTuple(in.Key, func(tu *relation.Tuple) {
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
	it.res.Answer = aggregate.EvalInputs(patched, it.q.Agg, it.noPred, it.snap.tableLen)
	it.res.Met = Satisfies(it.res.Answer, it.q.Within)
	switch {
	case ctxErr != nil && !it.res.Met:
		it.err = ErrPrecisionUnmet{Achieved: it.res.Answer, Spent: it.res.RefreshCost, Cause: ctxErr}
	case ctxErr == nil && budgetDual && !it.res.Met && !math.IsInf(it.q.Within, 1):
		it.err = ErrBudgetExhausted{Achieved: it.res.Answer, Spent: it.res.RefreshCost, Budget: budget}
	}
}
