package partition

import (
	"context"
	"fmt"
	"sync"

	"trapp/internal/aggregate"
	"trapp/internal/interval"
	"trapp/internal/obs"
	"trapp/internal/parallel"
	"trapp/internal/query"
	"trapp/internal/relation"
)

// scattered is one catalog table's registration with the cluster's
// processor: the relation as the three-step executor sees it when its
// tuples live on the cluster's nodes. It supplies only where the tuples
// are folded — validation, phase boundaries, CHOOSE_REFRESH, cost
// accounting and error shaping are query.Processor's (DESIGN.md §14).
type scattered struct {
	cl     *Cluster
	schema *relation.Schema
}

// Schema implements query.Registration.
func (s *scattered) Schema() *relation.Schema { return s.schema }

// Begin implements query.Registration.
func (s *scattered) Begin() query.Execution { return &scatterRun{cl: s.cl} }

// scatterRun is one request over a scattered relation. It remembers each
// partition's step-1 state: a partition that cannot hand over its inputs
// still counts toward the cardinality, and one the plan does not touch
// (or whose refresh fails) keeps that state in the final merge.
type scatterRun struct {
	cl     *Cluster
	shape  string
	states []*aggregate.State // step 1: live, or the last good fallback
	final  []*aggregate.State // step 3: post-refresh where refreshed
}

// scatter runs op against every picked partition concurrently (all of
// them when pick is nil), each through call, and gathers values and
// errors by partition index.
func scatter[T any](cl *Cluster, ctx context.Context, pick func(i int) bool, op func(ctx context.Context, i int) (T, error)) ([]T, []error) {
	vals := make([]T, len(cl.nodes))
	errs := make([]error, len(cl.nodes))
	var wg sync.WaitGroup
	for i := range cl.nodes {
		if pick != nil && !pick(i) {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = call(cl, ctx, i, func(ctx context.Context) (T, error) { return op(ctx, i) })
		}(i)
	}
	wg.Wait()
	return vals, errs
}

// Fold implements query.Execution: each partition syncs its cache bounds
// and returns its local State; merging the bucket-disjoint states gives
// the answer one node holding every tuple would fold. A partition that
// stays unreachable through the retries falls back to its last good
// state, and the merged answer widens by DegradedSlack for each such
// partition — degrading precision instead of failing the query. The
// fallback cannot be refreshed through its dead partition, so the answer
// is reported frozen.
func (r *scatterRun) Fold(ctx context.Context, root *obs.Span, req query.Request) (interval.Interval, error, error) {
	cl := r.cl
	r.shape = shapeOf(req.Query)
	sp := root.StartSpan("scatter-state")
	defer sp.End()
	live, errs := scatter(cl, ctx, nil, func(ctx context.Context, i int) (aggregate.State, error) {
		return cl.nodes[i].State(ctx, r.shape)
	})
	r.states = make([]*aggregate.State, len(cl.nodes))
	degraded := 0
	var frozen error
	for i, err := range errs {
		if err == nil {
			r.states[i] = &live[i]
			cl.rememberState(r.shape, i, r.states[i])
			continue
		}
		if cached := cl.lastState(r.shape, i); cached != nil && ctx.Err() == nil {
			cl.stats[i].degraded.Add(1)
			r.states[i] = cached
			degraded++
			frozen = err
			continue
		}
		// No sound fallback: without this partition's tuples any answer
		// would be unsound, so the query fails like a single node whose
		// scan could not run.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return interval.Interval{}, nil, ctxErr
		}
		return interval.Interval{}, nil, fmt.Errorf("partition %s: state: %w", cl.nodes[i].ID(), err)
	}
	merged := aggregate.MergeStates(req.Query.Agg, req.NoPred, r.states)
	initial := merged.Answer()
	if degraded > 0 {
		cl.degradedQs.Add(1)
		initial = initial.Expand(cl.cfg.DegradedSlack * float64(degraded))
	}
	if sp != nil {
		sp.SetDetail("parts=%d degraded=%d width=%g", len(cl.nodes), degraded, initial.Width())
	}
	return initial, frozen, nil
}

// Snapshot implements query.Execution: the partitions' classified
// snapshots merge into the canonical inputs — the same inputs, in the
// same order, a single node would classify, so the same plan. A
// partition that answered Fold but fails here keeps its step-1 state in
// the final merge; its tuples are simply not candidates for refresh this
// request — sound, since fewer refreshes only leave the answer wider.
func (r *scatterRun) Snapshot(ctx context.Context, root *obs.Span, _ query.Request) ([]aggregate.Input, int, error) {
	cl := r.cl
	sp := root.StartSpan("scatter-inputs")
	defer sp.End()
	snaps, errs := scatter(cl, ctx, nil, func(ctx context.Context, i int) (snapshot, error) {
		inputs, n, err := cl.nodes[i].Inputs(ctx, r.shape)
		return snapshot{inputs, n}, err
	})
	parts := make([][]aggregate.Input, 0, len(cl.nodes))
	tableLen, excluded := 0, 0
	for i, err := range errs {
		if err == nil {
			parts = append(parts, snaps[i].inputs)
			tableLen += snaps[i].n
			continue
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, 0, ctxErr
		}
		excluded++
		tableLen += r.states[i].TableLen
	}
	inputs := aggregate.MergeInputs(parts...)
	if sp != nil {
		sp.SetDetail("inputs=%d excluded=%d", len(inputs), excluded)
	}
	return inputs, tableLen, nil
}

// Refresh implements query.Execution: each planned key goes to the
// partition owning its bucket, and the partitions' fan-outs run
// concurrently. A partition's request is a subsequence of keys and its
// Installed a subsequence of its request, so one cursor per partition
// aligns the outcomes with keys. A partition whose refresh failed still
// reports, beside the error, what it installed before failing (embedded,
// or carried by the remote error frame): those refreshes were paid and
// are marked. Its wider step-1 state stays in the final merge —
// conservative, therefore sound.
func (r *scatterRun) Refresh(ctx context.Context, _ query.Request, keys []int64) ([]bool, error, error) {
	cl := r.cl
	owner := make([]int, len(keys))
	perKeys := make([][]int64, len(cl.nodes))
	for j, key := range keys {
		o := cl.ring.OwnerOfKey(key)
		owner[j] = o
		perKeys[o] = append(perKeys[o], key)
	}
	outs, errs := scatter(cl, ctx, func(i int) bool { return len(perKeys[i]) > 0 },
		func(ctx context.Context, i int) (RefreshOutcome, error) {
			return cl.nodes[i].Refresh(ctx, r.shape, perKeys[i])
		})
	r.final = make([]*aggregate.State, len(cl.nodes))
	var ctxErr, hardErr error
	for i := range cl.nodes {
		r.final[i] = r.states[i]
		if len(perKeys[i]) == 0 {
			continue
		}
		switch {
		case errs[i] == nil:
			if outs[i].Cut {
				ctxErr = coordCtxErr(ctx)
			}
			r.final[i] = &outs[i].State
			cl.rememberState(r.shape, i, r.final[i])
		case parallel.IsContextError(errs[i]) || ctx.Err() != nil:
			ctxErr = coordCtxErr(ctx)
		case hardErr == nil:
			hardErr = fmt.Errorf("partition %s: refresh: %w", cl.nodes[i].ID(), errs[i])
		}
	}
	installed := make([]bool, len(keys))
	next := make([]int, len(cl.nodes))
	for j, key := range keys {
		o := owner[j]
		if done := outs[o].Installed; next[o] < len(done) && done[next[o]] == key {
			installed[j] = true
			next[o]++
		}
	}
	return installed, ctxErr, hardErr
}

// Refold implements query.Execution: refreshed partitions contribute
// their post-refresh states, untouched ones their step-1 states.
func (r *scatterRun) Refold(req query.Request) interval.Interval {
	merged := aggregate.MergeStates(req.Query.Agg, req.NoPred, r.final)
	return merged.Answer()
}

// coordCtxErr maps a partition-reported context cutoff onto the
// coordinator's own context error — the cause a single node would carry.
func coordCtxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.DeadlineExceeded
}
