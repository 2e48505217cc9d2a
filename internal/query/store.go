package query

import (
	"context"
	"fmt"

	"trapp/internal/aggregate"
	"trapp/internal/interval"
	"trapp/internal/obs"
	"trapp/internal/parallel"
	"trapp/internal/predicate"
	"trapp/internal/relation"
)

// storeEntry is the store-backed registration: a sharded relation.Store
// carrying its own per-shard locks, the oracle that refreshes it, and the
// shape-keyed plan cache over it (plancache.go). Scans take shard read
// locks; installs write-lock only the shards owning the mutated keys. It
// remembers nothing between the steps of a request, so it is its own
// Execution.
type storeEntry struct {
	proc   *Processor // the plan-cache switch and the hit/miss counters
	store  *relation.Store
	oracle Oracle
	plans  *planCache
}

// Schema implements Registration.
func (e *storeEntry) Schema() *relation.Schema { return e.store.Schema() }

// Begin implements Registration.
func (e *storeEntry) Begin() Execution { return e }

// foldKey is the request's plan-cache key.
func (r *Request) foldKey() foldKey {
	return foldKey{col: r.Col, agg: r.Query.Agg, mode: r.Mode, pred: predKey(r.Query.Where)}
}

// Fold implements Execution. The step-1 answer depends only on the query
// shape and the relation state, so a memoized fold certified by the
// store's mutation counter replaces the scan outright (see plancache.go
// for the bit-identical argument). The version is read before the scan
// so a racing mutation can only leave a conservatively stale stamp. On a
// miss the answer is folded in one streaming pass (pooled buffers, no
// Input materialization) — the hot path for queries answered from cache;
// the Input snapshot is materialized only when refresh selection needs
// it.
func (e *storeEntry) Fold(_ context.Context, root *obs.Span, r Request) (interval.Interval, error, error) {
	usePlans := !e.proc.plansOff.Load()
	var key foldKey
	var ver uint64
	if usePlans {
		ver = e.store.Version()
		key = r.foldKey()
	}
	pcSp := root.StartSpan("plancache")
	var ent foldEntry
	hit := false
	if usePlans {
		ent, hit = e.plans.fold(e.proc.metrics, key, ver)
	}
	if pcSp != nil {
		pcSp.SetDetail("hit=%t", hit)
		pcSp.End()
	}
	if hit {
		return ent.initial, nil, nil
	}
	scanSp := root.StartSpan("scan")
	initial, n := aggregate.EvalStoreStream(e.store, r.Col, r.Query.Agg, r.Query.Where)
	if usePlans {
		e.plans.storeFold(key, ver, initial, n)
	}
	if scanSp != nil {
		scanSp.SetDetail("rows=%d width=%g", n, initial.Width())
		scanSp.End()
	}
	return initial, nil, nil
}

// Snapshot implements Execution.
func (e *storeEntry) Snapshot(_ context.Context, _ *obs.Span, r Request) ([]aggregate.Input, int, error) {
	inputs, n := e.snapshot(r.Col, r.Query.Where, r.Workers)
	return inputs, n, nil
}

// snapshot classifies the relation's tuples over column col under the
// predicate, returning the canonical key-ordered inputs and the
// cardinality at scan time. A memoized snapshot stamped with an
// unchanged mutation counter replaces the collection pass — the planners
// treat inputs as read-only, so sharing is safe; otherwise the store is
// scanned shard-parallel, each worker holding only its shard's read lock,
// and the fresh collection is memoized for later requests.
func (e *storeEntry) snapshot(col int, where predicate.Expr, workers int) ([]aggregate.Input, int) {
	if e.proc.plansOff.Load() {
		return aggregate.CollectStore(e.store, col, where, true, workers)
	}
	key := scanKey{col: col, pred: predKey(where)}
	v := e.store.Version()
	if sc, ok := e.plans.scan(key, v); ok {
		return sc.inputs, sc.n
	}
	inputs, n := aggregate.CollectStore(e.store, col, where, true, workers)
	if inputs != nil {
		e.plans.storeScan(key, v, inputs, n)
	}
	return inputs, n
}

// Refresh implements Execution: one refresh round for the plan's keys
// through the entry's oracle. The exact values are fetched outside any
// table lock — slow sources must not block other queries' scans — and
// installed write-locking only the shards owning keys in the plan. A
// Refresher fetches per source in parallel and installs the refreshed
// bounds itself (see Refresher); a plain per-key oracle is asked key by
// key, with the context honored between keys.
func (e *storeEntry) Refresh(ctx context.Context, r Request, keys []int64) ([]bool, error, error) {
	switch o := e.oracle.(type) {
	case nil:
		return nil, nil, fmt.Errorf("%w: %q", ErrNoOracle, r.Query.Table)
	case Refresher:
		set, err := o.Refresh(ctx, keys)
		if parallel.IsContextError(err) {
			return set.Installed, err, nil
		}
		return set.Installed, nil, err
	}
	installed := make([]bool, len(keys))
	for i, key := range keys {
		if err := ctx.Err(); err != nil {
			return installed, err, nil
		}
		v, ok := e.oracle.Master(key)
		if !ok {
			return installed, nil, fmt.Errorf("query: oracle has no master values for key %d", key)
		}
		// A dropped key no longer contributes; nothing to install.
		ok, err := e.store.Refresh(key, v)
		if err != nil {
			return installed, nil, err
		}
		installed[i] = ok
	}
	return installed, nil, nil
}

// Refold implements Execution. The post-refresh state is what the next
// same-shape request will scan, so the refold is memoized under the
// version read before it — repeat constrained shapes then hit on their
// initial scan.
func (e *storeEntry) Refold(r Request) interval.Interval {
	usePlans := !e.proc.plansOff.Load()
	var ver uint64
	if usePlans {
		ver = e.store.Version()
	}
	answer, n := aggregate.EvalStoreStream(e.store, r.Col, r.Query.Agg, r.Query.Where)
	if usePlans {
		e.plans.storeFold(r.foldKey(), ver, answer, n)
	}
	return answer
}

// forEachTuple visits every tuple shard by shard in ascending index
// order, each shard under its read lock. The tuple pointer is only valid
// during the callback.
func (e *storeEntry) forEachTuple(fn func(tu *relation.Tuple)) {
	for si := 0; si < e.store.NumShards(); si++ {
		e.store.ViewShard(si, func(t *relation.Table) {
			for i := 0; i < t.Len(); i++ {
				fn(t.At(i))
			}
		})
	}
}

// viewTuple runs fn on the current tuple for key under its shard's read
// lock, reporting whether the key is present.
func (e *storeEntry) viewTuple(key int64, fn func(tu *relation.Tuple)) bool {
	return e.store.View(key, func(t *relation.Table, i int) { fn(t.At(i)) })
}
