package aggregate

import (
	"trapp/internal/interval"
	"trapp/internal/predicate"
	"trapp/internal/relation"
)

// This file is the store scan that feeds a State: the query processor's
// step-1 fold, a cluster partition's local fold, and a standing query's
// per-node fold all run it. The bounded answer is folded tuple by tuple
// during the shard scans themselves, without materializing any Input
// slice, so a cache-answered query allocates nothing proportional to the
// table and holds only one shard read lock at a time. A store's scan
// order — shards in index order, canonically sorted tuples within each
// shard — IS the canonical order State.Feed requires (relation.NewStore
// caps the shard count to make it so), so the streamed answer is
// bit-identical to EvalInputs over CollectStore of any store holding the
// same tuples.

// CollectState folds the aggregate over column col of the store under
// predicate p (with the Appendix D shrink) into a State in one streaming
// pass.
func CollectState(st *relation.Store, col int, fn Func, p predicate.Expr) State {
	s := NewState(fn, predicate.IsTrivial(p))
	s.scan(st, col, p)
	return s
}

// EvalStoreStream computes the bounded answer for the aggregate over the
// store in one streaming pass into a stack State. It returns the answer
// and the store cardinality at scan time.
func EvalStoreStream(st *relation.Store, col int, fn Func, p predicate.Expr) (interval.Interval, int) {
	s := NewState(fn, predicate.IsTrivial(p))
	s.scan(st, col, p)
	return s.Answer(), s.TableLen
}

// scan feeds every contributing tuple of the store, shard by shard under
// each shard's read lock, and adds the scanned cardinality to TableLen.
func (s *State) scan(st *relation.Store, col int, p predicate.Expr) {
	c := NewClassifier(col, p, true)
	for si := 0; si < st.NumShards(); si++ {
		st.ViewShard(si, func(t *relation.Table) {
			s.TableLen += t.Len()
			s.scanTable(t, c)
		})
	}
}
