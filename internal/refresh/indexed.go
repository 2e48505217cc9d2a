package refresh

import (
	"fmt"
	"math"

	"trapp/internal/relation"
)

// Indexed refresh selection. The paper notes (sections 5.1 and 8.3) that
// with B-tree indexes on the lower and upper bound endpoints, the MIN
// refresh set — all tuples with L_i < min_k(H_k) − R — can be found in
// time sublinear in the table size: one index-minimum probe plus a range
// scan that touches only the selected tuples. These helpers implement
// that plan for predicate-free MIN and MAX queries over a store with a
// relation.ShardedIndex pair; with a selection predicate the candidate
// set depends on classification and the O(n) scan in ChooseStore
// applies.

// ChooseMinIndexedStore computes the CHOOSE_REFRESH set for a
// predicate-free MIN query — all tuples with L_i < min_k(H_k) − R — from
// endpoint indexes: lower must index the aggregation column's lower
// endpoints and upper its upper endpoints. It costs one minimum probe
// per shard tree plus per-shard range scans touching only the selected
// tuples. The caller must not hold any shard lock (plan materialization
// takes each key's shard read lock internally) and must coordinate index
// maintenance with store mutations. The returned plan's key set equals
// ChooseStore's for the same query, at any shard count.
func ChooseMinIndexedStore(st *relation.Store, lower, upper *relation.ShardedIndex, r float64) (Plan, error) {
	if r < 0 || math.IsNaN(r) {
		return Plan{}, fmt.Errorf("refresh: invalid precision constraint %g", r)
	}
	if math.IsInf(r, 1) {
		return Plan{}, nil
	}
	minH, _, ok := upper.Min()
	if !ok {
		return Plan{}, nil // empty store
	}
	return planFromStoreKeys(st, lower.KeysLess(minH-r)), nil
}

// ChooseMaxIndexedStore is the symmetric MAX plan: all tuples with
// H_i > max_k(L_k) + R, via the same two index probes.
func ChooseMaxIndexedStore(st *relation.Store, lower, upper *relation.ShardedIndex, r float64) (Plan, error) {
	if r < 0 || math.IsNaN(r) {
		return Plan{}, fmt.Errorf("refresh: invalid precision constraint %g", r)
	}
	if math.IsInf(r, 1) {
		return Plan{}, nil
	}
	maxL, _, ok := lower.Max()
	if !ok {
		return Plan{}, nil
	}
	return planFromStoreKeys(st, upper.KeysGreater(maxL+r)), nil
}

// planFromStoreKeys materializes a plan from tuple keys of a sharded
// store. Indexes hold positions in the plan's own key order (a sharded
// store has no global physical positions).
func planFromStoreKeys(st *relation.Store, keys []int64) Plan {
	p := Plan{Keys: make([]int64, 0, len(keys)), Indexes: make([]int, 0, len(keys))}
	for _, key := range keys {
		tu, ok := st.Get(key)
		if !ok {
			continue
		}
		p.Indexes = append(p.Indexes, len(p.Keys))
		p.Keys = append(p.Keys, key)
		p.Costs = append(p.Costs, tu.Cost)
		p.Cost += tu.Cost
	}
	return p
}
