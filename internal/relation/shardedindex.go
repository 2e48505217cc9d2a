package relation

import (
	"fmt"
	"sort"
)

// ShardedIndex is a maintained endpoint index over a Store: one B-tree
// per shard, each indexing the same endpoint quantity of the same column
// over that shard's tuples. Updates route to the owning shard's tree, so
// concurrent maintenance of different shards' entries never touches
// shared structure; probes combine the per-shard trees.
//
// A ShardedIndex performs no locking of its own: the owner must
// coordinate calls with the store's shard locks (the refresh paths take
// the relevant shard's read lock around probes and its write lock around
// updates). Key-set results are returned in ascending key order,
// the store's deterministic iteration order.
type ShardedIndex struct {
	store *Store
	col   int
	kind  EndpointKind
	idx   []*index
}

// NewShardedIndex builds one per-shard index over the given column and
// endpoint kind. Each shard is read-locked while its tree is built.
func NewShardedIndex(st *Store, col int, kind EndpointKind) *ShardedIndex {
	si := &ShardedIndex{store: st, col: col, kind: kind, idx: make([]*index, st.NumShards())}
	for i := range si.idx {
		st.ViewShard(i, func(t *Table) {
			si.idx[i] = newIndex(t, col, kind)
		})
	}
	return si
}

// Rebuild reconstructs every shard's tree.
func (si *ShardedIndex) Rebuild() {
	for i, ix := range si.idx {
		si.store.ViewShard(i, func(*Table) { ix.Rebuild() })
	}
}

// Update refreshes the entry for the key in its owning shard's tree.
func (si *ShardedIndex) Update(key int64) error {
	ix := si.idx[si.store.ShardOf(key)]
	if err := ix.Update(key); err != nil {
		return fmt.Errorf("relation: sharded index: %w", err)
	}
	return nil
}

// Remove drops the key's entry from its owning shard's tree.
func (si *ShardedIndex) Remove(key int64) {
	si.idx[si.store.ShardOf(key)].Remove(key)
}

// Len returns the total number of indexed tuples.
func (si *ShardedIndex) Len() int {
	n := 0
	for _, ix := range si.idx {
		n += ix.Len()
	}
	return n
}

// Min returns the tuple key with the smallest indexed quantity across
// all shards (ties broken by the smaller key, for determinism).
func (si *ShardedIndex) Min() (quantity float64, key int64, ok bool) {
	for _, ix := range si.idx {
		q, k, has := ix.Min()
		if !has {
			continue
		}
		if !ok || q < quantity || (q == quantity && k < key) {
			quantity, key, ok = q, k, true
		}
	}
	return quantity, key, ok
}

// Max returns the tuple key with the largest indexed quantity across all
// shards (ties broken by the smaller key).
func (si *ShardedIndex) Max() (quantity float64, key int64, ok bool) {
	for _, ix := range si.idx {
		q, k, has := ix.Max()
		if !has {
			continue
		}
		if !ok || q > quantity || (q == quantity && k < key) {
			quantity, key, ok = q, k, true
		}
	}
	return quantity, key, ok
}

// KeysLess returns the keys of all tuples whose indexed quantity is
// strictly less than pivot, ascending by key.
func (si *ShardedIndex) KeysLess(pivot float64) []int64 {
	var out []int64
	for _, ix := range si.idx {
		out = append(out, ix.KeysLess(pivot)...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// KeysGreater returns the keys of all tuples whose indexed quantity is
// strictly greater than pivot, ascending by key.
func (si *ShardedIndex) KeysGreater(pivot float64) []int64 {
	var out []int64
	for _, ix := range si.idx {
		out = append(out, ix.KeysGreater(pivot)...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
