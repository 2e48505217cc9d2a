package relation

import "fmt"

// EndpointKind selects which quantity of a bounded column an index orders.
type EndpointKind int8

const (
	// LowerEndpoint indexes L_i, used by CHOOSE_REFRESH for MIN.
	LowerEndpoint EndpointKind = iota
	// UpperEndpoint indexes H_i, used to find min_k(H_k) and by MAX.
	UpperEndpoint
)

// String names the endpoint kind.
func (k EndpointKind) String() string {
	if k == LowerEndpoint {
		return "lower"
	}
	return "upper"
}

// index is a maintained B-tree over one endpoint quantity of one column of
// a store shard, providing the sublinear scans assumed by the paper's
// complexity analysis (sections 5.1, 6.3, 8.3). The index maps quantity
// values to tuple keys; after any table mutation the owner must call
// Update (or Rebuild) to keep it consistent.
type index struct {
	table *Table
	col   int
	kind  EndpointKind
	tree  *BTree
	// current records each indexed tuple's current key so updates can
	// remove the stale entry.
	current map[int64]float64
}

// newIndex builds an index over the given column and endpoint kind.
func newIndex(t *Table, col int, kind EndpointKind) *index {
	idx := &index{table: t, col: col, kind: kind, tree: NewBTree(16),
		current: make(map[int64]float64)}
	idx.Rebuild()
	return idx
}

// quantity extracts the indexed quantity from a tuple.
func (idx *index) quantity(tu *Tuple) float64 {
	if idx.kind == LowerEndpoint {
		return tu.Bounds[idx.col].Lo
	}
	return tu.Bounds[idx.col].Hi
}

// Rebuild reconstructs the index from scratch in O(n log n).
func (idx *index) Rebuild() {
	idx.tree = NewBTree(16)
	for k := range idx.current {
		delete(idx.current, k)
	}
	for i := 0; i < idx.table.Len(); i++ {
		tu := idx.table.At(i)
		q := idx.quantity(tu)
		idx.tree.Insert(q, tu.Key)
		idx.current[tu.Key] = q
	}
}

// Update refreshes the index entry for the tuple with the given key after
// its bounds changed, and inserts it if new. It returns an error if the key
// is not in the table.
func (idx *index) Update(key int64) error {
	i := idx.table.ByKey(key)
	if i < 0 {
		return fmt.Errorf("relation: index update for unknown key %d", key)
	}
	if old, ok := idx.current[key]; ok {
		idx.tree.Delete(old, key)
	}
	q := idx.quantity(idx.table.At(i))
	idx.tree.Insert(q, key)
	idx.current[key] = q
	return nil
}

// Remove drops the index entry for a deleted tuple.
func (idx *index) Remove(key int64) {
	if old, ok := idx.current[key]; ok {
		idx.tree.Delete(old, key)
		delete(idx.current, key)
	}
}

// Len returns the number of indexed tuples.
func (idx *index) Len() int { return idx.tree.Len() }

// Min returns the tuple key with the smallest indexed quantity.
func (idx *index) Min() (quantity float64, key int64, ok bool) { return idx.tree.Min() }

// Max returns the tuple key with the largest indexed quantity.
func (idx *index) Max() (quantity float64, key int64, ok bool) { return idx.tree.Max() }

// KeysLess returns the keys of all tuples whose indexed quantity is
// strictly less than pivot, in ascending quantity order.
func (idx *index) KeysLess(pivot float64) []int64 {
	var out []int64
	idx.tree.AscendLess(pivot, func(_ float64, id int64) bool {
		out = append(out, id)
		return true
	})
	return out
}

// KeysGreater returns the keys of all tuples whose indexed quantity is
// strictly greater than pivot, in descending quantity order.
func (idx *index) KeysGreater(pivot float64) []int64 {
	var out []int64
	idx.tree.DescendGreater(pivot, func(_ float64, id int64) bool {
		out = append(out, id)
		return true
	})
	return out
}
