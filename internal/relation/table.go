package relation

import (
	"fmt"
	"math"
	"sync/atomic"

	"trapp/internal/boundfn"
	"trapp/internal/interval"
)

// Tuple is one cached row: per-column guaranteed bounds plus the cost of
// refreshing the tuple from its source. Exact columns hold point intervals.
type Tuple struct {
	// Key identifies the master data object this tuple replicates.
	Key int64
	// Bounds has one interval per schema column.
	Bounds []interval.Interval
	// Cost is the (query-initiated) refresh cost C_i for this tuple.
	Cost float64
	// SourceID names the data source owning the master copy; empty for
	// standalone tables used in tests.
	SourceID string
}

// setHeader copies everything of src but its Bounds into t, whose Bounds
// keep naming t's own arena row.
func (t *Tuple) setHeader(src *Tuple) { t.Key, t.Cost, t.SourceID = src.Key, src.Cost, src.SourceID }

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	b := make([]interval.Interval, len(t.Bounds))
	copy(b, t.Bounds)
	t.Bounds = b
	return t
}

// NoPromise is the Seq of a row holding no source promise: a row inserted
// directly, or recovered from disk and not yet re-attached to its source.
// Every sequence number a source stamps is larger.
const NoPromise int64 = math.MinInt64

// Table is a cached relation: an ordered collection of tuples sharing a
// schema, and the single owner of everything stored per row. The rows
// live in four parallel arrays that always hold the same number of rows
// in the same order:
//
//   - tuples: key, cost and owner of row i, and the Bounds slice header;
//   - arena: the interval bounds, row-major — tuples[i].Bounds is always
//     exactly arena[i*nc : (i+1)*nc], so a scan walks one contiguous
//     array in row order;
//   - promises: the bound functions V ± W·f(T−Tr) the row's source last
//     promised, one per bounded column, row-major (paper §3.2) — the
//     intervals in the arena are these evaluated at the last Sync;
//   - seqs: the newest applied Refresh.Seq per row, NoPromise while the
//     row holds no promise.
//
// Insert and Delete move a row's entries in all four arrays together. All
// four grow together by a bounded slack (see grow): capacity never
// exceeds the most rows the table has held by more than an eighth (16
// rows for a small table).
//
// Every Table is a shard of a Store: its rows are in canonical order (see
// CanonicalLess) and keys are found by binary search. A Table performs no
// locking of its own: it is guarded by its shard's RWMutex (see Store),
// which the query processor shares — scans hold it for reading, refresh
// installation and source pushes for writing.
type Table struct {
	schema *Schema
	nc     int   // columns per row
	bcols  []int // bounded columns, schema order

	tuples   []Tuple
	arena    []interval.Interval
	promises []boundfn.Bound
	seqs     []int64

	// version counts completed mutations (Insert/Delete/Refresh/SetBound).
	// Every mutating method bumps it after the write, so a reader that
	// observes an unchanged version across two scans saw the same table
	// state both times — the invalidation token for the query layer's
	// plan cache. Reading it is lock-free; bumping happens under whatever
	// lock already guards the mutation.
	version atomic.Uint64
}

// newSortedTable returns an empty store shard, the only way a Table is
// built.
func newSortedTable(schema *Schema) *Table {
	return &Table{schema: schema, nc: schema.NumColumns(), bcols: schema.BoundedColumns()}
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the number of tuples. Because insertions and deletions are
// propagated to caches immediately (paper section 3), this equals the master
// cardinality, which is why COUNT without a predicate needs no refreshes.
func (t *Table) Len() int { return len(t.tuples) }

// At returns a pointer to the i'th tuple for in-place refresh. The pointer
// and the tuple's Bounds slice point into the table's row arrays: they
// are valid only while the caller holds the lock guarding the table, and
// after an Insert or Delete they name whichever row now sits at that
// position. Copy values out (Tuple.Clone, aggregate.Input) to keep them.
func (t *Table) At(i int) *Tuple { return &t.tuples[i] }

// ByKey returns the index of the tuple with the given key, or -1.
func (t *Table) ByKey(key int64) int {
	if i, ok := t.find(key); ok {
		return i
	}
	return -1
}

// find returns the key's row and true, or the position a new row for the
// key belongs at and false, by binary search over the canonical row order.
func (t *Table) find(key int64) (int, bool) {
	lo, hi := 0, len(t.tuples)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if CanonicalLess(t.tuples[m].Key, key) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t.tuples) && t.tuples[lo].Key == key
}

// Promise returns row i's promised bound functions, one per bounded
// column in schema order — a window into the row arrays, valid like At's
// pointer. It is meaningful only when HasPromise(i).
func (t *Table) Promise(i int) []boundfn.Bound {
	nb := len(t.bcols)
	return t.promises[i*nb : (i+1)*nb : (i+1)*nb]
}

// Seq returns the newest Refresh.Seq applied to row i, or NoPromise.
func (t *Table) Seq(i int) int64 { return t.seqs[i] }

// HasPromise reports whether a source promise was installed on row i
// since the row was inserted.
func (t *Table) HasPromise(i int) bool { return t.seqs[i] != NoPromise }

// SetPromise copies the bound functions (one per bounded column) and the
// sequence number of the refresh that carried them into row i. It does
// not touch the row's intervals and does not bump the version: the
// caller writes the intervals the promise evaluates to.
func (t *Table) SetPromise(i int, bounds []boundfn.Bound, seq int64) {
	copy(t.Promise(i), bounds)
	t.seqs[i] = seq
}

// Install writes a refresh into row i in one step: the promise (bound
// functions and sequence number, as SetPromise) and the intervals it
// stands for — the exact values as points when exact is set (a paid
// query-initiated refresh collapses the row until the next Sync), each
// bound function evaluated at now otherwise. An empty interval is never
// written: that column keeps its bound, as with SetBound. values and
// bounds hold one entry per bounded column, in schema order.
func (t *Table) Install(i int, seq int64, values []float64, bounds []boundfn.Bound, exact bool, now int64) {
	bs := t.tuples[i].Bounds
	for j, col := range t.bcols {
		iv := interval.Point(values[j])
		if !exact {
			iv = bounds[j].At(now)
		}
		if !iv.IsEmpty() {
			bs[col] = iv
		}
	}
	t.SetPromise(i, bounds, seq)
	t.version.Add(1)
}

// Insert adds a tuple at its canonical position (binary search, one shift
// of the row arrays). It returns an error if the bound count does not
// match the schema, an exact column holds a non-point bound, or the key
// is already present (keys identify master objects uniquely).
func (t *Table) Insert(tu Tuple) error {
	if err := t.validate(&tu); err != nil {
		return err
	}
	i, dup := t.find(tu.Key)
	if dup {
		return fmt.Errorf("relation: duplicate key %d", tu.Key)
	}
	t.insertAt(i, &tu)
	return nil
}

// validate checks a tuple against the schema.
func (t *Table) validate(tu *Tuple) error {
	if len(tu.Bounds) != t.nc {
		return fmt.Errorf("relation: tuple has %d bounds, schema has %d columns",
			len(tu.Bounds), t.nc)
	}
	for i, b := range tu.Bounds {
		if b.IsEmpty() {
			return fmt.Errorf("relation: empty bound for column %q", t.schema.Column(i).Name)
		}
		if t.schema.Column(i).Kind == Exact && !b.IsPoint() {
			return fmt.Errorf("relation: non-point bound %v for exact column %q",
				b, t.schema.Column(i).Name)
		}
	}
	if !(tu.Cost >= 0) || math.IsInf(tu.Cost, 1) {
		return fmt.Errorf("relation: refresh cost %g is not finite and nonnegative", tu.Cost)
	}
	return nil
}

// grow makes room for one more row in every row array. Capacity grows by
// an eighth (at least 16 rows) rather than by append's doubling: the row
// arrays are most of a cache's heap, and a table that sits up to 100%
// above its size costs more than the ~8 copies per row that filling a
// table this way costs (bulk loads — population, recovery — pay them).
// All slots up to capacity keep their Bounds header pointed at their
// arena row, so moving rows never rewrites headers.
func (t *Table) grow() {
	n := len(t.tuples)
	if n < cap(t.tuples) {
		return
	}
	rows, nb := n+max(n/8, 16), len(t.bcols)
	tuples := make([]Tuple, n, rows)
	arena := make([]interval.Interval, n*t.nc, rows*t.nc)
	promises := make([]boundfn.Bound, n*nb, rows*nb)
	seqs := make([]int64, n, rows)
	copy(tuples, t.tuples)
	copy(arena, t.arena)
	copy(promises, t.promises)
	copy(seqs, t.seqs)
	all := tuples[:rows]
	for i := range all {
		all[i].Bounds = arena[i*t.nc : (i+1)*t.nc : (i+1)*t.nc]
	}
	t.tuples, t.arena, t.promises, t.seqs = tuples, arena, promises, seqs
}

// setLen sets the number of rows every row array holds; n is at most the
// capacity grow established.
func (t *Table) setLen(n int) {
	nb := len(t.bcols)
	t.tuples = t.tuples[:n]
	t.arena = t.arena[:n*t.nc]
	t.promises = t.promises[:n*nb]
	t.seqs = t.seqs[:n]
}

// insertAt opens position i (shifting rows i.. up by one) and stores the
// validated tuple there with no promise.
func (t *Table) insertAt(i int, tu *Tuple) {
	n, nc, nb := len(t.tuples), t.nc, len(t.bcols)
	t.grow()
	t.setLen(n + 1)
	copy(t.arena[(i+1)*nc:], t.arena[i*nc:n*nc])
	copy(t.promises[(i+1)*nb:], t.promises[i*nb:n*nb])
	copy(t.seqs[i+1:], t.seqs[i:n])
	for j := n; j > i; j-- {
		t.tuples[j].setHeader(&t.tuples[j-1])
	}
	t.put(i, tu)
}

// put stores the validated tuple in row i — header and bounds — with no
// promise.
func (t *Table) put(i int, tu *Tuple) {
	t.tuples[i].setHeader(tu)
	copy(t.tuples[i].Bounds, tu.Bounds)
	clear(t.Promise(i))
	t.seqs[i] = NoPromise
	t.version.Add(1)
}

// Delete removes the tuple with the given key, modelling an immediately
// propagated master deletion: the rows above it shift down by one,
// keeping canonical order. It reports whether the key was present.
func (t *Table) Delete(key int64) bool {
	i, ok := t.find(key)
	if !ok {
		return false
	}
	n, nc, nb := len(t.tuples), t.nc, len(t.bcols)
	copy(t.arena[i*nc:], t.arena[(i+1)*nc:])
	copy(t.promises[i*nb:], t.promises[(i+1)*nb:])
	copy(t.seqs[i:], t.seqs[i+1:])
	for j := i; j < n-1; j++ {
		t.tuples[j].setHeader(&t.tuples[j+1])
	}
	// Release the references the vacated last row held.
	t.tuples[n-1].SourceID = ""
	clear(t.Promise(n - 1))
	t.setLen(n - 1)
	t.version.Add(1)
	return true
}

// Refresh replaces the bounded columns of tuple i with the given exact
// master values (one per bounded column, in schema order), collapsing their
// bounds to points — the cache-side effect of a query-initiated refresh.
func (t *Table) Refresh(i int, exact []float64) error {
	if len(exact) != len(t.bcols) {
		return fmt.Errorf("relation: refresh got %d values, table has %d bounded columns",
			len(exact), len(t.bcols))
	}
	tu := &t.tuples[i]
	for j, c := range t.bcols {
		tu.Bounds[c] = interval.Point(exact[j])
	}
	t.version.Add(1)
	return nil
}

// SetBound replaces a single column's bound on tuple i, used when a source
// pushes a refreshed (value + new bound) for one object attribute.
func (t *Table) SetBound(i, col int, b interval.Interval) error {
	if b.IsEmpty() {
		return fmt.Errorf("relation: empty bound")
	}
	if t.schema.Column(col).Kind == Exact && !b.IsPoint() {
		return fmt.Errorf("relation: non-point bound for exact column %q", t.schema.Column(col).Name)
	}
	t.tuples[i].Bounds[col] = b
	t.version.Add(1)
	return nil
}

// Version returns the table's mutation counter. Two equal reads bracketing
// a scan certify the scan saw a single, unmutated table state; any
// completed mutation in between is guaranteed to change the value.
func (t *Table) Version() uint64 { return t.version.Load() }
