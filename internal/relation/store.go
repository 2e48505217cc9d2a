package relation

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultShards is the shard count used when a Store is created without an
// explicit one. Eight shards keep per-shard lock contention low for the
// workload sizes in this repository while the per-shard fixed scan
// overhead stays small.
const DefaultShards = 8

// fibMult is the 64-bit Fibonacci-hashing multiplier (⌊2^64/φ⌋, odd).
// Multiplying a key by it and keeping the top bits spreads consecutive
// keys evenly across shards.
const fibMult = 0x9E3779B97F4A7C15

// Store is a sharded cached relation: tuples are partitioned across a
// fixed power-of-two number of shards by a hash of their key, and each
// shard owns its row arrays (see Table) and its own RWMutex. Readers
// of disjoint shards never contend, and a writer (a source push, a
// refresh install, a membership change) blocks only scans of the one
// shard owning the key — the storage layer half of the engine's per-shard
// locking protocol (DESIGN.md §5).
//
// Iteration is deterministic: shard membership depends only on the key
// and the shard count, shards are always visited in ascending index
// order, and that visit order is the canonical (bucket, key) order (see
// CanonicalLess) — so bounded answers computed over a Store are
// bit-identical to those over any other Store holding the same tuples,
// whatever its shard count.
type Store struct {
	schema *Schema
	shift  uint // 64 − log2(len(shards))
	shards []storeShard
	length atomic.Int64
	// version counts completed mutations through any of the store's
	// write entry points (Insert/Delete/Update/UpdateShard/Refresh). The
	// bump happens after the shard write, so a reader that observes an
	// unchanged version across two scans saw identical store contents —
	// the invalidation token validated by the query layer's plan cache.
	version atomic.Uint64
}

// storeShard is one shard: a canonically ordered Table plus its lock.
// Lock-ordering rule: a goroutine holding one shard lock may only acquire
// another with a larger shard index, and no shard lock may be held while
// calling into a data source.
type storeShard struct {
	mu  sync.RWMutex
	tab *Table
}

// NewStore returns an empty sharded store with shardCount(nshards)
// shards.
func NewStore(schema *Schema, nshards int) *Store {
	n := shardCount(nshards)
	s := &Store{schema: schema, shift: uint(64 - bits.Len(uint(n-1))), shards: make([]storeShard, n)}
	for i := range s.shards {
		s.shards[i].tab = newSortedTable(schema)
	}
	return s
}

// Schema returns the store's schema.
func (s *Store) Schema() *Schema { return s.schema }

// NumShards returns the (power-of-two) shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// ShardOf returns the index of the shard owning the given key. The
// mapping depends only on the key and the shard count, so two stores
// with equal shard counts partition identically.
func (s *Store) ShardOf(key int64) int {
	return int((uint64(key) * fibMult) >> s.shift)
}

// NumCanonicalBuckets is the canonical bucket count. It is deliberately
// larger than DefaultShards: buckets are the placement unit of the
// partition tier (a ring assigns whole buckets to nodes, so the bucket
// count caps the cluster width and sets the rebalancing grain), while the
// shard count stays small to keep the per-query fixed scan overhead low.
// It is a power of two, and shardCount caps every store at it, so the
// natural-scan-order property of CanonicalLess holds for every store.
const NumCanonicalBuckets = 64

// shardCount is the shard count of a store asked for nshards: values ≤ 0
// select DefaultShards; others round up to the next power of two, capped
// at NumCanonicalBuckets.
func shardCount(nshards int) int {
	if nshards <= 0 {
		return DefaultShards
	}
	n := 1
	for n < nshards && n < NumCanonicalBuckets {
		n <<= 1
	}
	return n
}

// canonicalShift is the hash shift selecting the top log2(NumCanonicalBuckets)
// bits, used by the canonical order below.
var canonicalShift = func() uint {
	n, shift := 1, uint(64)
	for n < NumCanonicalBuckets {
		n <<= 1
		shift--
	}
	return shift
}()

// CanonicalBucket returns the key's bucket in the canonical order: the
// top log2(NumCanonicalBuckets) bits of its Fibonacci hash. Buckets are
// the unit of both fold structure (order-sensitive folds combine
// per-bucket subtotals in ascending bucket order — see aggregate.State)
// and cluster partitioning (a partition owns whole buckets, so
// per-partition partial folds merge into the global fold bit-identically).
func CanonicalBucket(key int64) int {
	return int((uint64(key) * fibMult) >> canonicalShift)
}

// CanonicalLess is the canonical tuple order every order-sensitive fold
// over a cached relation uses: ascending (canonical bucket, key). A
// store's shard index is the top log2(nshards) hash bits — a prefix of
// the bucket bits, since nshards ≤ NumCanonicalBuckets — so visiting
// shards in index order and each shard's canonically sorted tuples in
// sequence IS canonical order: scans pay nothing for determinism. The
// order depends only on the key set, so answers and refresh plans are
// bit-identical across shard counts.
func CanonicalLess(a, b int64) bool {
	sa := (uint64(a) * fibMult) >> canonicalShift
	sb := (uint64(b) * fibMult) >> canonicalShift
	if sa != sb {
		return sa < sb
	}
	return a < b
}

// Len returns the total number of tuples across all shards. It equals the
// master cardinality (see Table.Len), maintained as a lock-free counter so
// predicate-free COUNT needs no shard locks.
func (s *Store) Len() int { return int(s.length.Load()) }

// ViewShard runs fn over shard i's table under the shard's read lock.
func (s *Store) ViewShard(i int, fn func(t *Table)) {
	s.shards[i].mu.RLock()
	defer s.shards[i].mu.RUnlock()
	fn(s.shards[i].tab)
}

// UpdateShard runs fn over shard i's table under the shard's write lock
// and bumps the store version once if fn reports that it wrote anything —
// one lock acquisition and one version bump for a whole pass over the
// shard's rows. fn must not change the table's cardinality or tuple order
// (use Insert/Delete, which maintain the store's length counter and the
// per-shard key-order invariant); mutating rows in place is fine.
func (s *Store) UpdateShard(i int, fn func(t *Table) (wrote bool)) {
	s.shards[i].mu.Lock()
	defer s.shards[i].mu.Unlock()
	if fn(s.shards[i].tab) {
		s.version.Add(1)
	}
}

// Version returns the store's mutation counter. Two equal reads
// bracketing a scan certify the scan saw a single, unmutated store state;
// any completed mutation in between is guaranteed to change the value.
func (s *Store) Version() uint64 { return s.version.Load() }

// View runs fn with the owning shard's table and the key's position
// under the shard read lock; it reports whether the key was present (fn
// is not called otherwise).
func (s *Store) View(key int64, fn func(t *Table, i int)) bool {
	sh := &s.shards[s.ShardOf(key)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	i := sh.tab.ByKey(key)
	if i < 0 {
		return false
	}
	fn(sh.tab, i)
	return true
}

// Update is View with the shard write-locked, for in-place mutation of
// one tuple's bounds.
func (s *Store) Update(key int64, fn func(t *Table, i int)) bool {
	sh := &s.shards[s.ShardOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i := sh.tab.ByKey(key)
	if i < 0 {
		return false
	}
	fn(sh.tab, i)
	s.version.Add(1)
	return true
}

// Get returns a deep copy of the tuple with the given key.
func (s *Store) Get(key int64) (Tuple, bool) {
	var tu Tuple
	ok := s.View(key, func(t *Table, i int) { tu = t.At(i).Clone() })
	return tu, ok
}

// Insert adds a tuple to its owning shard, validated as Table.Insert
// does. Keys are unique store-wide because every duplicate hashes to the
// same shard. Each shard's tuples are kept in canonical
// order (CanonicalLess) — the store invariant that lets scans emit
// canonically ordered inputs by concatenating shard runs instead of
// sorting (mutations pay the O(shard) shift; scans are the hot path).
func (s *Store) Insert(tu Tuple) error {
	sh := &s.shards[s.ShardOf(tu.Key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.tab.Insert(tu); err != nil {
		return err
	}
	s.length.Add(1)
	s.version.Add(1)
	return nil
}

// upsert is Insert for WAL replay over a snapshot that may already hold
// the key: a present row is overwritten in place (header and bounds, its
// promise cleared, as a fresh insert leaves it) instead of being deleted
// and re-inserted, which would shift the shard's rows twice.
func (s *Store) upsert(tu Tuple) error {
	sh := &s.shards[s.ShardOf(tu.Key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.tab.validate(&tu); err != nil {
		return err
	}
	if i, ok := sh.tab.find(tu.Key); ok {
		sh.tab.put(i, &tu)
	} else {
		sh.tab.insertAt(i, &tu)
		s.length.Add(1)
	}
	s.version.Add(1)
	return nil
}

// MustInsert inserts the tuple and panics on error; for fixtures.
func (s *Store) MustInsert(tu Tuple) {
	if err := s.Insert(tu); err != nil {
		panic(err)
	}
}

// Delete removes the tuple with the given key, locking only its shard
// and preserving the shard's canonical order.
func (s *Store) Delete(key int64) bool {
	sh := &s.shards[s.ShardOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.tab.Delete(key) {
		return false
	}
	s.length.Add(-1)
	s.version.Add(1)
	return true
}

// Refresh collapses the bounded columns of the keyed tuple to the given
// exact values (see Table.Refresh), write-locking only the owning shard.
// It reports whether the key was present.
func (s *Store) Refresh(key int64, exact []float64) (bool, error) {
	var err error
	ok := s.Update(key, func(t *Table, i int) { err = t.Refresh(i, exact) })
	return ok, err
}

// RefreshSet reports one refresh round over a requested key list, entry
// for entry: Installed[i] says whether keys[i]'s refresh reached the
// relation — a key dropped since it was requested, or a reply overtaken
// by a newer push, did not — and row i of Values holds the exact
// bounded-column values that were installed for it. Whoever runs the round
// fills it; per-source batches own disjoint entries, so concurrent
// batches fill one set without a lock.
type RefreshSet struct {
	Installed []bool
	Values    []float64 // row-major: one row of bounded columns per key
}

// NewRefreshSet returns an all-false set for n requested keys of nb
// bounded columns each.
func NewRefreshSet(n, nb int) RefreshSet {
	return RefreshSet{Installed: make([]bool, n), Values: make([]float64, n*nb)}
}

// Row returns entry i's exact values, meaningful when Installed[i].
func (s RefreshSet) Row(i int) []float64 {
	nb := len(s.Values) / len(s.Installed)
	return s.Values[i*nb : (i+1)*nb : (i+1)*nb]
}

// SortedKeys returns every cached key in ascending order — the
// deterministic iteration order callers use to build plans and views
// independent of shard layout.
func (s *Store) SortedKeys() []int64 {
	out := make([]int64, 0, s.Len())
	for i := range s.shards {
		s.ViewShard(i, func(t *Table) {
			for j := 0; j < t.Len(); j++ {
				out = append(out, t.At(j).Key)
			}
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
