// Package cache implements the data-cache side of the TRAPP architecture
// (paper section 3, Figure 3): a cache stores, for every replicated data
// object, the time-varying bound functions most recently promised by the
// object's source, materializes them into a relational table of interval
// bounds for the query processor, and pulls query-initiated refreshes when
// a precision constraint demands exact values.
//
// # Layout
//
// Everything the cache knows per object lives in the object's row of the
// cached relation (relation.Table): the interval bounds the query
// processor reads, the promise V ± W·f(T−Tr) they were evaluated from, the
// sequence number of the refresh that carried the promise, and the name
// of the owning source. The cache keeps no per-object map of its own. A
// row is attached to a source exactly when it holds a promise; the source
// itself is found from the row's SourceID through one small per-cache
// name → source map. A clock tick is therefore one linear pass over each
// shard's row arrays, evaluating each row's promise into the interval
// beside it.
//
// # Concurrency
//
// The cached relation is a sharded store (relation.Store): tuples are
// partitioned by a hash of their key, and every shard carries two locks
// with a strict acquisition order (the shard's state mutex before the
// shard's table lock, never the reverse):
//
//   - the state mutex guards the shard's Sync bookkeeping and serializes
//     the cache's own writers of the shard — every refresh install,
//     subscribe, re-handshake and drop holds it across its sequence
//     check, table write and log append, so the log's per-shard order is
//     the table's;
//   - the store's shard RWMutex guards the shard's rows: intervals,
//     promises, sequence numbers, membership and order. The query
//     processor shares it (via Store) so that aggregation scans take
//     shard read locks while refresh installation takes the owning
//     shard's write lock; queries scan all shards in parallel, and a
//     source push blocks only scans of the one shard owning the pushed
//     key.
//
// A refresh round is batch passes, not per-key transactions: a source's
// reply is installed shard by shard, each shard's pair of locks taken once
// for all of its rows (install), and a pushed refresh is the same row
// install on a batch of one. A goroutine holding one shard's locks never
// acquires another shard's (Keys, install and a stale Sync visit shards
// one at a time, or one goroutine per shard), and no shard lock is ever
// held while calling into a source, so sources can push value-initiated
// refreshes from their own goroutines without deadlock: a push simply
// queues behind in-flight scans of its one shard. The source-name map has
// its own lock, which is never held together with any other.
package cache

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"trapp/internal/interval"
	"trapp/internal/netsim"
	"trapp/internal/obs"
	"trapp/internal/parallel"
	"trapp/internal/relation"
	"trapp/internal/source"
)

// EventKind classifies cache change events delivered to the listener
// installed with SetListener.
type EventKind int8

const (
	// RefreshApplied reports a refresh (value- or query-initiated) that
	// reached the cached table.
	RefreshApplied EventKind = iota
	// ObjectAdded reports a new object subscribed into the cache.
	ObjectAdded
	// ObjectDropped reports a cached object removed (propagated delete).
	ObjectDropped
)

// Event is one cache change: an applied refresh or a membership change.
// The continuous-query engine consumes these to maintain standing
// answers incrementally instead of rescanning.
type Event struct {
	// Kind classifies the change.
	Kind EventKind
	// Key identifies the affected object.
	Key int64
	// Shard is the index of the store shard owning Key, so consumers
	// (the continuous engine's dirty tracking) can group work per shard
	// without rehashing.
	Shard int
	// Refresh reports why a RefreshApplied event's refresh was sent.
	Refresh source.RefreshKind
}

// cacheShard is one shard's slice of the cache's own state, guarded by
// its mu. The shard's rows — intervals, promises, sequence numbers — live
// in the store's matching shard.
type cacheShard struct {
	mu sync.Mutex
	// Sync fast-path bookkeeping: the shard's materialized intervals are
	// exactly each row's promise at syncedAt except for the keys listed in
	// dirty (query-initiated point collapses since that Sync). A Sync at
	// the same clock tick skips a shard with no dirty keys entirely, and
	// re-materializes only the dirty keys otherwise — never the whole
	// shard. Tracking dirtiness per key instead of per shard is what
	// keeps Zipfian query-refresh traffic from amplifying: one paid
	// refresh on a hot key costs one re-materialization at the next
	// Sync, not a rewrite of the ~n/nshards tuples sharing its shard.
	// A list, not a set: re-materializing a row is idempotent, so a key
	// listed twice, or since settled by a push or dropped, is harmless.
	syncedAt int64
	dirty    []int64
	pushed   []interval.Interval // scratch: the row a durable cache logs for a push
}

// Cache is one data cache holding a single cached (sharded) table. It
// implements source.Subscriber (receiving value-initiated refreshes) and
// the query processor's Oracle and Refresher (serving query-initiated
// refreshes, fanned out per source). All methods are safe for concurrent
// use.
type Cache struct {
	id    string
	clock *netsim.Clock

	// listener receives change events; set once via SetListener. Stored
	// as an atomic pointer so the hot apply path never takes an extra
	// lock when no listener is installed.
	listener atomic.Pointer[func(Event)]

	store  *relation.Store
	shards []cacheShard // aligned with store shards

	// sources resolves a row's SourceID to the source a Subscribe or
	// Rehandshake named; one entry per source, not per object. smu is a
	// leaf lock: nothing else is acquired while it is held.
	smu     sync.RWMutex
	sources map[string]*source.Source

	// metrics, when set (by the System façade), receives refresh batch
	// size observations; atomic so the refresh path never locks for it.
	metrics atomic.Pointer[obs.EngineMetrics]

	wmu     sync.Mutex
	watched []*source.Source // sources watched for membership events

	// wal, when non-nil (durable caches built by OpenDurable), receives a
	// record for every mastered mutation — membership changes and refresh
	// installs — under the same shard state mutex as the store write, so
	// the log's per-shard order matches the table's. Derived rewrites
	// (Sync re-materializing bound functions) are NOT logged: bounds are
	// re-widened on recovery anyway (DESIGN.md §15), so logging them would
	// buy nothing and triple the log volume.
	wal *relation.WAL
	// walErr latches the first WAL failure from a path that cannot return
	// it (a source push); surfaced via WALHealth.
	walErr atomic.Pointer[error]
	// rewidened counts tuples whose bounds were reset to the conservative
	// floor at recovery.
	rewidened int
}

// SetMetrics points the cache at the engine-wide histogram set; batch
// sizes of every per-source refresh round are recorded into it.
func (c *Cache) SetMetrics(m *obs.EngineMetrics) {
	if m != nil {
		c.metrics.Store(m)
	}
}

// New creates a cache around an empty sharded table with the given schema
// and the default shard count.
func New(id string, clock *netsim.Clock, schema *relation.Schema) *Cache {
	return NewSharded(id, clock, schema, 0)
}

// NewSharded is New with an explicit shard count (rounded up to a power
// of two; ≤ 0 selects relation.DefaultShards). A single shard — one set
// of row arrays, one lock — is the reference layout of the differential
// tests; answers do not depend on the shard count.
func NewSharded(id string, clock *netsim.Clock, schema *relation.Schema, nshards int) *Cache {
	return newCache(id, clock, relation.NewStore(schema, nshards), nil)
}

// newCache wraps a store (empty, or recovered from disk with its log).
func newCache(id string, clock *netsim.Clock, st *relation.Store, wal *relation.WAL) *Cache {
	c := &Cache{
		id:      id,
		clock:   clock,
		store:   st,
		shards:  make([]cacheShard, st.NumShards()),
		sources: make(map[string]*source.Source),
		wal:     wal,
	}
	for i := range c.shards {
		c.shards[i].syncedAt = -1
	}
	return c
}

// ID returns the cache identifier.
func (c *Cache) ID() string { return c.id }

// Store exposes the sharded cached relation for the query processor and
// the continuous engine. Callers must call Sync first so the interval
// bounds reflect the current time, and must hold the relevant shard
// locks when the cache is shared between goroutines.
func (c *Cache) Store() *relation.Store { return c.store }

// Schema returns the cached table's schema.
func (c *Cache) Schema() *relation.Schema { return c.store.Schema() }

// Len returns the number of cached objects.
func (c *Cache) Len() int { return c.store.Len() }

// shardFor returns the state shard owning the key and its index.
func (c *Cache) shardFor(key int64) (*cacheShard, int) {
	si := c.store.ShardOf(key)
	return &c.shards[si], si
}

// SetListener installs fn as the cache's change listener; it is called
// outside all cache locks after every refresh that reaches the table and
// after every membership change. At most one listener is supported (the
// continuous-query engine); installing another replaces the first.
// Listeners must not call back into methods that mutate this cache.
func (c *Cache) SetListener(fn func(Event)) {
	if fn == nil {
		c.listener.Store(nil)
		return
	}
	c.listener.Store(&fn)
}

// notify delivers an event to the installed listener, if any. Callers
// must not hold any cache lock.
func (c *Cache) notify(ev Event) {
	if fn := c.listener.Load(); fn != nil {
		(*fn)(ev)
	}
}

// attach records src under its name, so rows carrying that SourceID
// resolve to it. A cache knows one source per name.
func (c *Cache) attach(src *source.Source) error {
	c.smu.RLock()
	known := c.sources[src.ID()]
	c.smu.RUnlock()
	if known == nil {
		c.smu.Lock()
		if known = c.sources[src.ID()]; known == nil {
			c.sources[src.ID()] = src
			known = src
		}
		c.smu.Unlock()
	}
	if known != src {
		return fmt.Errorf("cache %s: another source named %q is already attached", c.id, src.ID())
	}
	return nil
}

// sourceOf returns the source the keyed object is attached to: the one
// named by its row, if the row holds a promise. Nil for an uncached key
// and for a recovered row not yet re-attached.
func (c *Cache) sourceOf(key int64) *source.Source {
	var id string
	attached := false
	c.store.View(key, func(t *relation.Table, i int) {
		id, attached = t.At(i).SourceID, t.HasPromise(i)
	})
	if !attached {
		return nil
	}
	c.smu.RLock()
	defer c.smu.RUnlock()
	return c.sources[id]
}

// ObserveDemand forwards shared-refresh demand for a cached object to
// its source's width policy (see source.ObserveDemand).
func (c *Cache) ObserveDemand(key int64, subscribers int) {
	if src := c.sourceOf(key); src != nil {
		src.ObserveDemand(key, subscribers)
	}
}

// Subscribe replicates object key from the source into this cache. The
// exact columns' values are supplied by the caller (they are propagated
// precisely, like insertions); bounded columns are initialized from the
// source's first refresh. The tuple's refresh cost is the source's cost
// for the object.
func (c *Cache) Subscribe(src *source.Source, key int64, exactVals []float64) error {
	si, tk, err := c.subscribe(src, key, exactVals)
	if err != nil {
		return err
	}
	if err := c.commitWAL(tk); err != nil {
		return err
	}
	c.notify(Event{Kind: ObjectAdded, Key: key, Shard: si})
	return nil
}

// subscribe is Subscribe without the listener notification or log
// commit; it returns with no cache lock held.
func (c *Cache) subscribe(src *source.Source, key int64, exactVals []float64) (int, relation.Ticket, error) {
	var tk relation.Ticket
	if err := c.attach(src); err != nil {
		return 0, tk, err
	}
	r, err := src.Subscribe(key, c)
	if err != nil {
		return 0, tk, err
	}
	cost, _ := src.Cost(key)
	schema := c.store.Schema()
	bcols := schema.BoundedColumns()
	if len(r.Values) != len(bcols) {
		return 0, tk, fmt.Errorf("cache %s: source sent %d values, schema has %d bounded columns",
			c.id, len(r.Values), len(bcols))
	}

	sh, si := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now := c.clock.Now()
	tu := relation.Tuple{
		Key:      key,
		Cost:     cost,
		SourceID: src.ID(),
		Bounds:   make([]interval.Interval, schema.NumColumns()),
	}
	ei, bi := 0, 0
	for col := 0; col < schema.NumColumns(); col++ {
		if schema.Column(col).Kind == relation.Exact {
			if ei >= len(exactVals) {
				return 0, tk, fmt.Errorf("cache %s: missing exact value for column %q",
					c.id, schema.Column(col).Name)
			}
			tu.Bounds[col] = interval.Point(exactVals[ei])
			ei++
		} else {
			tu.Bounds[col] = r.Bounds[bi].At(now)
			bi++
		}
	}
	if err := c.store.Insert(tu); err != nil {
		return 0, tk, err
	}
	tk = c.logInsert(&tu)
	c.store.Update(key, func(t *relation.Table, i int) { t.SetPromise(i, r.Bounds, r.Seq) })
	// The tuple was materialized at now, which may postdate the shard's
	// last Sync; mark just this key so the next same-tick Sync settles it
	// without rewriting the shard.
	sh.dirty = append(sh.dirty, key)
	return si, tk, nil
}

// ApplyRefresh installs new bounds for an object; it is invoked by sources
// for value-initiated refreshes and internally after query-initiated ones.
func (c *Cache) ApplyRefresh(r source.Refresh) {
	c.apply(r)
}

// apply installs one refresh — a batch of one through the same row
// install as a whole reply — and reports whether it reached the table
// (false when the object is gone or a newer refresh was already applied).
// Only the key's owning shard is locked, once, so a push contends only
// with scans and writers of that one shard. The change listener hears of
// an installed refresh outside the cache locks.
func (c *Cache) apply(r source.Refresh) bool {
	sh, si := c.shardFor(r.Key)
	var tk relation.Ticket
	installed := false
	sh.mu.Lock()
	now := c.clock.Now()
	c.store.UpdateShard(si, func(t *relation.Table) bool {
		installed = c.installRow(sh, t, r, now)
		return installed
	})
	if installed {
		tk = c.logInstall(sh, r, now)
	}
	sh.mu.Unlock()
	if installed {
		if err := c.commitWAL(tk); err != nil {
			c.latchWALError(err)
		}
		c.notify(Event{Kind: RefreshApplied, Key: r.Key, Shard: si, Refresh: r.Kind})
	}
	return installed
}

// install writes a whole reply into the cached relation in one pass per
// shard: each shard that owns any of the rows takes its state mutex and
// its table write lock once, installs its rows in reply order and bumps
// the store version once; its log records are committed and its listener
// events delivered after the unlock. The returned slice is aligned with
// the reply's rows: true where the row reached the table.
func (c *Cache) install(b *source.Batch) []bool {
	installed := make([]bool, len(b.Keys))
	order, ends := c.shardOrder(b.Keys)
	lo := int32(0)
	for si, hi := range ends {
		rows := order[lo:hi]
		lo = hi
		if len(rows) == 0 {
			continue
		}
		sh := &c.shards[si]
		var last relation.Ticket
		sh.mu.Lock()
		now := c.clock.Now()
		c.store.UpdateShard(si, func(t *relation.Table) bool {
			wrote := false
			for _, r := range rows {
				installed[r] = c.installRow(sh, t, b.Refresh(int(r)), now)
				wrote = wrote || installed[r]
			}
			return wrote
		})
		if c.wal != nil {
			for _, r := range rows {
				if installed[r] {
					// One log per shard: committing its newest record commits them all.
					last = c.logInstall(sh, b.Refresh(int(r)), now)
				}
			}
		}
		sh.mu.Unlock()
		if err := c.commitWAL(last); err != nil {
			c.latchWALError(err)
		}
		for _, r := range rows {
			if installed[r] {
				c.notify(Event{Kind: RefreshApplied, Key: b.Keys[r], Shard: si, Refresh: b.Kind(int(r))})
			}
		}
	}
	return installed
}

// shardOrder counting-sorts positions 0..len(keys) by the shard owning
// keys[position], stably: shard si's positions are
// order[ends[si-1]:ends[si]], from 0 for the first shard.
func (c *Cache) shardOrder(keys []int64) (order, ends []int32) {
	ends = make([]int32, len(c.shards))
	for _, key := range keys {
		ends[c.store.ShardOf(key)]++
	}
	sum := int32(0)
	for si, n := range ends {
		ends[si] = sum // start of the shard's run, advanced to its end below
		sum += n
	}
	order = make([]int32, len(keys))
	for i, key := range keys {
		si := c.store.ShardOf(key)
		order[ends[si]] = int32(i)
		ends[si]++
	}
	return order, ends
}

// installRow is the one routine that writes a refresh into the cached
// relation: it finds the object's row and writes the refreshed promise
// and the intervals it stands for. Refreshes delivered out of order (a
// batch reply applied after a newer value-initiated push raced past it)
// are dropped via the row's sequence number, so the table never moves
// backwards to stale bounds. Caller holds sh.mu — as every writer of the
// row's sequence number does — and the shard's table write lock, and logs
// an installed refresh (logInstall) before releasing sh.mu.
func (c *Cache) installRow(sh *cacheShard, t *relation.Table, r source.Refresh, now int64) bool {
	i := t.ByKey(r.Key)
	if i < 0 {
		return false // object was deleted; stale refresh
	}
	if r.Seq != 0 && r.Seq <= t.Seq(i) {
		return false // a newer refresh for this object was already applied
	}
	if nb := len(t.Schema().BoundedColumns()); len(r.Values) != nb || len(r.Bounds) != nb {
		return false // not a refresh of this relation's objects
	}
	// A value-initiated install writes exactly the promise at now, so a
	// shard synced at the current tick stays clean and the next Sync skips
	// it: a push never forces queries to re-Sync the shard, let alone the
	// table. A query-initiated one collapses the row to the paid exact
	// values (table bound ≠ promise at now) until the next Sync.
	exact := r.Kind == source.QueryInitiated
	t.Install(i, r.Seq, r.Values, r.Bounds, exact, now)
	if exact {
		sh.dirty = append(sh.dirty, r.Key)
	}
	return true
}

// logInstall appends the log record of a refresh installRow installed at
// now: the exact values, or the intervals a value-initiated promise
// stands for. Caller holds sh.mu, so the shard's log order is its table's.
func (c *Cache) logInstall(sh *cacheShard, r source.Refresh, now int64) relation.Ticket {
	if c.wal == nil || r.Kind == source.QueryInitiated {
		return c.logRefresh(r.Key, r.Values)
	}
	sh.pushed = sh.pushed[:0]
	for _, b := range r.Bounds {
		sh.pushed = append(sh.pushed, b.At(now))
	}
	return c.logPush(r.Key, sh.pushed)
}

// parallelSyncMin is the cached-table size at which Sync fans stale-shard
// rewrites out across goroutines. Below it the whole rewrite is cheaper
// than spawning workers (the few-hundred-object experiment tables); above
// it a clock tick means re-materializing every tuple, and the shards are
// independent, so the wall cost drops to the slowest single shard. A
// single-GOMAXPROCS process always stays serial: fan-out cannot help.
const parallelSyncMin = 4096

// Sync re-evaluates every cached bound function at the current clock time
// and writes the resulting intervals into the table. The query processor
// must call this before computing bounded answers so that the √T growth
// since the last refresh is reflected. A cheap serial probe first finds
// the shards that need work; a shard where the clock has not advanced and
// no point collapse has landed since its previous Sync is skipped without
// touching its table — the fast path that lets back-to-back queries share
// the shard read locks, per shard, so a push dirties only its own shard's
// fast path. When the clock has not advanced, only the keys collapsed by
// query-initiated refreshes since the previous Sync are re-materialized:
// under skewed query traffic one hot refresh costs one bound rewrite, not
// a rewrite of every tuple sharing the hot key's shard. When the clock
// HAS advanced the full per-shard rewrite is unavoidable (the bounds grow
// with time), so it walks the shard's row arrays sequentially — each
// row's promise evaluated into the intervals beside it — and, for large
// tables, runs the stale shards on parallel goroutines, each holding only
// its own shard's locks (the lock-order rule in the package comment).
func (c *Cache) Sync() {
	// Probe: lock, check, unlock — same cost as the previous all-clean
	// walk, so back-to-back queries within one tick pay nothing extra.
	var stale []int
	for si := range c.shards {
		sh := &c.shards[si]
		sh.mu.Lock()
		clean := sh.syncedAt == c.clock.Now() && len(sh.dirty) == 0
		sh.mu.Unlock()
		if !clean {
			stale = append(stale, si)
		}
	}
	if len(stale) == 0 {
		return
	}
	if len(stale) == 1 || c.store.Len() < parallelSyncMin || runtime.GOMAXPROCS(0) == 1 {
		for _, si := range stale {
			c.syncShard(si)
		}
		return
	}
	g := parallel.NewGroup(0)
	for _, si := range stale {
		si := si
		g.Go(func() error {
			c.syncShard(si)
			return nil
		})
	}
	_ = g.Wait()
}

// syncShard settles one shard: nothing if another Sync already settled it
// at the current tick, a dirty-keys-only rewrite if only point collapses
// landed since, a sequential full rewrite if the clock advanced. Holds
// only this shard's locks, in state-mutex-before-table-lock order.
func (c *Cache) syncShard(si int) {
	sh := &c.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now := c.clock.Now()
	if sh.syncedAt == now {
		if len(sh.dirty) == 0 {
			return // a concurrent Sync settled the shard after the probe
		}
		// Same tick: the shard is materialized at now except for the
		// point-collapsed keys; restore just those.
		c.store.UpdateShard(si, func(t *relation.Table) bool {
			bcols := t.Schema().BoundedColumns()
			for _, key := range sh.dirty {
				i := t.ByKey(key)
				if i < 0 || !t.HasPromise(i) {
					continue
				}
				ps := t.Promise(i)
				for j, col := range bcols {
					_ = t.SetBound(i, col, ps[j].At(now))
				}
			}
			return true
		})
		sh.dirty = sh.dirty[:0]
		return
	}
	c.store.UpdateShard(si, func(t *relation.Table) bool {
		bcols := t.Schema().BoundedColumns()
		for i, n := 0, t.Len(); i < n; i++ {
			if !t.HasPromise(i) {
				continue // no source has promised anything for this row
			}
			// In-place write; bound functions evaluate to non-empty
			// intervals and bcols are bounded columns, so SetBound's
			// validation is vacuous here and skipped.
			ps, bs := t.Promise(i), t.At(i).Bounds
			for j, col := range bcols {
				bs[col] = ps[j].At(now)
			}
		}
		return true
	})
	sh.syncedAt = now
	sh.dirty = sh.dirty[:0]
}

// Master implements the query-processor Oracle: a refresh round of one
// key. It returns the exact values when the refresh reached the table.
func (c *Cache) Master(key int64) ([]float64, bool) {
	set, err := c.Refresh(context.Background(), []int64{key})
	if err != nil || !set.Installed[0] {
		return nil, false
	}
	return set.Row(0), true
}

// sourceBatch is one source's share of a refresh round: the keys to
// request from it and, aligned with them, their positions in the round.
type sourceBatch struct {
	id   string
	src  *source.Source
	n    int // len(keys), counted before the key lists are cut
	keys []int64
	pos  []int32
}

// bySource splits a round's keys into one batch per owning source, each
// batch's keys in request order. The rows are read for their source's
// name shard by shard, one read-lock acquisition per shard. Keys dropped
// since the request was planned, or never attached, have no source to ask
// and are in no batch.
func (c *Cache) bySource(keys []int64) []sourceBatch {
	var batches []sourceBatch
	group := make([]int32, len(keys)) // batch index per key, -1 for none
	order, ends := c.shardOrder(keys)
	lo := int32(0)
	for si, hi := range ends {
		if rows := order[lo:hi]; len(rows) > 0 {
			c.store.ViewShard(si, func(t *relation.Table) {
				g := 0
				for _, r := range rows {
					group[r] = -1
					i := t.ByKey(keys[r])
					if i < 0 || !t.HasPromise(i) {
						continue
					}
					// Runs of one source are the rule; otherwise search
					// the handful of batches.
					if id := t.At(i).SourceID; g == len(batches) || batches[g].id != id {
						for g = 0; g < len(batches) && batches[g].id != id; g++ {
						}
						if g == len(batches) {
							batches = append(batches, sourceBatch{id: id})
						}
					}
					batches[g].n++
					group[r] = int32(g)
				}
			})
		}
		lo = hi
	}
	// The batches' lists are cut from one array each, then filled in
	// request order.
	allKeys, allPos, off := make([]int64, len(keys)), make([]int32, len(keys)), 0
	c.smu.RLock()
	for g := range batches {
		b := &batches[g]
		b.src = c.sources[b.id]
		b.keys, b.pos = allKeys[off:off:off+b.n], allPos[off:off:off+b.n]
		off += b.n
	}
	c.smu.RUnlock()
	for i, g := range group {
		if g >= 0 {
			b := &batches[g]
			b.keys, b.pos = append(b.keys, keys[i]), append(b.pos, int32(i))
		}
	}
	return batches
}

// Refresh implements the query processor's Refresher: one refresh round
// for the requested keys, as three batch passes. The request is split by
// owning source (bySource) and fanned out as one batched request per
// source, each on its own goroutine; each source answers with one
// columnar reply; and each reply — point intervals for the paid exact
// values, plus any piggybacked extras — is installed here in one locked
// pass per shard (install), atomically with respect to concurrent source
// pushes, so the processor must not install anything again. The returned
// set is aligned with keys: an entry is installed, and holds the exact
// values, when the key's refresh reached the table — not for keys dropped
// since the plan was computed, nor for replies that lost the race to an
// even newer push.
//
// Each per-source batch checks the context before transmitting (the
// simulated wire wait is interruptible), so a deadline expiring
// mid-fan-out stops further batches. Whatever the error — a cutoff, or
// one source failing its batch — a batch is either fully charged and
// installed or not sent at all, and the set reports the installed ones
// alongside the error, so the caller accounts for every paid refresh.
func (c *Cache) Refresh(ctx context.Context, keys []int64) (relation.RefreshSet, error) {
	if len(keys) == 0 {
		return relation.RefreshSet{}, nil
	}
	set := relation.NewRefreshSet(len(keys), len(c.store.Schema().BoundedColumns()))
	batches := c.bySource(keys)
	metrics := c.metrics.Load()
	parent := obs.SpanFromContext(ctx)
	// run sends one per-source batch and installs the reply. A traced
	// request gives the batch its own child span carrying the keys whose
	// refresh was installed — the per-source cost attribution.
	run := func(sb *sourceBatch) error {
		if metrics != nil {
			metrics.RefreshBatch.Observe(uint64(len(sb.keys)))
		}
		var sp *obs.Span
		bctx := ctx
		if parent != nil {
			sp = parent.StartSpan("source:" + sb.id)
			bctx = obs.ContextWithSpan(ctx, sp)
		}
		reply, err := sb.src.QueryRefreshBatchCtx(bctx, sb.keys, c)
		if err != nil {
			sp.End()
			return err
		}
		// The reply's leading rows are the requested keys in request
		// order, so row j answers entry pos[j]; extras follow, installed
		// by the same pass and reported to nobody.
		reached := c.install(&reply)
		var installed []int64
		for j, p := range sb.pos {
			if !reached[j] {
				continue
			}
			set.Installed[p] = true
			copy(set.Row(int(p)), reply.Refresh(j).Values)
			if sp != nil {
				installed = append(installed, sb.keys[j])
			}
		}
		if sp != nil {
			sp.RecordKeys(installed)
			sp.SetDetail("requested=%d installed=%d", len(sb.keys), len(installed))
			sp.End()
		}
		return nil
	}
	if len(batches) == 1 {
		// Single source: no fan-out needed, stay on this goroutine.
		return set, run(&batches[0])
	}
	g := parallel.NewGroup(0)
	for i := range batches {
		sb := &batches[i]
		g.Go(func() error { return run(sb) })
	}
	return set, g.Wait()
}

// Drop removes a cached object, modelling a propagated deletion. Only the
// owning shard is locked.
func (c *Cache) Drop(key int64) bool {
	sh, si := c.shardFor(key)
	sh.mu.Lock()
	deleted := c.store.Delete(key)
	var tk relation.Ticket
	if deleted {
		tk = c.logDelete(key)
	}
	sh.mu.Unlock()
	if deleted {
		if err := c.commitWAL(tk); err != nil {
			c.latchWALError(err)
		}
		c.notify(Event{Kind: ObjectDropped, Key: key, Shard: si})
	}
	return deleted
}

// WatchSource registers this cache for membership (insert/delete) events
// of the source, enabling the section 8.3 delayed-propagation mode: the
// source may defer up to its configured slack of events, and the cache's
// cardinality answers widen accordingly (see CardinalitySlack).
func (c *Cache) WatchSource(src *source.Source) {
	src.Watch(c)
	c.wmu.Lock()
	c.watched = append(c.watched, src)
	c.wmu.Unlock()
}

// OnTableEvent implements source.Watcher: insertions subscribe to the new
// object using the event's metadata as exact column values; deletions
// drop the cached tuple.
func (c *Cache) OnTableEvent(src *source.Source, ev source.TableEvent) {
	if ev.Insert {
		// A failed subscribe (e.g. concurrent removal) leaves the cache
		// without the tuple, which the next flush reconciles.
		_ = c.Subscribe(src, ev.Key, ev.Meta)
		return
	}
	c.Drop(ev.Key)
}

// CardinalitySlack returns the total propagation slack promised by the
// cache's watched sources: the cached cardinality may differ from the
// true master cardinality by at most this many tuples in either
// direction. Zero when no watched source delays propagation.
func (c *Cache) CardinalitySlack() int {
	c.wmu.Lock()
	watched := append([]*source.Source(nil), c.watched...)
	c.wmu.Unlock()
	total := 0
	for _, src := range watched {
		total += src.Slack()
	}
	return total
}

// FlushWatched forces every watched source to propagate its queued
// membership events, restoring an exact cached cardinality.
func (c *Cache) FlushWatched() {
	c.wmu.Lock()
	watched := append([]*source.Source(nil), c.watched...)
	c.wmu.Unlock()
	for _, src := range watched {
		src.FlushEvents()
	}
}

// Keys returns the cached object keys in ascending order — a documented
// guarantee, so callers that iterate keys to build plans or views stay
// deterministic regardless of the shard layout.
func (c *Cache) Keys() []int64 {
	return c.store.SortedKeys()
}
