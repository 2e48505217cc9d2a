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
// A goroutine holding one shard's locks never acquires another shard's
// (multi-shard walks hold at most one shard's locks at a time: Keys
// visits shards sequentially, and a stale Sync over a large table fans
// out one goroutine per stale shard, each owning a single shard's
// locks), and no shard lock is ever held while calling
// into a source, so sources can push value-initiated refreshes from their
// own goroutines without deadlock: a push simply queues behind in-flight
// scans of its one shard. The source-name map has its own lock, which is
// never held together with any other.
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
	// exactly each row's promise at syncedAt except for the keys in
	// dirtyKeys (query-initiated point collapses since that Sync). A Sync
	// at the same clock tick skips a shard with no dirty keys entirely, and
	// re-materializes only the dirty keys otherwise — never the whole
	// shard. Tracking dirtiness per key instead of per shard is what
	// keeps Zipfian query-refresh traffic from amplifying: one paid
	// refresh on a hot key costs one re-materialization at the next
	// Sync, not a rewrite of the ~n/nshards tuples sharing its shard.
	syncedAt  int64
	dirtyKeys map[int64]struct{}
}

// Cache is one data cache holding a single cached (sharded) table. It
// implements source.Subscriber (receiving value-initiated refreshes) and
// the query processor's Oracle and BatchOracle (serving query-initiated
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
// of two; ≤ 0 selects relation.DefaultShards). A single shard degrades
// to the flat store layout — one set of row arrays, one lock —
// which the differential tests use as the reference.
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
		c.shards[i] = cacheShard{syncedAt: -1, dirtyKeys: make(map[int64]struct{})}
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
	sh.dirtyKeys[key] = struct{}{}
	return si, tk, nil
}

// ApplyRefresh installs new bounds for an object; it is invoked by sources
// for value-initiated refreshes and internally after query-initiated ones.
func (c *Cache) ApplyRefresh(r source.Refresh) {
	c.apply(r)
}

// apply installs the refresh and reports whether it reached the table
// (false when the object is gone or a newer refresh was already applied).
// Installed refreshes are reported to the change listener outside the
// cache locks. Only the key's owning shard is locked, so a push contends
// only with scans and writers of that one shard.
func (c *Cache) apply(r source.Refresh) bool {
	sh, si := c.shardFor(r.Key)
	sh.mu.Lock()
	installed, tk := c.applyLocked(sh, r)
	sh.mu.Unlock()
	if installed {
		if err := c.commitWAL(tk); err != nil {
			c.latchWALError(err)
		}
		c.notify(Event{Kind: RefreshApplied, Key: r.Key, Shard: si, Refresh: r.Kind})
	}
	return installed
}

// applyLocked writes the refreshed promise into the object's row and
// rematerializes the row's intervals. Refreshes delivered out of order (a
// batch reply applied after a newer value-initiated push raced past it)
// are dropped via the row's sequence number, so the table never moves
// backwards to stale bounds. Query-initiated refreshes install the
// exact values as point bounds — the cache-side half of the refresh
// step, done here so it is atomic with respect to concurrent pushes.
// Caller holds sh.mu, which every writer of the row's sequence number
// holds, so the check below stays true until the write; the shard's
// table locks are taken here. Reports whether the refresh was installed,
// plus the log ticket to commit once the shard mutex is released.
func (c *Cache) applyLocked(sh *cacheShard, r source.Refresh) (bool, relation.Ticket) {
	var tk relation.Ticket
	if r.Seq != 0 {
		stale := false
		c.store.View(r.Key, func(t *relation.Table, i int) { stale = r.Seq <= t.Seq(i) })
		if stale {
			return false, tk // a newer refresh for this object was already applied
		}
	}
	now := c.clock.Now()
	var pushed []interval.Interval
	installed := c.store.Update(r.Key, func(t *relation.Table, i int) {
		bcols := t.Schema().BoundedColumns()
		if r.Kind != source.QueryInitiated && c.wal != nil {
			pushed = make([]interval.Interval, len(bcols))
		}
		for j, col := range bcols {
			// Best effort: bounds from a source are never empty and exact
			// columns are not refreshed, so SetBound cannot fail here.
			if r.Kind == source.QueryInitiated {
				// The query paid for the exact value: collapse the cached
				// bound to a point until the next Sync re-materializes the
				// time-varying bound.
				_ = t.SetBound(i, col, interval.Point(r.Values[j]))
			} else {
				iv := r.Bounds[j].At(now)
				_ = t.SetBound(i, col, iv)
				if pushed != nil {
					pushed[j] = iv
				}
			}
		}
		t.SetPromise(i, r.Bounds, r.Seq)
	})
	if !installed {
		return false, tk // object was deleted; stale refresh
	}
	if r.Kind == source.QueryInitiated {
		tk = c.logRefresh(r.Key, r.Values)
	} else {
		tk = c.logPush(r.Key, pushed)
	}
	// A value-initiated apply wrote exactly the promise at now, so a shard
	// synced at the current tick is still fully materialized — it stays
	// clean and the next Sync skips it. This is what keeps scans cheap
	// under heavy push load: a push never forces queries to re-Sync the
	// shard, let alone the table. Only the query-initiated point
	// collapse (table bound ≠ promise at now) must dirty its key so the
	// next Sync restores the time-varying bound.
	if r.Kind == source.QueryInitiated {
		sh.dirtyKeys[r.Key] = struct{}{}
	} else {
		// The push re-materialized the key at now; a pending point
		// collapse for it is settled.
		delete(sh.dirtyKeys, r.Key)
	}
	return true, tk
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
		clean := sh.syncedAt == c.clock.Now() && len(sh.dirtyKeys) == 0
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
		if len(sh.dirtyKeys) == 0 {
			return // a concurrent Sync settled the shard after the probe
		}
		// Same tick: the shard is materialized at now except for the
		// point-collapsed keys; restore just those.
		c.store.UpdateShard(si, func(t *relation.Table) {
			bcols := t.Schema().BoundedColumns()
			for key := range sh.dirtyKeys {
				i := t.ByKey(key)
				if i < 0 || !t.HasPromise(i) {
					continue
				}
				ps := t.Promise(i)
				for j, col := range bcols {
					_ = t.SetBound(i, col, ps[j].At(now))
				}
			}
		})
		clear(sh.dirtyKeys)
		return
	}
	c.store.UpdateShard(si, func(t *relation.Table) {
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
	})
	sh.syncedAt = now
	clear(sh.dirtyKeys)
}

// Master implements the query-processor Oracle: it pulls a query-initiated
// refresh for the object from its source, installs the new bounds, and
// returns the exact values.
func (c *Cache) Master(key int64) ([]float64, bool) {
	src := c.sourceOf(key)
	if src == nil {
		return nil, false
	}
	r, err := src.QueryRefresh(key, c)
	if err != nil {
		return nil, false
	}
	c.ApplyRefresh(r)
	return r.Values, true
}

// MasterBatch implements the query-processor BatchOracle: the refresh set
// is grouped first by owning shard (one read-lock acquisition per shard
// to read the rows' source names) and then by owning source, and fanned
// out as one batched request per source, each on its own goroutine — the parallel
// refresh phase of the concurrent engine. The refreshed bounds (point
// intervals for the paid exact values, plus any piggybacked extras riding
// along on a reply) are installed into the cached table here, atomically
// with respect to concurrent source pushes and write-locking only each
// key's owning shard, so the processor must not install them again. The
// returned map holds exactly the keys whose refresh reached the table:
// keys dropped since the plan was computed (they no longer contribute to
// any aggregate) and replies that lost the race to an even newer
// value-initiated push are absent.
func (c *Cache) MasterBatch(keys []int64) (map[int64][]float64, error) {
	return c.MasterBatchCtx(context.Background(), keys)
}

// MasterBatchCtx is MasterBatch honoring a context at the refresh
// fan-out: each per-source batch checks the context before transmitting
// (and the simulated wire wait itself is interruptible), so a deadline
// expiring mid-fan-out stops further batches. Batches that completed
// before the cutoff are installed and reported normally — the returned
// map then holds the partial refresh set alongside the context error, so
// the query processor can fold the partial progress into a best-effort
// answer instead of discarding paid refreshes. Cache state stays
// consistent at every cutoff point: installation is per-key atomic and a
// batch is either fully charged and applied or not sent at all.
func (c *Cache) MasterBatchCtx(ctx context.Context, keys []int64) (map[int64][]float64, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	byShard := make(map[int][]int64)
	for _, key := range keys {
		si := c.store.ShardOf(key)
		byShard[si] = append(byShard[si], key)
	}
	byID := make(map[string][]int64)
	for si, ks := range byShard {
		c.store.ViewShard(si, func(t *relation.Table) {
			for _, key := range ks {
				// Dropped since the plan was computed, or never attached:
				// no source to ask.
				if i := t.ByKey(key); i >= 0 && t.HasPromise(i) {
					id := t.At(i).SourceID
					byID[id] = append(byID[id], key)
				}
			}
		})
	}
	bySrc := make(map[*source.Source][]int64, len(byID))
	c.smu.RLock()
	for id, ks := range byID {
		if src := c.sources[id]; src != nil {
			bySrc[src] = ks
		}
	}
	c.smu.RUnlock()

	vals := make(map[int64][]float64, len(keys))
	metrics := c.metrics.Load()
	parent := obs.SpanFromContext(ctx)
	// runBatch sends one per-source batch and applies every reply; only
	// refreshes that actually reached the table are reported back (a
	// reply can lose to a concurrent newer push or to a mid-flight drop,
	// in which case its value was never installed). When the request is
	// traced, the batch gets its own child span carrying the keys whose
	// refresh was installed — the per-source cost attribution.
	runBatch := func(src *source.Source, ks []int64, record func(key int64, v []float64)) error {
		if metrics != nil {
			metrics.RefreshBatch.Observe(uint64(len(ks)))
		}
		var sp *obs.Span
		bctx := ctx
		if parent != nil {
			sp = parent.StartSpan("source:" + src.ID())
			bctx = obs.ContextWithSpan(ctx, sp)
		}
		rs, err := src.QueryRefreshBatchCtx(bctx, ks, c)
		if err != nil {
			sp.End()
			return err
		}
		var installed []int64
		for _, r := range rs {
			if c.apply(r) && r.Kind == source.QueryInitiated {
				record(r.Key, r.Values)
				if sp != nil {
					installed = append(installed, r.Key)
				}
			}
		}
		if sp != nil {
			sp.RecordKeys(installed)
			sp.SetDetail("requested=%d installed=%d", len(ks), len(installed))
			sp.End()
		}
		return nil
	}
	if len(bySrc) == 1 {
		// Single source: no fan-out needed, stay on this goroutine.
		for src, ks := range bySrc {
			if err := runBatch(src, ks, func(key int64, v []float64) { vals[key] = v }); err != nil {
				if parallel.IsContextError(err) {
					return vals, err
				}
				return nil, err
			}
		}
		return vals, nil
	}
	var vmu sync.Mutex
	g := parallel.NewGroup(0)
	for src, ks := range bySrc {
		src, ks := src, ks
		g.Go(func() error {
			return runBatch(src, ks, func(key int64, v []float64) {
				vmu.Lock()
				vals[key] = v
				vmu.Unlock()
			})
		})
	}
	if err := g.Wait(); err != nil {
		if parallel.IsContextError(err) {
			// Batches that beat the cutoff are installed; report them so
			// the caller can finish with a best-effort answer.
			return vals, err
		}
		return nil, err
	}
	return vals, nil
}

// Drop removes a cached object, modelling a propagated deletion. Only the
// owning shard is locked.
func (c *Cache) Drop(key int64) bool {
	sh, si := c.shardFor(key)
	sh.mu.Lock()
	delete(sh.dirtyKeys, key)
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
