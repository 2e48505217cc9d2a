// Package continuous implements TRAPP's push-based continuous-query
// subsystem: clients register bounded standing queries (Subscribe) and
// the engine maintains each bounded answer incrementally as the data
// evolves, firing a notification only when the answer interval actually
// moves or the precision constraint is violated. It is the §8.1 "live
// visualization" execution model — precision constraints upheld by the
// system as data changes — built as a streaming server core instead of
// the poll-and-re-execute Monitor loop.
//
// # Event-driven incremental maintenance
//
// The engine never rescans on a schedule. It reacts to three event
// streams:
//
//   - source push events (value-initiated refreshes and propagated
//     inserts/deletes reaching a cache, via the cache's change
//     listener), which dirty exactly the changed object keys;
//   - query-initiated refreshes installed by ordinary queries sharing
//     the cache, observed through the same listener;
//   - clock ticks (netsim.Clock.OnAdvance), which widen every
//     time-varying bound and therefore dirty whole tables.
//
// A single maintainer goroutine coalesces pending events and runs
// maintenance rounds: changed keys have their per-view aggregate
// contributions recomputed (classification + Appendix D shrink on the
// changed tuples only), and only groups containing changed contributions
// are re-folded. Subscriptions sharing a query shape (same table,
// aggregate, column, predicate and grouping — precision constraints may
// differ) share one view, so a thousand dashboards over the same
// aggregate cost one maintenance, not a thousand.
//
// # Shared refresh scheduling
//
// When maintained answers violate their subscriptions' constraints, the
// engine runs CHOOSE_REFRESH per violated view/group — against the
// strictest effective constraint among that view's subscribers, scaled
// by Config.RefreshMargin so the repaired answer has headroom to grow
// before violating again — and then dedupes the union of all plans into
// one batched refresh per table (Cache.Refresh, which fans out per
// source in parallel). One paid refresh of a hot object satisfies every
// subscription that needed it; the demand count is fed back to the
// object's Appendix-A width policy (boundfn.DemandObserver) so bound
// widths converge to each object's aggregate demand.
package continuous

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trapp/internal/cache"
	"trapp/internal/netsim"
	"trapp/internal/obs"
	"trapp/internal/query"
	"trapp/internal/refresh"
	"trapp/internal/relation"
)

// DefaultRefreshMargin is the fraction of the strictest violated
// constraint targeted when paying for refreshes. Repairing to exactly R
// leaves zero headroom — the answer violates again on the very next
// tick — so the scheduler over-refreshes to margin·R and amortizes one
// payment across many ticks.
const DefaultRefreshMargin = 0.5

// maxSettlePasses bounds the dirty→process loop of one Settle call; the
// refreshes a round pays re-dirty their keys (the listener cannot tell
// them apart from foreign traffic), so a quiescing settle takes two
// passes and the bound only guards against a pathological feedback loop.
const maxSettlePasses = 8

// Config tunes the engine.
type Config struct {
	// RefreshMargin ∈ (0, 1]: refresh plans target RefreshMargin·R for
	// the strictest violated constraint R. 1 repairs to exactly R (pay
	// every violation), smaller values buy headroom. 0 means
	// DefaultRefreshMargin.
	RefreshMargin float64
	// Options are the CHOOSE_REFRESH options (solver, ε, parallelism).
	Options refresh.Options
	// Metrics, when set, receives per-round maintenance and repair
	// latency observations — the System façade passes the histogram set
	// shared with the query processor.
	Metrics *obs.EngineMetrics
}

// margin returns the configured refresh margin with its default.
func (c Config) margin() float64 {
	if c.RefreshMargin <= 0 || c.RefreshMargin > 1 {
		return DefaultRefreshMargin
	}
	return c.RefreshMargin
}

// Metrics is a snapshot of engine-level counters.
type Metrics struct {
	// Rounds counts maintenance rounds (per dirty table).
	Rounds int64
	// Notifications counts updates pushed to subscription channels.
	Notifications int64
	// RefreshBatches counts shared refresh rounds that paid for at
	// least one object; RefreshedObjects and RefreshCost total the paid
	// query-initiated traffic.
	RefreshBatches   int64
	RefreshedObjects int64
	RefreshCost      float64
	// SharedRefreshes counts paid refreshes that served more than one
	// subscription — the dedup win over per-subscription execution.
	SharedRefreshes int64
	// Views and Subscriptions are current registration counts.
	Views         int
	Subscriptions int
}

// tableState is the engine's registration for one mounted table.
type tableState struct {
	name  string
	c     *cache.Cache
	views map[string]*view
}

// dirtySet accumulates pending events for one table between rounds,
// keyed by owning store shard so a maintenance round touches only the
// shards that actually changed — view recomputation after a push
// contends only with writers of the same shard. An entry with no time
// flag and no keys is a bare poke: it triggers a round (which builds any
// not-yet-built views) without dirtying state.
type dirtySet struct {
	time   bool // a clock tick widened every bound
	shards map[int]map[int64]struct{}
}

// Engine maintains all subscriptions of one System. All methods are safe
// for concurrent use.
type Engine struct {
	clock *netsim.Clock
	cfg   Config

	mu      sync.Mutex // guards tables/views/subscriptions/metrics
	tables  map[string]*tableState
	closed  bool
	m       Metrics
	lastErr error

	subCount atomic.Int64

	dirtyMu sync.Mutex
	dirty   map[string]*dirtySet
	names   []string
	// cacheTables maps a cache to every table name it is mounted under,
	// so the cache's single change listener can dirty all of them.
	cacheTables map[*cache.Cache][]string

	wake     chan struct{}
	done     chan struct{}
	loopOnce sync.Once
	runMu    sync.Mutex // serializes maintenance rounds
}

// NewEngine creates an engine bound to the system clock. The engine
// hooks clock advances; its maintainer goroutine starts lazily with the
// first subscription.
func NewEngine(clock *netsim.Clock, cfg Config) *Engine {
	e := &Engine{
		clock:       clock,
		cfg:         cfg,
		tables:      make(map[string]*tableState),
		dirty:       make(map[string]*dirtySet),
		cacheTables: make(map[*cache.Cache][]string),
		wake:        make(chan struct{}, 1),
		done:        make(chan struct{}),
	}
	clock.OnAdvance(func(int64) { e.markTime() })
	return e
}

// AddTable registers a mounted table's backing cache and installs the
// engine as the cache's change listener. A cache mounted under several
// table names gets one listener dirtying all of them (SetListener
// replaces, so the closure must cover every mount).
func (e *Engine) AddTable(name string, c *cache.Cache) {
	e.mu.Lock()
	e.tables[name] = &tableState{name: name, c: c, views: make(map[string]*view)}
	e.mu.Unlock()
	e.dirtyMu.Lock()
	e.names = append(e.names, name)
	e.cacheTables[c] = append(e.cacheTables[c], name)
	mounts := append([]string(nil), e.cacheTables[c]...)
	e.dirtyMu.Unlock()
	c.SetListener(func(ev cache.Event) {
		for _, n := range mounts {
			e.markKey(n, ev.Shard, ev.Key)
		}
	})
}

// signature is the view-sharing key: the query shape without its
// precision constraint.
func signature(q query.Query) string {
	w := "TRUE"
	if q.Where != nil {
		w = q.Where.String()
	}
	return fmt.Sprintf("%s|%s|%s|%s|%s", q.Table, q.Agg, q.Column, w, strings.Join(q.GroupBy, ","))
}

// Subscribe registers a standing query and returns its subscription,
// already primed with an initial update. Queries may carry an absolute
// (Within), relative (RelativeWithin) or no constraint — unconstrained
// subscriptions are pure change feeds that never trigger refreshes.
// GROUP BY queries maintain one incremental answer per group.
func (e *Engine) Subscribe(q query.Query) (*Subscription, error) {
	if q.Within < 0 || math.IsNaN(q.Within) {
		return nil, fmt.Errorf("continuous: invalid precision constraint %g", q.Within)
	}
	if q.RelativeWithin < 0 || math.IsNaN(q.RelativeWithin) {
		return nil, fmt.Errorf("continuous: invalid relative precision %g", q.RelativeWithin)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, query.ErrClosed
	}
	ts := e.tables[q.Table]
	if ts == nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("continuous: table %q not registered", q.Table)
	}
	schema := ts.c.Schema()
	col, ok := schema.Lookup(q.Column)
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("continuous: unknown column %q.%q", q.Table, q.Column)
	}
	groupIdx := make([]int, len(q.GroupBy))
	for i, name := range q.GroupBy {
		ci, ok := schema.Lookup(name)
		if !ok {
			e.mu.Unlock()
			return nil, fmt.Errorf("continuous: unknown column %q.%q", q.Table, name)
		}
		if schema.Column(ci).Kind != relation.Exact {
			e.mu.Unlock()
			return nil, fmt.Errorf("continuous: grouping column %q must be exact", name)
		}
		groupIdx[i] = ci
	}
	sig := signature(q)
	v := ts.views[sig]
	if v == nil {
		v = newView(sig, q, col, groupIdx)
		ts.views[sig] = v
	}
	s := &Subscription{e: e, v: v, q: q, ch: make(chan Update, 1), done: make(chan struct{})}
	v.subs = append(v.subs, s)
	e.subCount.Add(1)
	e.mu.Unlock()

	e.markPoke(q.Table)
	e.ensureLoop()
	e.Settle()
	return s, nil
}

// SubscribeCtx is Subscribe bound to a context: when the context is
// canceled or its deadline expires, the subscription is closed (its
// channel closes and its standing constraint stops being repaired), so
// callers can tie a standing query's lifetime to a request or session
// context instead of arranging their own Close call.
func (e *Engine) SubscribeCtx(ctx context.Context, q query.Query) (*Subscription, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := e.Subscribe(q)
	if err != nil {
		return nil, err
	}
	if done := ctx.Done(); done != nil {
		go func() {
			select {
			case <-done:
				s.Close()
			case <-s.done:
				// Closed manually (or by engine shutdown); nothing to do,
				// and the watcher must not outlive the subscription.
			case <-e.done:
				// Engine shutdown already closed every subscription.
			}
		}()
	}
	return s, nil
}

// Metrics returns a snapshot of engine counters.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.m
	for _, ts := range e.tables {
		m.Views += len(ts.views)
		for _, v := range ts.views {
			m.Subscriptions += len(v.subs)
		}
	}
	return m
}

// Err returns the error of the most recent maintenance round's refresh
// scheduling, or nil if it succeeded (e.g. a source losing an object
// mid-flight sets it; the engine keeps running, the next round retries,
// and a clean round clears it).
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastErr
}

// Close shuts the engine down: all subscription channels are closed and
// further Subscribe calls fail. Idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	for _, ts := range e.tables {
		for _, v := range ts.views {
			for _, s := range v.subs {
				if !s.closed {
					s.closed = true
					close(s.ch)
					close(s.done)
				}
			}
			v.subs = nil
		}
		ts.views = make(map[string]*view)
	}
	e.mu.Unlock()
	e.subCount.Store(0)
	close(e.done)
}

// ensureLoop starts the maintainer goroutine once.
func (e *Engine) ensureLoop() {
	e.loopOnce.Do(func() { go e.loop() })
}

// loop is the maintainer: it drains wake signals and settles.
func (e *Engine) loop() {
	for {
		select {
		case <-e.done:
			return
		case <-e.wake:
			e.Settle()
		}
	}
}

// Settle synchronously processes all pending events until the engine is
// quiescent: every subscription's answer reflects the current cache
// state and violated constraints have been repaired. Tests, benchmarks
// and Monitor.Poll use it for deterministic observation; the maintainer
// goroutine calls it on every wake.
func (e *Engine) Settle() {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	for pass := 0; pass < maxSettlePasses; pass++ {
		d := e.takeDirty()
		if len(d) == 0 {
			return
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return
		}
		for name, ds := range d {
			e.processTableLocked(e.tables[name], ds)
		}
		e.mu.Unlock()
	}
}

// markKey records a changed object (push, refresh, insert or delete)
// under its owning shard.
func (e *Engine) markKey(table string, shard int, key int64) {
	if e.subCount.Load() == 0 {
		return
	}
	e.dirtyMu.Lock()
	ds := e.dirtyFor(table)
	if !ds.time {
		if ds.shards == nil {
			ds.shards = make(map[int]map[int64]struct{})
		}
		keys := ds.shards[shard]
		if keys == nil {
			keys = make(map[int64]struct{})
			ds.shards[shard] = keys
		}
		keys[key] = struct{}{}
	}
	e.dirtyMu.Unlock()
	e.kick()
}

// markTime records a clock tick: every table's bounds have widened.
func (e *Engine) markTime() {
	if e.subCount.Load() == 0 {
		return
	}
	e.dirtyMu.Lock()
	for _, name := range e.names {
		ds := e.dirtyFor(name)
		ds.time = true
		ds.shards = nil
	}
	e.dirtyMu.Unlock()
	e.kick()
}

// markPoke asks for a round on the table without dirtying existing
// state (a new subscription's view needs its first build, which the
// round performs for any view with built == false).
func (e *Engine) markPoke(table string) {
	e.dirtyMu.Lock()
	e.dirtyFor(table)
	e.dirtyMu.Unlock()
	e.kick()
}

// dirtyFor returns (creating if needed) the table's dirty set. Caller
// holds dirtyMu.
func (e *Engine) dirtyFor(table string) *dirtySet {
	ds := e.dirty[table]
	if ds == nil {
		ds = &dirtySet{}
		e.dirty[table] = ds
	}
	return ds
}

// takeDirty atomically swaps out the pending dirty state.
func (e *Engine) takeDirty() map[string]*dirtySet {
	e.dirtyMu.Lock()
	defer e.dirtyMu.Unlock()
	if len(e.dirty) == 0 {
		return nil
	}
	d := e.dirty
	e.dirty = make(map[string]*dirtySet)
	return d
}

// kick wakes the maintainer without blocking.
func (e *Engine) kick() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// processTableLocked runs one maintenance round for a table: update
// contributions, re-fold dirty groups, repair violated constraints with
// one shared refresh batch, and fan out notifications. Caller holds
// e.mu.
func (e *Engine) processTableLocked(ts *tableState, ds *dirtySet) {
	if ts == nil || len(ts.views) == 0 {
		return
	}
	if m := e.cfg.Metrics; m != nil {
		defer func(t0 time.Time) { m.Maintain.ObserveDuration(time.Since(t0)) }(time.Now())
	}
	// Delayed insert/delete propagation (§8.3) would leave maintained
	// non-COUNT answers unsound; flush queued membership events first.
	if ts.c.CardinalitySlack() > 0 {
		ts.c.FlushWatched()
	}
	ts.c.Sync()
	st := ts.c.Store()

	// 1. Update per-view contributions from the store, shard by shard
	// under each shard's read lock — so this round contends only with
	// writers of the shards it actually reads. A tick widened every
	// bound, so time-dirty rounds rebuild every view from all shards;
	// push rounds touch only the shards holding changed keys.
	var rebuilding []*view
	for _, v := range ts.views {
		if ds.time || !v.built {
			v.reset(st.NumShards())
			rebuilding = append(rebuilding, v)
		}
	}
	for si := 0; si < st.NumShards(); si++ {
		keys := ds.shards[si]
		if len(rebuilding) == 0 && len(keys) == 0 {
			continue
		}
		st.ViewShard(si, func(t *relation.Table) {
			for _, v := range rebuilding {
				v.scanShard(si, t)
			}
			for key := range keys {
				i := t.ByKey(key)
				for _, v := range ts.views {
					if v.built { // else rebuilt above from the full shard scan
						v.updateKey(si, t, key, i)
					}
				}
			}
		})
	}
	for _, v := range rebuilding {
		v.built = true
	}

	// 2. Re-fold answers of dirty groups.
	for _, v := range ts.views {
		v.recompute()
	}

	// 3. Shared refresh scheduling across all violated views/groups.
	e.repairLocked(ts, st)

	// 4. Notifications: push to each subscription whose visible state
	// changed.
	now := e.clock.Now()
	for _, v := range ts.views {
		for _, s := range v.subs {
			if s.closed {
				continue
			}
			u := v.updateFor(s, now)
			if s.last != nil && sameUpdate(s.last, &u) {
				continue
			}
			s.seq++
			u.Seq = s.seq
			cp := u
			s.last = &cp
			s.notifications++
			e.m.Notifications++
			s.push(u)
		}
	}
	e.m.Rounds++
}

// repairLocked implements the shared refresh scheduler: one
// CHOOSE_REFRESH per violated view/group against the strictest
// subscriber constraint (scaled by the refresh margin), plans deduped
// into a single batched refresh, demand fed back to width policies, and
// contributions re-read for the refreshed keys (shard by shard, under
// shard read locks). No shard lock is held across the oracle fetch.
// Caller holds e.mu.
func (e *Engine) repairLocked(ts *tableState, st *relation.Store) {
	if m := e.cfg.Metrics; m != nil {
		defer func(t0 time.Time) { m.Repair.ObserveDuration(time.Since(t0)) }(time.Now())
	}
	type viewPlan struct {
		v    *view
		plan refresh.Plan
	}
	var (
		plans    []viewPlan
		union    = make(map[int64]float64) // key → cost
		demand   = make(map[int64]int)     // key → subscriptions served
		roundErr error
	)
	defer func() { e.lastErr = roundErr }()
	margin := e.cfg.margin()
	for _, v := range ts.views {
		if len(v.subs) == 0 {
			continue
		}
		for _, g := range v.groups {
			target := math.Inf(1)
			violated := false
			for _, s := range v.subs {
				r := s.effR(g.answer)
				if r < target {
					target = r
				}
				if !query.Satisfies(g.answer, r) {
					violated = true
				}
			}
			if !violated || math.IsInf(target, 1) {
				continue
			}
			plan, err := refresh.ChooseFromInputs(
				g.inputs, v.agg, v.trivial, margin*target, g.rows, e.cfg.Options)
			if err != nil {
				roundErr = err
				continue
			}
			if plan.Len() == 0 {
				continue
			}
			plans = append(plans, viewPlan{v, plan})
			for i, key := range plan.Keys {
				union[key] = plan.Costs[i]
				demand[key] += len(v.subs)
			}
		}
	}
	if len(union) == 0 {
		return
	}
	keys := make([]int64, 0, len(union))
	for key := range union {
		keys = append(keys, key)
		// Feed aggregate demand to the width policies BEFORE paying, so
		// the refresh about to be pulled already carries the converged
		// (demand-narrowed, growth-held) width — otherwise the repaired
		// bounds would still be sized for a single query stream and blow
		// past the constraint again on the very next tick, forcing a
		// duplicate batch.
		if n := demand[key]; n > 1 {
			ts.c.ObserveDemand(key, n)
		}
	}
	// One deduped round per table; the cache fans it out per source and
	// installs the results (dropping races with newer pushes). Even beside
	// an error the set marks every refresh that was paid: account those.
	set, err := ts.c.Refresh(context.Background(), keys)
	if err != nil {
		roundErr = err
	}
	refreshed := make(map[int64]bool, len(keys))
	byShard := make(map[int][]int64)
	var paid float64
	for i, key := range keys {
		if !set.Installed[i] {
			continue
		}
		refreshed[key] = true
		si := st.ShardOf(key)
		byShard[si] = append(byShard[si], key)
		paid += union[key]
		if demand[key] > 1 {
			e.m.SharedRefreshes++
		}
	}
	e.m.RefreshBatches++
	e.m.RefreshedObjects += int64(len(refreshed))
	e.m.RefreshCost += paid
	for _, vp := range plans {
		for i, key := range vp.plan.Keys {
			if refreshed[key] {
				vp.v.attributedCost += vp.plan.Costs[i]
				vp.v.attributedRefreshes++
			}
		}
	}

	// Re-read the refreshed keys and re-fold, so this round's
	// notifications already reflect the repaired answers. Keys are
	// grouped by owning shard, one read lock per touched shard.
	for si, ks := range byShard {
		st.ViewShard(si, func(t *relation.Table) {
			for _, key := range ks {
				i := t.ByKey(key)
				for _, v := range ts.views {
					v.updateKey(si, t, key, i)
				}
			}
		})
	}
	for _, v := range ts.views {
		v.recompute()
	}
}
