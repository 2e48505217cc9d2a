// Package trapp assembles the full TRAPP replication system of the paper's
// Figure 3: data sources with refresh monitors, data caches storing
// time-varying bounds, a shared logical clock, a traffic-accounting
// network, and a query processor executing bounded aggregation queries
// with precision constraints. It is the package examples and experiments
// program against; the root module package re-exports its API.
//
// The System is a concurrent query engine: any number of goroutines may
// Execute queries against it while sources apply updates and other
// goroutines add or mount components. Cached relations are sharded
// stores with per-shard locks: aggregation scans share shard read locks
// (a push blocks only scans of the shard owning the pushed key) and the
// refresh phase fans out to sources as parallel batched requests.
// DESIGN.md documents the shard locking protocol.
package trapp

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"trapp/internal/aggregate"
	"trapp/internal/boundfn"
	"trapp/internal/cache"
	"trapp/internal/continuous"
	"trapp/internal/netsim"
	"trapp/internal/obs"
	"trapp/internal/predicate"
	"trapp/internal/query"
	"trapp/internal/refresh"
	"trapp/internal/relation"
	"trapp/internal/source"
	"trapp/internal/sql"
)

// System is a complete simulated TRAPP deployment. All methods are safe
// for concurrent use.
type System struct {
	// Clock is the shared logical clock; advance it to let bounds grow.
	Clock *netsim.Clock
	// Net records refresh traffic and cost.
	Net *netsim.Network

	closed atomic.Bool

	mu      sync.RWMutex
	sources map[string]*source.Source
	caches  map[string]*cache.Cache
	tables  map[string]*cache.Cache // query table name → backing cache
	proc    *query.Processor
	engine  *continuous.Engine
	// recoveries records what each durable cache reconstructed at open
	// (see AddDurableCache); nil until the first durable cache is added.
	recoveries map[string]cache.Recovery
}

// NewSystem creates an empty system with the given refresh options.
func NewSystem(opts refresh.Options) *System {
	clock := netsim.NewClock()
	proc := query.NewProcessor(opts)
	return &System{
		Clock:   clock,
		Net:     netsim.NewNetwork(),
		sources: make(map[string]*source.Source),
		caches:  make(map[string]*cache.Cache),
		tables:  make(map[string]*cache.Cache),
		proc:    proc,
		// The continuous engine records its repair/maintenance latency
		// into the same histogram set as the request path.
		engine: continuous.NewEngine(clock, continuous.Config{Options: opts, Metrics: proc.Metrics()}),
	}
}

// Metrics returns the engine-wide observability histogram set: per-phase
// request latency, refresh batch sizes, the paper's precision–cost
// telemetry, and continuous-engine repair/maintenance latency. Always
// on; snapshot it with Metrics().Snapshot().
func (s *System) Metrics() *obs.EngineMetrics { return s.proc.Metrics() }

// Processor exposes the underlying query processor for introspection
// (the server reports its plan-cache occupancy) and for tests that
// toggle the plan cache.
func (s *System) Processor() *query.Processor { return s.proc }

// WidthTelemetry reports each source's adaptive-width controller state
// (current W spread, escape/shrink counts), keyed by source id.
func (s *System) WidthTelemetry() map[string]source.WidthTelemetry {
	s.mu.RLock()
	ids := make([]string, 0, len(s.sources))
	srcs := make([]*source.Source, 0, len(s.sources))
	for id, src := range s.sources {
		ids = append(ids, id)
		srcs = append(srcs, src)
	}
	s.mu.RUnlock()
	out := make(map[string]source.WidthTelemetry, len(ids))
	for i, src := range srcs {
		out[ids[i]] = src.WidthTelemetry()
	}
	return out
}

// AddSource creates a data source. shape selects the transmitted bound
// shape (nil means the √T default).
func (s *System) AddSource(id string, shape boundfn.Shape) (*source.Source, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.sources[id]; dup {
		return nil, fmt.Errorf("trapp: duplicate source %q", id)
	}
	src := source.New(id, s.Clock, s.Net, shape)
	s.sources[id] = src
	return src, nil
}

// Source returns a source by id, or nil.
func (s *System) Source(id string) *source.Source {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sources[id]
}

// AddCache creates a data cache with the given table schema and the
// default shard count.
func (s *System) AddCache(id string, schema *relation.Schema) (*cache.Cache, error) {
	return s.AddCacheSharded(id, schema, 0)
}

// AddCacheSharded is AddCache with an explicit store shard count
// (rounded up to a power of two; ≤ 0 selects the default). One shard —
// a single lock — is the reference layout of the differential tests.
func (s *System) AddCacheSharded(id string, schema *relation.Schema, nshards int) (*cache.Cache, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.caches[id]; dup {
		return nil, fmt.Errorf("trapp: duplicate cache %q", id)
	}
	c := cache.NewSharded(id, s.Clock, schema, nshards)
	s.caches[id] = c
	return c, nil
}

// Cache returns a cache by id, or nil.
func (s *System) Cache(id string) *cache.Cache {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.caches[id]
}

// MountedCache returns the cache backing a mounted table name, or nil.
func (s *System) MountedCache(tableName string) *cache.Cache {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[tableName]
}

// Tables returns the mounted table names in sorted order — the node's
// half of the cluster Hello exchange, where a partition advertises what
// it serves so the coordinator can assemble its catalog.
func (s *System) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// sysCatalog adapts mounted tables to the SQL parser's catalog.
type sysCatalog struct{ sys *System }

// SchemaOf resolves a mounted table's schema.
func (c sysCatalog) SchemaOf(table string) (*relation.Schema, bool) {
	cch := c.sys.MountedCache(table)
	if cch == nil {
		return nil, false
	}
	return cch.Schema(), true
}

// Catalog exposes the system's mounted tables to the SQL parser — the
// single name-resolution authority shared by the root ParseQuery
// helpers, the HTTP service layer and the remote bench's mirror, so
// the wire parser can never diverge from the embedded one.
func (s *System) Catalog() sql.Catalog { return sysCatalog{s} }

// Mount exposes a cache's sharded table to the query processor under the
// given table name, with the cache itself serving query-initiated
// refreshes. The processor shares the cache's per-shard locks, so source
// pushes and query scans coordinate shard by shard: a push blocks only
// scans of the shard owning the pushed key.
func (s *System) Mount(tableName string, c *cache.Cache) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tables[tableName]; dup {
		return fmt.Errorf("trapp: table %q already mounted", tableName)
	}
	s.tables[tableName] = c
	c.SetMetrics(s.proc.Metrics())
	s.proc.RegisterStore(tableName, c.Store(), c)
	s.engine.AddTable(tableName, c)
	return nil
}

// Subscribe registers a push-based standing query with the continuous
// engine: the bounded answer is maintained incrementally as sources
// push, queries refresh, and the clock advances, and notifications are
// delivered on the subscription's channel whenever the answer moves or
// the constraint's status changes. Violated constraints are repaired by
// the shared refresh scheduler, which dedupes refresh demand across all
// live subscriptions. GROUP BY queries maintain one answer per group.
// After Close it returns ErrClosed.
func (s *System) Subscribe(q query.Query) (*continuous.Subscription, error) {
	if s.closed.Load() {
		return nil, query.ErrClosed
	}
	return s.engine.Subscribe(q)
}

// SubscribeCtx is Subscribe bound to a context: the subscription is
// closed automatically — channel closed, standing constraint no longer
// repaired — when the context is canceled or its deadline expires.
func (s *System) SubscribeCtx(ctx context.Context, q query.Query) (*continuous.Subscription, error) {
	if s.closed.Load() {
		return nil, query.ErrClosed
	}
	return s.engine.SubscribeCtx(ctx, q)
}

// Settle synchronously drains the continuous engine's pending events:
// after it returns, every subscription reflects the current cache state
// and violated constraints have been repaired. The engine's maintainer
// goroutine does the same work in the background; Settle exists for
// deterministic observation points (benchmarks, tests, Monitor.Poll).
func (s *System) Settle() { s.engine.Settle() }

// SubscriptionMetrics returns a snapshot of the continuous engine's
// counters (rounds, notifications, shared refresh traffic).
func (s *System) SubscriptionMetrics() continuous.Metrics { return s.engine.Metrics() }

// Close shuts the system down: the continuous engine stops and closes
// all subscription channels, and every subsequent ExecuteCtx /
// ExecuteBatch / Subscribe call returns the typed ErrClosed instead of
// racing the engine's teardown. Executions already in flight complete
// normally. Idempotent.
func (s *System) Close() {
	s.closed.Store(true)
	s.engine.Close()
}

// ExecuteCtx synchronizes the backing cache's bounds to the current time
// and runs the three-step bounded query execution under the request
// context and options. The context (plus WithDeadline) is honored at
// every phase boundary — scan, plan, refresh fan-out — and a request cut
// off mid-refresh returns the best guaranteed interval achieved from the
// refreshes that beat the cutoff, with a typed ErrPrecisionUnmet when
// the constraint is still unmet. WithCostBudget switches the request to
// the cost-bounded dual (narrowest answer for ≤ B units of refresh
// cost); WithMode positions it on the precision-performance dial;
// WithSolver overrides the knapsack solver. After Close it returns
// ErrClosed.
//
// When the cache watches sources with delayed insert/delete propagation
// (section 8.3), a predicate-free COUNT whose constraint tolerates the
// cardinality slack is answered from the cache with the answer widened by
// ±slack — saving the propagation round — and every other bounded-mode
// query first flushes the queued events, since missing tuples would make
// the other aggregates' bounds unsound.
func (s *System) ExecuteCtx(ctx context.Context, q query.Query, opts ...query.ExecOption) (query.Result, error) {
	return s.executeConfig(ctx, q, query.BuildExecConfig(opts...))
}

// executeConfig is ExecuteCtx over a resolved option set.
func (s *System) executeConfig(ctx context.Context, q query.Query, cfg query.ExecConfig) (query.Result, error) {
	if s.closed.Load() {
		return query.Result{}, query.ErrClosed
	}
	c := s.MountedCache(q.Table)
	if c == nil {
		return query.Result{}, fmt.Errorf("trapp: %w: %q not mounted", query.ErrUnknownTable, q.Table)
	}
	// A traced request gets its trace created here so the cache bound
	// synchronization — work done before the processor runs — appears in
	// the same span tree as the execution phases.
	if cfg.Trace && cfg.TraceRoot == nil {
		cfg.TraceRoot = obs.NewTrace(q.String())
	}
	slack, flush := slackCount(c, q, cfg)
	if flush {
		c.FlushWatched()
	}
	var sp *obs.Span
	if cfg.TraceRoot != nil {
		sp = cfg.TraceRoot.Root.StartSpan("sync")
	}
	c.Sync()
	sp.End()
	if slack == 0 {
		return s.proc.ExecuteConfig(ctx, q, cfg)
	}
	within := q.Within
	q.Within -= 2 * slack
	res, err := s.proc.ExecuteConfig(ctx, q, cfg)
	return widenSlackCount(res, err, slack, within)
}

// slackCount decides the §8.3 path of one query over a cache that
// watches sources with delayed insert/delete propagation. A
// predicate-free bounded COUNT whose constraint tolerates the cache's
// cardinality slack runs against the constraint narrowed by 2·slack and
// is widened back by ±slack (widenSlackCount) — saving the propagation
// round — so slackCount returns that slack. Every other bounded-mode
// query needs the queued membership events flushed first, since missing
// tuples would make the other aggregates' bounds unsound. An imprecise
// query never refreshes, so queued events cannot make it pay a
// propagation round either: it needs neither.
func slackCount(c *cache.Cache, q query.Query, cfg query.ExecConfig) (slack float64, flush bool) {
	if cfg.Mode == query.ModeImprecise {
		return 0, false
	}
	if slack = float64(c.CardinalitySlack()); slack == 0 {
		return 0, false
	}
	countNoPred := q.Agg == aggregate.Count && predicate.IsTrivial(q.Where) &&
		len(q.GroupBy) == 0 && q.RelativeWithin == 0 && cfg.Mode == query.ModeBounded && !cfg.HasBudget
	if countNoPred && q.Within >= 2*slack {
		return slack, false
	}
	return 0, true
}

// widenSlackCount post-processes a §8.3 slack-COUNT execution: the
// answer computed against the narrowed constraint is widened by ±slack
// (clamped at zero — cardinality is nonnegative) and Met is recomputed
// against the caller's original constraint. A deadline's typed
// ErrPrecisionUnmet is rebuilt so its Achieved/Spent match the widened
// result exactly — a widened interval that now meets the constraint
// clears the error, and a computed-but-unmet one stays sound (the
// widened interval contains the true count). Results without an answer
// (a request expired before the scan) pass through untouched.
func widenSlackCount(res query.Result, err error, slack, within float64) (query.Result, error) {
	var unmet query.ErrPrecisionUnmet
	isUnmet := errors.As(err, &unmet)
	if err != nil && !isUnmet {
		return res, err
	}
	res.Answer = res.Answer.Expand(slack)
	if res.Answer.Lo < 0 {
		res.Answer.Lo = 0
	}
	res.Met = res.Answer.Width() <= within+1e-9
	if !isUnmet {
		return res, nil
	}
	if res.Met {
		return res, nil
	}
	return res, query.ErrPrecisionUnmet{Achieved: res.Answer, Spent: res.RefreshCost, Cause: unmet.Cause}
}

// ExecuteBatch executes a set of scalar bounded queries as one batch:
// every query is planned first, the refresh plans are merged into one
// deduped batched refresh per table (fanned out per source in parallel —
// the same machinery the continuous scheduler's shared rounds use), and
// each query is answered from its own plan, bit-identical to standalone
// execution on an identical system. Tuples needed by several queries are
// paid for once. The returned slice aligns index-for-index with qs;
// per-query execution outcomes (ErrBudgetExhausted, a deadline's
// ErrPrecisionUnmet) are joined into the returned error. After Close it
// returns ErrClosed.
func (s *System) ExecuteBatch(ctx context.Context, qs []query.Query, opts ...query.ExecOption) ([]query.Result, error) {
	results, perQuery, err := s.ExecuteBatchDetailed(ctx, qs, opts...)
	if err != nil {
		return nil, err
	}
	return results, query.JoinBatchErrors(perQuery)
}

// ExecuteBatchDetailed is ExecuteBatch with per-query outcomes kept
// separate instead of joined: the second return aligns index-for-index
// with qs (nil for clean executions, ErrBudgetExhausted /
// ErrPrecisionUnmet otherwise), while the final error reports
// whole-batch failures (unknown tables, ErrClosed, validation). The
// service layer uses it to report each statement's outcome to the
// client it belongs to.
func (s *System) ExecuteBatchDetailed(ctx context.Context, qs []query.Query, opts ...query.ExecOption) ([]query.Result, []error, error) {
	if s.closed.Load() {
		return nil, nil, query.ErrClosed
	}
	cfg := query.BuildExecConfig(opts...)
	// The §8.3 paths of the single-query executor, so batch answers
	// match standalone execution; a cache flushes only when some query in
	// the batch needs exact membership.
	type slackFix struct {
		idx    int
		slack  float64
		within float64 // the original constraint
	}
	var fixes []slackFix
	caches := make(map[*cache.Cache]bool) // cache → needs flush
	for i, q := range qs {
		c := s.MountedCache(q.Table)
		if c == nil {
			return nil, nil, fmt.Errorf("trapp: %w: %q not mounted", query.ErrUnknownTable, q.Table)
		}
		slack, flush := slackCount(c, q, cfg)
		caches[c] = caches[c] || flush
		if slack > 0 {
			fixes = append(fixes, slackFix{idx: i, slack: slack, within: q.Within})
		}
	}
	for c, flush := range caches {
		if flush {
			c.FlushWatched()
		}
		c.Sync()
	}
	if len(fixes) > 0 {
		qs = append([]query.Query(nil), qs...)
		for _, f := range fixes {
			qs[f.idx].Within -= 2 * f.slack
		}
	}
	results, perQuery, err := s.proc.ExecuteBatchDetailed(ctx, qs, cfg)
	if err != nil {
		return nil, nil, err
	}
	for _, f := range fixes {
		if f.idx >= len(results) {
			break
		}
		results[f.idx], perQuery[f.idx] = widenSlackCount(results[f.idx], perQuery[f.idx], f.slack, f.within)
	}
	return results, perQuery, nil
}

// Stats returns a snapshot of network traffic counters.
func (s *System) Stats() netsim.Stats { return s.Net.Stats() }
