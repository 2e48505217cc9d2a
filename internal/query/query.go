// Package query implements the TRAPP/AG query model and the three-step
// bounded query execution of paper section 4:
//
//  1. Compute an initial bounded answer from the cached bounds and check
//     the precision constraint. If it is not met,
//  2. run CHOOSE_REFRESH to select a minimum-cost set of tuples and
//     refresh them from their sources, then
//  3. recompute the bounded answer from the partially refreshed cache.
//
// The Processor works against any refresh Oracle; the trapp package wires
// it to simulated remote sources with per-object costs, while tests use
// in-memory master-value maps.
//
// # Concurrency
//
// The Processor is safe for concurrent use: any number of goroutines may
// Execute queries (against the same or different relations) while
// registrations happen. A registration is either a sharded store
// (RegisterStore — the cache path) whose per-shard RWMutexes are shared
// with the owning cache, or a flat table (Register/RegisterShared) with
// a single lock. The three-step execution brackets its phases with
// those locks: the aggregation scans of steps 1 and 3 and the
// CHOOSE_REFRESH scan of step 2 hold shard read locks one shard at a
// time (so concurrent queries scan in parallel and a source push blocks
// only scans of the shard owning the pushed key), while installing
// refreshed values write-locks only the shards owning keys in the plan.
// Refresh fetches themselves run outside all locks so that slow sources
// never block scans; when the oracle is a Refresher the whole refresh set
// is one round of parallel per-source batches, installed by the oracle.
package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"trapp/internal/aggregate"
	"trapp/internal/interval"
	"trapp/internal/obs"
	"trapp/internal/parallel"
	"trapp/internal/predicate"
	"trapp/internal/refresh"
	"trapp/internal/relation"
)

// Query is a single-table TRAPP/AG aggregation query:
//
//	SELECT AGGREGATE(table.column) WITHIN R FROM table WHERE predicate
type Query struct {
	// Table names the cached table.
	Table string
	// Agg is the aggregation function.
	Agg aggregate.Func
	// Column names the aggregation column.
	Column string
	// Within is the precision constraint R ≥ 0; +Inf (the zero query's
	// default via NewQuery) means unconstrained (pure imprecise mode).
	Within float64
	// RelativeWithin, when positive, expresses the §8.1 relative
	// constraint: the answer width must be at most 2·|A|·RelativeWithin
	// for the true answer A. It takes precedence over Within.
	RelativeWithin float64
	// Where is the selection predicate; nil means none.
	Where predicate.Expr
	// GroupBy lists exact grouping columns (§8.1 extension); non-empty
	// queries must be run with ExecuteGroupBy.
	GroupBy []string
}

// NewQuery returns a query with an unconstrained precision (R = +Inf).
func NewQuery(table string, agg aggregate.Func, column string) Query {
	return Query{Table: table, Agg: agg, Column: column, Within: math.Inf(1)}
}

// String renders the query in the paper's SQL-ish syntax.
func (q Query) String() string {
	s := fmt.Sprintf("SELECT %s(%s.%s)", q.Agg, q.Table, q.Column)
	if q.RelativeWithin > 0 {
		s += fmt.Sprintf(" WITHIN %g%%", q.RelativeWithin*100)
	} else if !math.IsInf(q.Within, 1) {
		s += fmt.Sprintf(" WITHIN %g", q.Within)
	}
	s += " FROM " + q.Table
	if !predicate.IsTrivial(q.Where) {
		s += " WHERE " + q.Where.String()
	}
	for i, g := range q.GroupBy {
		if i == 0 {
			s += " GROUP BY " + g
		} else {
			s += ", " + g
		}
	}
	return s
}

// Oracle supplies exact master values during query-initiated refreshes.
// Master returns the precise values of the bounded columns (in schema
// order) for the object with the given key.
type Oracle interface {
	Master(key int64) (vals []float64, ok bool)
}

// Refresher is an Oracle that serves a whole refresh set in one round.
// Implementations are expected to group the keys by owning source and
// fetch the groups in parallel (one batched request per source), which
// is how the cache-backed oracle turns a refresh plan into concurrent
// network rounds instead of a sequential per-object loop.
//
// A Refresher additionally owns installation: it writes the refreshed
// bounds into the registered table itself, atomically with respect to
// any concurrent mutators it coordinates with (the cache applies them
// under its table lock, dropping replies that an even newer push has
// overtaken). The processor therefore never installs values fetched
// from a Refresher — doing so could resurrect a stale value.
type Refresher interface {
	Oracle
	// Refresh refreshes every requested key and reports the outcome as a
	// set aligned with keys: an entry is installed, and holds the precise
	// bounded-column values, when that key's refresh reached the table.
	// Keys that have disappeared since the plan was computed are skipped,
	// not errors. A cancellation or deadline expiry stops further
	// per-source batches. Whenever the call fails — a cutoff or a hard
	// error — the set still reports every refresh paid for and installed
	// before the failure, so the processor accounts for it and can fold
	// partial progress into a best-effort answer.
	Refresh(ctx context.Context, keys []int64) (relation.RefreshSet, error)
}

// Result reports a bounded query execution.
type Result struct {
	// Answer is the final bounded answer [LA, HA].
	Answer interval.Interval
	// Initial is the bounded answer computed from cached bounds alone
	// (step 1), before any refresh.
	Initial interval.Interval
	// Refreshed is the number of tuples refreshed.
	Refreshed int
	// RefreshCost is the total cost Σ C_i paid for refreshes.
	RefreshCost float64
	// ChooseTime is the time spent inside CHOOSE_REFRESH, the quantity
	// plotted in the paper's Figure 5.
	ChooseTime time.Duration
	// Met reports whether the final answer satisfies the precision
	// constraint (always true for supported queries unless the answer is
	// exactly undefined, which counts as met).
	Met bool
	// Trace is the span tree recorded when the request ran with
	// WithTrace; nil otherwise. Trace.TotalCost() equals RefreshCost
	// bit-exactly.
	Trace *obs.Trace
}

// tableEntry is one registered table with its oracle. A registration is
// either flat — a relation.Table plus the RWMutex guarding it — or
// sharded — a relation.Store carrying its own per-shard locks. The
// execution methods below hide the difference: scans take the read
// lock(s), installs take only the write lock(s) covering the mutated
// keys.
type tableEntry struct {
	table  *relation.Table // flat registration; nil when store is set
	store  *relation.Store // sharded registration
	oracle Oracle
	lock   *sync.RWMutex // guards table; unused for sharded registrations
	plans  *planCache    // shape-keyed scan/classify memo, see plancache.go
}

// version returns the relation's mutation counter — the plan cache's
// invalidation token (see plancache.go).
func (e *tableEntry) version() uint64 {
	if e.store != nil {
		return e.store.Version()
	}
	return e.table.Version()
}

// schema returns the registered relation's schema.
func (e *tableEntry) schema() *relation.Schema {
	if e.store != nil {
		return e.store.Schema()
	}
	return e.table.Schema()
}

// snapshot classifies the relation's tuples over column col under the
// predicate, returning the canonical key-ordered inputs and the
// cardinality at scan time. Flat tables are scanned serially under the
// table read lock; sharded stores scan shard-parallel, each worker
// holding only its shard's read lock.
func (e *tableEntry) snapshot(col int, where predicate.Expr, workers int) ([]aggregate.Input, int) {
	if e.store != nil {
		return aggregate.CollectStore(e.store, col, where, true, workers)
	}
	e.lock.RLock()
	defer e.lock.RUnlock()
	return aggregate.Collect(e.table, col, where, true), e.table.Len()
}

// install writes refreshed exact values for one key, write-locking only
// the owning shard (sharded) or the whole table (flat). It reports
// whether the key was still present — a dropped key no longer
// contributes and installs nothing.
func (e *tableEntry) install(key int64, vals []float64) (bool, error) {
	if e.store != nil {
		return e.store.Refresh(key, vals)
	}
	e.lock.Lock()
	defer e.lock.Unlock()
	i := e.table.ByKey(key)
	if i < 0 {
		return false, nil
	}
	return true, e.table.Refresh(i, vals)
}

// forEachTuple visits every tuple under the appropriate read lock(s):
// the whole table for flat registrations, shard by shard in ascending
// index order for sharded ones. The tuple pointer is only valid during
// the callback.
func (e *tableEntry) forEachTuple(fn func(tu *relation.Tuple)) {
	if e.store != nil {
		for si := 0; si < e.store.NumShards(); si++ {
			e.store.ViewShard(si, func(t *relation.Table) {
				for i := 0; i < t.Len(); i++ {
					fn(t.At(i))
				}
			})
		}
		return
	}
	e.lock.RLock()
	defer e.lock.RUnlock()
	for i := 0; i < e.table.Len(); i++ {
		fn(e.table.At(i))
	}
}

// Processor executes bounded queries over a set of cached tables, pulling
// refreshes from per-table oracles. It is safe for concurrent use; see
// the package comment for the locking protocol.
type Processor struct {
	mu      sync.RWMutex
	entries map[string]*tableEntry
	opts    refresh.Options
	metrics *obs.EngineMetrics
	// plansOff disables the shape-keyed plan cache when set; the cold
	// path is the differential reference the cached path must match
	// bit-for-bit (see plancache.go and the trapp differential suite).
	plansOff atomic.Bool
}

// NewProcessor returns an empty processor with the given refresh options.
func NewProcessor(opts refresh.Options) *Processor {
	return &Processor{
		entries: make(map[string]*tableEntry),
		opts:    opts,
		metrics: &obs.EngineMetrics{},
	}
}

// Metrics returns the processor's always-on histogram set. The System
// façade shares this instance with the caches and the continuous engine
// so the whole request path records into one place.
func (p *Processor) Metrics() *obs.EngineMetrics { return p.metrics }

// Register adds a cached table and its refresh oracle. A nil oracle is
// allowed for tables queried only in imprecise mode. The table gets a
// private lock; when another component also mutates the table (a cache
// applying source pushes), use RegisterShared with that component's lock.
func (p *Processor) Register(name string, t *relation.Table, o Oracle) {
	p.RegisterShared(name, t, o, nil)
}

// RegisterShared adds a cached table whose contents are guarded by the
// given lock, shared with whatever other component mutates the table; a
// nil lock allocates a private one.
func (p *Processor) RegisterShared(name string, t *relation.Table, o Oracle, lock *sync.RWMutex) {
	if lock == nil {
		lock = &sync.RWMutex{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.entries[name] = &tableEntry{table: t, oracle: o, lock: lock, plans: newPlanCache()}
}

// RegisterStore adds a sharded cached relation. The store's per-shard
// locks are shared with whatever other component mutates it (the cache
// applying source pushes): scans take shard read locks, installs
// write-lock only the shards owning refreshed keys.
func (p *Processor) RegisterStore(name string, st *relation.Store, o Oracle) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.entries[name] = &tableEntry{store: st, oracle: o, plans: newPlanCache()}
}

// SetPlanCache enables or disables the shape-keyed plan cache (enabled
// by default). Disabling forces every request down the cold
// scan-and-classify path; the differential suites run cached-vs-cold in
// lockstep to prove bit-identical answers.
func (p *Processor) SetPlanCache(enabled bool) { p.plansOff.Store(!enabled) }

// PlanCacheEnabled reports whether the shape-keyed plan cache is active.
func (p *Processor) PlanCacheEnabled() bool { return !p.plansOff.Load() }

// PlanCacheSizes returns the total memoized fold and scan entry counts
// across all registered tables.
func (p *Processor) PlanCacheSizes() (folds, scans int) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, e := range p.entries {
		f, s := e.plans.sizes()
		folds += f
		scans += s
	}
	return folds, scans
}

// entry returns the registration for a table, or nil.
func (p *Processor) entry(name string) *tableEntry {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.entries[name]
}

// Table returns a registered flat table, or nil (also nil for sharded
// registrations; see Store).
func (p *Processor) Table(name string) *relation.Table {
	if e := p.entry(name); e != nil {
		return e.table
	}
	return nil
}

// Store returns a registered sharded store, or nil for flat
// registrations and unknown names.
func (p *Processor) Store(name string) *relation.Store {
	if e := p.entry(name); e != nil {
		return e.store
	}
	return nil
}

// ErrUnknownTable is returned for queries against unregistered tables.
var ErrUnknownTable = errors.New("query: unknown table")

// ErrUnknownColumn is returned when the aggregation column does not exist.
var ErrUnknownColumn = errors.New("query: unknown column")

// ErrNoOracle is returned when a query needs refreshes but the table has
// no oracle.
var ErrNoOracle = errors.New("query: table has no refresh oracle")

// Execute runs the three-step bounded execution for the query with a
// background context and default per-request options. Queries with a
// relative precision constraint are delegated to ExecuteRelative;
// queries with GROUP BY must be run with ExecuteGroupBy.
func (p *Processor) Execute(q Query) (Result, error) {
	return p.ExecuteCtx(context.Background(), q)
}

// ExecuteCtx runs the three-step bounded execution under a context with
// per-request options. The context (and WithDeadline) is honored at the
// phase boundaries — before the scan, before CHOOSE_REFRESH, before the
// refresh fan-out, and between refresh batches inside it. An execution
// cut short mid-refresh keeps the refreshes that beat the cutoff and
// returns the best guaranteed interval achieved from them; if that
// answer still misses the precision constraint, the error is a typed
// ErrPrecisionUnmet wrapping the context error. Cost-budgeted requests
// (WithCostBudget) that end wider than a finite constraint return the
// narrowest achieved answer with a typed ErrBudgetExhausted.
func (p *Processor) ExecuteCtx(ctx context.Context, q Query, opts ...ExecOption) (Result, error) {
	return p.ExecuteConfig(ctx, q, BuildExecConfig(opts...))
}

// ExecuteConfig is ExecuteCtx over an already-resolved option set; the
// System façade builds the config once and reuses it across phases.
func (p *Processor) ExecuteConfig(ctx context.Context, q Query, cfg ExecConfig) (Result, error) {
	if len(q.GroupBy) > 0 {
		return Result{}, fmt.Errorf("query: GROUP BY query requires ExecuteGroupBy")
	}
	q, ropts := cfg.apply(q, p.opts)
	if cfg.HasBudget && (cfg.Budget < 0 || math.IsNaN(cfg.Budget)) {
		return Result{}, fmt.Errorf("query: invalid cost budget %g", cfg.Budget)
	}
	// The deadline is attached before any dispatch so every path —
	// including the relative-constraint pre-scan — sees it; the config
	// passed onward is cleared to avoid re-deriving the context.
	if !cfg.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, cfg.Deadline)
		defer cancel()
		cfg.Deadline = time.Time{}
	}
	if q.RelativeWithin > 0 {
		rel := q.RelativeWithin
		q.RelativeWithin = 0
		return p.executeRelative(ctx, q, rel, cfg, ropts)
	}
	e := p.entry(q.Table)
	if e == nil {
		return Result{}, fmt.Errorf("%w: %q", ErrUnknownTable, q.Table)
	}
	col, ok := e.schema().Lookup(q.Column)
	if !ok {
		return Result{}, fmt.Errorf("%w: %q.%q", ErrUnknownColumn, q.Table, q.Column)
	}
	if q.Within < 0 || math.IsNaN(q.Within) {
		return Result{}, fmt.Errorf("query: invalid precision constraint %g", q.Within)
	}

	// Scan boundary: a request that arrives already expired does no work.
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	// Observability: on the cache-answered fast path a clock read costs
	// more than the scan it would measure, so request/scan latency and
	// width-ratio telemetry are recorded for a uniform 1-in-SampleRate
	// sample of requests (an unbiased estimate of the same
	// distributions, at the price of one atomic add per request).
	// Requests that go on to pay refreshes, and traced requests, are
	// always timed in full.
	m := p.metrics
	tr := cfg.TraceRoot
	if tr == nil && cfg.Trace {
		tr = obs.NewTrace(q.String())
	}
	var root *obs.Span
	if tr != nil {
		root = tr.Root
	}
	sampled := tr != nil || m.Sample()
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}

	// Step 1: initial bounded answer from cached bounds. The scan holds
	// read locks, so concurrent queries evaluate in parallel. Over a
	// sharded store the answer is folded in one streaming pass (pooled
	// buffers, no Input materialization) — the hot path for queries
	// answered from cache; the Input snapshot is materialized only when
	// refresh selection actually needs it. Flat tables snapshot once and
	// reuse the inputs. The (possibly slow) knapsack solve runs with no
	// lock held.
	var res Result
	res.Trace = tr
	noPred := predicate.IsTrivial(q.Where)

	// Plan-cache lookup: the step-1 answer depends only on the query
	// shape and the relation state, so a memoized fold certified by the
	// relation's mutation counter replaces the scan outright (see
	// plancache.go for the bit-identical argument). The version is read
	// before the scan so a racing mutation can only leave a
	// conservatively stale stamp.
	usePlans := !p.plansOff.Load()
	var pcKey foldKey
	var pcVer uint64
	pcHit := false
	if usePlans {
		pcVer = e.version()
		pcKey = foldKey{col: col, agg: q.Agg, mode: cfg.Mode, pred: predKey(q.Where)}
	}
	pcSp := root.StartSpan("plancache")
	var inputs []aggregate.Input
	var tableLen int
	if usePlans {
		if ent, ok := e.plans.fold(m, pcKey, pcVer); ok {
			pcHit = true
			res.Initial = ent.initial
			tableLen = ent.n
		}
	}
	if pcSp != nil {
		pcSp.SetDetail("hit=%t", pcHit)
		pcSp.End()
	}
	var scanSp *obs.Span
	if !pcHit {
		scanSp = root.StartSpan("scan")
		if e.store != nil {
			res.Initial, tableLen = aggregate.EvalStoreStream(e.store, col, q.Agg, q.Where)
		} else {
			inputs, tableLen = e.snapshot(col, q.Where, ropts.Parallelism)
			res.Initial = aggregate.EvalInputs(inputs, q.Agg, noPred, tableLen)
		}
		if usePlans {
			e.plans.storeFold(pcKey, pcVer, res.Initial, tableLen)
			if inputs != nil {
				e.plans.storeScan(scanKey{col: col, pred: pcKey.pred}, pcVer, inputs, tableLen)
			}
		}
	}
	var tScan time.Time
	if sampled {
		tScan = time.Now()
		m.Scan.ObserveDuration(tScan.Sub(t0))
	}
	if scanSp != nil {
		scanSp.SetDetail("rows=%d width=%g", tableLen, res.Initial.Width())
		scanSp.End()
	}
	res.Answer = res.Initial
	res.Met = Satisfies(res.Answer, q.Within)
	// A budgeted request with no finite constraint always proceeds to
	// spend its budget (Satisfies against R = +Inf is vacuous); every
	// other request is done once the constraint holds from cache alone.
	budgetDual := cfg.HasBudget && cfg.Mode != ModeImprecise
	if res.Met && !(budgetDual && math.IsInf(q.Within, 1)) {
		if sampled {
			m.Request.ObserveDuration(tScan.Sub(t0))
			recordTelemetry(m, &res, q)
		}
		tr.Finish()
		return res, nil
	}
	// Slow path from here: every refresh-paying request is timed and
	// counted in the telemetry, whatever its outcome. A request that
	// skipped the sampled fast-path clocks starts its clock here, at the
	// plan boundary — undercounting only the ~µs scan against work that
	// runs for orders of magnitude longer.
	if !sampled {
		t0 = time.Now()
	}
	defer func() {
		m.Request.ObserveDuration(time.Since(t0))
		recordTelemetry(m, &res, q)
		tr.Finish()
	}()

	// Plan boundary.
	if err := ctx.Err(); err != nil {
		return cutoff(res, q, err)
	}

	// Step 2: choose refreshes from a snapshot, fetch the exact values
	// outside any table lock — slow sources must not block other
	// queries' scans — and install them write-locking only the shards
	// owning keys in the plan. A memoized classified snapshot (stamped
	// with an unchanged mutation counter) replaces the collection pass:
	// the planners treat inputs as read-only, so sharing is safe.
	if inputs == nil {
		scKey := scanKey{col: col, pred: predKey(q.Where)}
		if usePlans {
			if sc, ok := e.plans.scan(scKey, e.version()); ok {
				inputs, tableLen = sc.inputs, sc.n
			}
		}
		if inputs == nil {
			v := e.version()
			inputs, tableLen = e.snapshot(col, q.Where, ropts.Parallelism)
			if usePlans && inputs != nil {
				e.plans.storeScan(scKey, v, inputs, tableLen)
			}
		}
	}
	chooseSp := root.StartSpan("choose")
	start := time.Now()
	plan, err := choosePlan(inputs, q, noPred, tableLen, cfg, ropts)
	res.ChooseTime = time.Since(start)
	m.Choose.ObserveDuration(res.ChooseTime)
	if chooseSp != nil {
		chooseSp.SetDetail("%s", plan.Describe())
		chooseSp.End()
	}
	if err != nil {
		return res, err
	}
	var ctxErr error
	if plan.Len() > 0 {
		if e.oracle == nil {
			return res, fmt.Errorf("%w: %q", ErrNoOracle, q.Table)
		}
		// Fan-out boundary.
		if err := ctx.Err(); err != nil {
			return cutoff(res, q, err)
		}
		refreshSp := root.StartSpan("refresh")
		tRef := time.Now()
		var hardErr error
		ctxErr, hardErr = runPlan(obs.ContextWithSpan(ctx, refreshSp), e, plan, &res, tr)
		m.Refresh.ObserveDuration(time.Since(tRef))
		refreshSp.End()
		if hardErr != nil {
			return res, hardErr
		}

		// Step 3: recompute from the (possibly partially) refreshed
		// cache. A cutoff mid-fan-out still recomputes: the refreshes
		// that beat it are paid and installed, and the best-effort answer
		// must reflect them.
		foldSp := root.StartSpan("fold")
		tFold := time.Now()
		// The post-refresh state is what the next same-shape request will
		// scan, so memoize the refold under the version read before it —
		// repeat constrained shapes then hit on their initial scan.
		var vFold uint64
		if usePlans {
			vFold = e.version()
		}
		if e.store != nil {
			res.Answer, tableLen = aggregate.EvalStoreStream(e.store, col, q.Agg, q.Where)
		} else {
			inputs, tableLen = e.snapshot(col, q.Where, ropts.Parallelism)
			res.Answer = aggregate.EvalInputs(inputs, q.Agg, noPred, tableLen)
		}
		if usePlans {
			e.plans.storeFold(pcKey, vFold, res.Answer, tableLen)
		}
		m.Fold.ObserveDuration(time.Since(tFold))
		if foldSp != nil {
			foldSp.SetDetail("width=%g", res.Answer.Width())
			foldSp.End()
		}
		res.Met = Satisfies(res.Answer, q.Within)
	}
	if ctxErr != nil && !res.Met {
		return res, ErrPrecisionUnmet{Achieved: res.Answer, Spent: res.RefreshCost, Cause: ctxErr}
	}
	if ctxErr != nil {
		return res, nil // cut short, but the constraint held anyway
	}
	if budgetDual && !res.Met && !math.IsInf(q.Within, 1) {
		return res, ErrBudgetExhausted{Achieved: res.Answer, Spent: res.RefreshCost, Budget: cfg.Budget}
	}
	return res, nil
}

// ChoosePlan selects the refresh plan for one request — the exact plan
// selection ExecuteConfig runs between its scan and refresh phases.
// Exported for the partition coordinator: planning over the merged
// canonical inputs of all partitions with this function yields the same
// plan a single node holding the whole relation would compute.
func ChoosePlan(inputs []aggregate.Input, q Query, noPred bool, tableLen int, cfg ExecConfig, opts refresh.Options) (refresh.Plan, error) {
	return choosePlan(inputs, q, noPred, tableLen, cfg, opts)
}

// choosePlan selects the refresh plan for one request. Cost-budgeted
// requests with a finite constraint R first try the classic minimum-cost
// plan for R and keep it when it fits the budget (meeting R as cheaply
// as possible); otherwise — and always for budgeted requests with
// R = +Inf — the cost-bounded dual maximizes width reduction within the
// budget.
func choosePlan(inputs []aggregate.Input, q Query, noPred bool, tableLen int, cfg ExecConfig, opts refresh.Options) (refresh.Plan, error) {
	if cfg.HasBudget && cfg.Mode != ModeImprecise {
		if !math.IsInf(q.Within, 1) {
			classic, err := refresh.ChooseFromInputs(inputs, q.Agg, noPred, q.Within, tableLen, opts)
			if err != nil {
				return classic, err
			}
			if classic.Cost <= cfg.Budget {
				return classic, nil
			}
		}
		return refresh.ChooseBudget(inputs, q.Agg, noPred, cfg.Budget, tableLen, opts)
	}
	return refresh.ChooseFromInputs(inputs, q.Agg, noPred, q.Within, tableLen, opts)
}

// cutoff shapes the result of a request stopped by context cancellation
// or deadline expiry before its constraint was reached: the best
// guaranteed interval achieved so far is returned, with a typed
// ErrPrecisionUnmet when the constraint is still unmet and the bare
// context error when it already held (so callers never mistake a
// satisfied answer for a failed one).
func cutoff(res Result, q Query, cause error) (Result, error) {
	if Satisfies(res.Answer, q.Within) {
		return res, cause
	}
	return res, ErrPrecisionUnmet{Achieved: res.Answer, Spent: res.RefreshCost, Cause: cause}
}

// runPlan executes the refresh phase of a chosen plan against the
// entry's oracle, accumulating the per-key accounting of what actually
// reached the table into res. It returns a context error separately from
// hard errors: on a cutoff the refreshes that beat it are already
// installed and counted, and the caller folds them into a best-effort
// answer.
func runPlan(ctx context.Context, e *tableEntry, plan refresh.Plan, res *Result, tr *obs.Trace) (ctxErr, hardErr error) {
	tr.SetPlanCosts(plan.Keys, plan.Costs)
	// Report what was actually refreshed: keys dropped mid-flight are
	// neither served nor charged, so they must not be counted — and every
	// refresh that was paid is counted, whatever error ended the round.
	set, ctxErr, hardErr := fetchKeys(ctx, e, plan.Keys)
	// The paid costs fold in plan order — a deterministic float addition
	// sequence the trace replays, so Trace.TotalCost() matches
	// res.RefreshCost bit-exactly.
	sp := obs.SpanFromContext(ctx)
	var installed []int64
	if sp != nil {
		installed = make([]int64, 0, len(plan.Keys))
	}
	for j, ok := range set.Installed {
		if !ok {
			continue
		}
		res.Refreshed++
		res.RefreshCost += plan.Costs[j]
		if sp != nil {
			installed = append(installed, plan.Keys[j])
		}
	}
	sp.RecordKeys(installed)
	return ctxErr, hardErr
}

// recordTelemetry records the paper's precision–cost telemetry for one
// completed request: the achieved interval width relative to the
// requested bound (permille; 1000 = exactly at the bound) and the
// refresh cost paid per unit of width reduction (milli units).
func recordTelemetry(m *obs.EngineMetrics, res *Result, q Query) {
	if q.Within > 0 && !math.IsInf(q.Within, 1) && !res.Answer.IsEmpty() {
		if w := res.Answer.Width(); w >= 0 && !math.IsInf(w, 1) && !math.IsNaN(w) {
			m.WidthRatio.Observe(clampCounter(1000 * w / q.Within))
		}
	}
	if res.RefreshCost > 0 {
		red := res.Initial.Width() - res.Answer.Width()
		if red > 0 && !math.IsInf(red, 1) && !math.IsNaN(red) {
			m.CostPerWidth.Observe(clampCounter(1000 * res.RefreshCost / red))
		}
	}
}

// clampCounter converts a nonnegative telemetry ratio to a histogram
// value, clamping pathological magnitudes so the conversion stays
// defined.
func clampCounter(v float64) uint64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > 1e15 {
		return 1e15
	}
	return uint64(v)
}

// fetchKeys runs one refresh round for the given keys through the
// entry's oracle — the shared oracle protocol of both the single-query
// refresh phase (runPlan) and the batch executor's per-table union
// rounds. The returned set is aligned with keys and marks exactly the
// keys whose refresh reached the table (dropped keys and replies that
// lost to newer pushes are not). A context cutoff is returned separately
// from hard errors; on either, the refreshes that completed first are
// already installed, charged, and marked in the set.
func fetchKeys(ctx context.Context, e *tableEntry, keys []int64) (set relation.RefreshSet, ctxErr, hardErr error) {
	if r, ok := e.oracle.(Refresher); ok {
		// The refresher fetches per source in parallel and installs the
		// refreshed bounds itself (see Refresher).
		set, err := r.Refresh(ctx, keys)
		if parallel.IsContextError(err) {
			return set, err, nil
		}
		return set, nil, err
	}
	// Plain per-key oracle: the context is honored between keys, so a
	// cutoff keeps the keys already fetched and installed.
	set = relation.NewRefreshSet(len(keys), len(e.schema().BoundedColumns()))
	for i, key := range keys {
		if err := ctx.Err(); err != nil {
			return set, err, nil
		}
		v, ok := e.oracle.Master(key)
		if !ok {
			return set, nil, fmt.Errorf("query: oracle has no master values for key %d", key)
		}
		// A dropped key no longer contributes; nothing to install.
		installed, err := e.install(key, v)
		if err != nil {
			return set, nil, err
		}
		if installed {
			set.Installed[i] = true
			copy(set.Row(i), v)
		}
	}
	return set, nil, nil
}

// Satisfies reports whether a bounded answer meets an absolute precision
// constraint R (with a float tolerance). An empty answer (exactly
// undefined aggregate) is trivially precise. The continuous-query engine
// uses it to decide, per subscription, whether a maintained answer still
// honors its standing constraint.
func Satisfies(a interval.Interval, r float64) bool {
	if a.IsEmpty() {
		return true
	}
	return a.Width() <= r+1e-9
}

// PreciseMode executes the query by refreshing every tuple that might
// contribute, the "query the sources" extreme of Figure 1(a). It is the
// baseline for the precision-performance experiments.
//
// Deprecated: use ExecuteCtx with WithMode(ModePrecise).
func (p *Processor) PreciseMode(q Query) (Result, error) {
	return p.ExecuteCtx(context.Background(), q, WithMode(ModePrecise))
}

// ImpreciseMode executes the query over cached bounds only, the "query the
// cache" extreme of Figure 1(a): no refreshes, no guarantees about width.
//
// Deprecated: use ExecuteCtx with WithMode(ModeImprecise).
func (p *Processor) ImpreciseMode(q Query) (Result, error) {
	return p.ExecuteCtx(context.Background(), q, WithMode(ModeImprecise))
}
