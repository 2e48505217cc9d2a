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
// execute queries (against the same or different relations) while
// registrations happen.
//
// # One executor, two registrations
//
// The three steps are written once, in ExecuteConfig, over a Registration:
// something the processor can fold (step 1), snapshot (the classified
// inputs CHOOSE_REFRESH consumes) and refresh (run the chosen keys, then
// refold for step 3). Validation, the deadline, the phase boundaries,
// plan selection, the plan-order cost fold and every typed error live in
// that one skeleton; a registration differs only in where the tuples are
// folded. There are two. RegisterStore builds the store-backed one over
// a sharded relation.Store whose per-shard RWMutexes are shared with the
// owning cache: the aggregation scans of steps 1 and 3 and the
// CHOOSE_REFRESH scan of step 2 hold shard read locks one shard at a
// time (so concurrent queries scan in parallel and a source push blocks
// only scans of the shard owning the pushed key), while installing
// refreshed values write-locks only the shards owning keys in the plan.
// Refresh fetches themselves run outside all locks so that slow sources
// never block scans; when the oracle is a Refresher the whole refresh set
// is one round of parallel per-source batches, installed by the oracle.
// The shape-keyed plan cache lives behind this registration. The other
// is the partition coordinator's scattered registration (package
// partition), which folds, snapshots and refreshes by fanning out to the
// nodes owning the relation's buckets and merging what they return.
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

// Registration is the seam between the three-step executor and a
// relation: the processor resolves a request against Schema, then drives
// one Execution per request. A registration may differ from another only
// in how it folds, snapshots and refreshes — never in validation, phase
// boundaries, plan selection, cost accounting or error shaping, which
// ExecuteConfig owns (DESIGN.md invariant 32).
type Registration interface {
	// Schema returns the registered relation's schema.
	Schema() *relation.Schema
	// Begin starts one request. The returned Execution carries whatever
	// the registration must remember between the steps of that request; a
	// registration with nothing to remember returns itself.
	Begin() Execution
}

// Execution is one request's view of a registration. The executor calls
// Fold once, then — only if the constraint is not met from cache —
// Snapshot, Refresh and Refold, in that order. An execution starts its
// own trace spans under the root it is handed (nil when the request is
// not traced).
type Execution interface {
	// Fold computes the step-1 bounded answer from cached bounds. frozen
	// is non-nil when the answer was folded from a fallback the
	// registration cannot refresh (a degraded partition's last good
	// state): the executor stops at this answer and, if the constraint is
	// unmet, reports frozen as the cause. err means no sound answer
	// exists.
	Fold(ctx context.Context, root *obs.Span, r Request) (initial interval.Interval, frozen, err error)
	// Snapshot returns the canonical key-ordered classified inputs
	// CHOOSE_REFRESH plans over and the relation's cardinality at scan
	// time. The slice is read-only. It fails only when ctx ends.
	Snapshot(ctx context.Context, root *obs.Span, r Request) (inputs []aggregate.Input, tableLen int, err error)
	// Refresh runs one refresh round for the plan's keys and reports,
	// aligned with keys, which refreshes reached the relation: a key
	// dropped since the plan was computed, or a reply overtaken by a newer
	// push, did not. A context cutoff is returned separately from hard
	// errors; on either, installed still marks every refresh paid for and
	// installed before the failure. ctx carries the refresh span.
	Refresh(ctx context.Context, r Request, keys []int64) (installed []bool, ctxErr, hardErr error)
	// Refold computes the step-3 answer after a Refresh that did not fail
	// hard.
	Refold(r Request) interval.Interval
}

// Request is one validated scalar request as a registration sees it.
type Request struct {
	// Query is the query after the mode rewrite; its Within is absolute.
	Query Query
	// Col is the aggregation column's index in the registration's schema.
	Col int
	// NoPred reports a trivial (absent) predicate.
	NoPred bool
	// Mode is the request's position on the precision-performance dial.
	Mode Mode
	// Workers is the scan parallelism of the request's refresh options.
	Workers int
}

// Processor executes bounded queries over a set of cached tables, pulling
// refreshes from per-table oracles. It is safe for concurrent use; see
// the package comment for the locking protocol.
type Processor struct {
	mu      sync.RWMutex
	entries map[string]Registration
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
		entries: make(map[string]Registration),
		opts:    opts,
		metrics: &obs.EngineMetrics{},
	}
}

// Metrics returns the processor's always-on histogram set. The System
// façade shares this instance with the caches and the continuous engine
// so the whole request path records into one place.
func (p *Processor) Metrics() *obs.EngineMetrics { return p.metrics }

// RegisterStore adds a sharded cached relation and its refresh oracle
// (nil is allowed for tables queried only in imprecise mode). The store's
// per-shard locks are shared with whatever other component mutates it
// (the cache applying source pushes): scans take shard read locks,
// installs write-lock only the shards owning refreshed keys.
func (p *Processor) RegisterStore(name string, st *relation.Store, o Oracle) {
	p.Attach(name, &storeEntry{proc: p, store: st, oracle: o, plans: newPlanCache()})
}

// Attach adds a relation the processor reaches through the given
// registration — how the partition coordinator registers a relation
// scattered over its nodes.
func (p *Processor) Attach(name string, r Registration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.entries[name] = r
}

// SetPlanCache enables or disables the shape-keyed plan cache (enabled
// by default). Disabling forces every request down the cold
// scan-and-classify path; the differential suites run cached-vs-cold in
// lockstep to prove bit-identical answers.
func (p *Processor) SetPlanCache(enabled bool) { p.plansOff.Store(!enabled) }

// PlanCacheEnabled reports whether the shape-keyed plan cache is active.
func (p *Processor) PlanCacheEnabled() bool { return !p.plansOff.Load() }

// PlanCacheSizes returns the total memoized fold and scan entry counts
// across all store-backed registrations.
func (p *Processor) PlanCacheSizes() (folds, scans int) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, r := range p.entries {
		if e, ok := r.(*storeEntry); ok {
			f, s := e.plans.sizes()
			folds += f
			scans += s
		}
	}
	return folds, scans
}

// entry returns the registration for a table, or nil.
func (p *Processor) entry(name string) Registration {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.entries[name]
}

// storeEntry returns the store-backed registration for a table, or nil —
// what the batch, GROUP BY and iterative executors run over, which read
// tuples directly.
func (p *Processor) storeEntry(name string) *storeEntry {
	e, _ := p.entry(name).(*storeEntry)
	return e
}

// Store returns a registered sharded store, or nil for unknown names.
func (p *Processor) Store(name string) *relation.Store {
	if e := p.storeEntry(name); e != nil {
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

// ExecuteCtx runs the three-step bounded execution under a context with
// per-request options. The context (and WithDeadline) is honored at the
// phase boundaries — before the scan, before CHOOSE_REFRESH, before the
// refresh fan-out, and between refresh batches inside it. An execution
// cut short mid-refresh keeps the refreshes that beat the cutoff and
// returns the best guaranteed interval achieved from them; if that
// answer still misses the precision constraint, the error is a typed
// ErrPrecisionUnmet wrapping the context error. Cost-budgeted requests
// (WithCostBudget) that end wider than a finite constraint return the
// narrowest achieved answer with a typed ErrBudgetExhausted. A relative
// constraint (Query.RelativeWithin, §8.1) becomes the conservative
// absolute one its step-1 answer implies (RelativeR); queries with
// GROUP BY must be run with ExecuteGroupBy.
func (p *Processor) ExecuteCtx(ctx context.Context, q Query, opts ...ExecOption) (Result, error) {
	return p.ExecuteConfig(ctx, q, BuildExecConfig(opts...))
}

// ExecuteConfig is ExecuteCtx over an already-resolved option set; the
// System façade builds the config once and reuses it across phases. It is
// the one place the three-step algorithm is written: everything it asks
// of the relation goes through the table's Registration.
func (p *Processor) ExecuteConfig(ctx context.Context, q Query, cfg ExecConfig) (Result, error) {
	if len(q.GroupBy) > 0 {
		return Result{}, fmt.Errorf("query: GROUP BY query requires ExecuteGroupBy")
	}
	q, ropts := cfg.apply(q, p.opts)
	if cfg.HasBudget && (cfg.Budget < 0 || math.IsNaN(cfg.Budget)) {
		return Result{}, fmt.Errorf("query: invalid cost budget %g", cfg.Budget)
	}
	if !cfg.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, cfg.Deadline)
		defer cancel()
	}
	reg := p.entry(q.Table)
	if reg == nil {
		return Result{}, fmt.Errorf("%w: %q", ErrUnknownTable, q.Table)
	}
	col, ok := reg.Schema().Lookup(q.Column)
	if !ok {
		return Result{}, fmt.Errorf("%w: %q.%q", ErrUnknownColumn, q.Table, q.Column)
	}
	relative := q.RelativeWithin > 0
	if !relative && (q.Within < 0 || math.IsNaN(q.Within)) {
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

	// Step 1: initial bounded answer from cached bounds.
	var res Result
	res.Trace = tr
	req := Request{Query: q, Col: col, NoPred: predicate.IsTrivial(q.Where), Mode: cfg.Mode, Workers: ropts.Parallelism}
	run := reg.Begin()
	initial, frozen, err := run.Fold(ctx, root, req)
	if err != nil {
		tr.Finish()
		return Result{}, err
	}
	res.Initial = initial
	var tScan time.Time
	if sampled {
		tScan = time.Now()
		m.Scan.ObserveDuration(tScan.Sub(t0))
	}
	if relative {
		// §8.1: the true answer lies in the initial bound, so the smallest
		// |A| over it gives a conservative absolute constraint the standard
		// algorithm then runs against.
		q.Within, q.RelativeWithin = RelativeR(res.Initial, q.RelativeWithin), 0
		req.Query = q
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

	if frozen != nil {
		// Part of the answer is a stale fallback nothing can refresh; stop
		// at it.
		if !res.Met {
			return res, ErrPrecisionUnmet{Achieved: res.Answer, Spent: res.RefreshCost, Cause: frozen}
		}
		return res, nil
	}

	// Plan boundary.
	if err := ctx.Err(); err != nil {
		return cutoff(res, q, err)
	}

	// Step 2: choose refreshes from a snapshot — the (possibly slow)
	// knapsack solve runs with no lock held — and run them.
	inputs, tableLen, err := run.Snapshot(ctx, root, req)
	if err != nil {
		return cutoff(res, q, err)
	}
	chooseSp := root.StartSpan("choose")
	start := time.Now()
	plan, err := choosePlan(inputs, q, req.NoPred, tableLen, cfg, ropts)
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
		// Fan-out boundary.
		if err := ctx.Err(); err != nil {
			return cutoff(res, q, err)
		}
		tr.SetPlanCosts(plan.Keys, plan.Costs)
		refreshSp := root.StartSpan("refresh")
		tRef := time.Now()
		installed, cut, hardErr := run.Refresh(obs.ContextWithSpan(ctx, refreshSp), req, plan.Keys)
		ctxErr = cut
		// Report what was actually refreshed: keys dropped mid-flight are
		// neither served nor charged, so they must not be counted — and
		// every refresh that was paid is counted, whatever error ended the
		// round. The paid costs fold in plan order — a deterministic float
		// addition sequence the trace replays, so Trace.TotalCost() matches
		// res.RefreshCost bit-exactly.
		var paidKeys []int64
		if refreshSp != nil {
			paidKeys = make([]int64, 0, len(plan.Keys))
		}
		for j, ok := range installed {
			if !ok {
				continue
			}
			res.Refreshed++
			res.RefreshCost += plan.Costs[j]
			if refreshSp != nil {
				paidKeys = append(paidKeys, plan.Keys[j])
			}
		}
		refreshSp.RecordKeys(paidKeys)
		m.Refresh.ObserveDuration(time.Since(tRef))
		refreshSp.End()
		if hardErr != nil {
			return res, hardErr
		}

		// Step 3: recompute from the (possibly partially) refreshed
		// relation. A cutoff mid-fan-out still recomputes: the refreshes
		// that beat it are paid and installed, and the best-effort answer
		// must reflect them.
		foldSp := root.StartSpan("fold")
		tFold := time.Now()
		res.Answer = run.Refold(req)
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
