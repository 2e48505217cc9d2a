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
// The three steps are written once, as the steps of one request
// (prepare, fold, choose, settle) over a Registration: something the
// processor can fold (step 1), snapshot (the classified inputs
// CHOOSE_REFRESH consumes) and refresh (run the chosen keys, then refold
// for step 3). Validation, plan selection, the plan-order cost fold and
// every typed error live in those steps; ExecuteConfig runs them between
// the deadline and the phase boundaries, and the batch and iterative
// executors run them too, differing only in how step 3 is paid for. A
// registration differs only in where the tuples are folded. There are
// two. RegisterStore builds the store-backed one over
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
// the executor's shared steps own (DESIGN.md invariant 32).
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
// what GROUP BY runs over, which reads tuples directly.
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
// System façade builds the config once and reuses it across phases. It
// runs the three steps in order for one request: the prologue (prepare),
// step 1 (fold), step 2 (choose), one refresh round and the shared
// outcome step (settle, end). The batch and iterative executors run the
// same steps and differ only in how step 3 is paid for. Everything the
// steps ask of the relation goes through the table's Registration.
func (p *Processor) ExecuteConfig(ctx context.Context, q Query, cfg ExecConfig) (Result, error) {
	var x job
	if err := p.prepare(&x, q, cfg); err != nil {
		return Result{}, err
	}
	ctx, cancel := cfg.withDeadline(ctx)
	defer cancel()
	// Scan boundary: a request that arrives already expired does no work.
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if done, err := x.fold(ctx); done {
		return x.res, err
	}
	if x.frozen != nil {
		// Part of the answer is a stale fallback nothing can refresh; stop
		// at it.
		return x.end(x.unmet(x.frozen, nil))
	}
	// Plan boundary.
	if err := ctx.Err(); err != nil {
		return x.end(x.unmet(err, err))
	}
	if err := x.choose(ctx); err != nil {
		return x.end(err)
	}
	var installed []bool
	var ctxErr, hardErr error
	var refreshSp *obs.Span
	if x.plan.Len() > 0 {
		// Fan-out boundary.
		if err := ctx.Err(); err != nil {
			return x.end(x.unmet(err, err))
		}
		x.tr.SetPlanCosts(x.plan.Keys, x.plan.Costs)
		refreshSp = x.root.StartSpan("refresh")
		tRef := time.Now()
		installed, ctxErr, hardErr = x.run.Refresh(obs.ContextWithSpan(ctx, refreshSp), x.req, x.plan.Keys)
		x.m.Refresh.ObserveDuration(time.Since(tRef))
		refreshSp.End()
	}
	return x.end(x.settle(refreshSp, installed, ctxErr, hardErr, x.run.Refold))
}

// job is one scalar request moving through the three steps: what the
// prologue resolved, and what each step leaves for the next.
type job struct {
	cfg   ExecConfig
	ropts refresh.Options
	reg   Registration
	run   Execution
	req   Request
	m     *obs.EngineMetrics
	// tr is the request's trace (nil when untraced) and root its root
	// span; t0 starts the request clock.
	tr   *obs.Trace
	root *obs.Span
	t0   time.Time
	// frozen is step 1's fallback cause; inputs, tableLen and plan are
	// step 2's snapshot and refresh plan.
	frozen   error
	inputs   []aggregate.Input
	tableLen int
	plan     refresh.Plan
	res      Result
}

// prepare is the prologue every executor shares: the mode rewrite, the
// budget and constraint checks, and the resolution of the table and
// column to a Registration and a Request. The deadline is the caller's
// (ExecConfig.withDeadline), so a batch takes one for all its queries.
func (p *Processor) prepare(x *job, q Query, cfg ExecConfig) error {
	if len(q.GroupBy) > 0 {
		return fmt.Errorf("query: GROUP BY query requires ExecuteGroupBy")
	}
	q, ropts := cfg.apply(q, p.opts)
	if cfg.HasBudget && (cfg.Budget < 0 || math.IsNaN(cfg.Budget)) {
		return fmt.Errorf("query: invalid cost budget %g", cfg.Budget)
	}
	reg := p.entry(q.Table)
	if reg == nil {
		return fmt.Errorf("%w: %q", ErrUnknownTable, q.Table)
	}
	col, ok := reg.Schema().Lookup(q.Column)
	if !ok {
		return fmt.Errorf("%w: %q.%q", ErrUnknownColumn, q.Table, q.Column)
	}
	// A positive RelativeWithin is the §8.1 constraint step 1 rewrites to
	// an absolute one; zero leaves Within in force.
	if q.RelativeWithin < 0 || math.IsNaN(q.RelativeWithin) {
		return fmt.Errorf("query: invalid relative precision %g", q.RelativeWithin)
	}
	if q.RelativeWithin == 0 && (q.Within < 0 || math.IsNaN(q.Within)) {
		return fmt.Errorf("query: invalid precision constraint %g", q.Within)
	}
	*x = job{cfg: cfg, ropts: ropts, reg: reg, m: p.metrics,
		req: Request{Query: q, Col: col, NoPred: predicate.IsTrivial(q.Where), Mode: cfg.Mode, Workers: ropts.Parallelism}}
	return nil
}

// budgetDual reports a request that spends a cost budget: the dual of
// CHOOSE_REFRESH, which an imprecise request never runs.
func (x *job) budgetDual() bool { return x.cfg.HasBudget && x.cfg.Mode != ModeImprecise }

// fold is step 1: a fresh Execution's answer from cached bounds, the §8.1
// relative rewrite, and the met-from-cache gate. It reports done when the
// request needs no further step — answered from cache, or failed with a
// zero result — and otherwise starts the slow path's request clock.
func (x *job) fold(ctx context.Context) (done bool, err error) {
	// Observability: on the cache-answered fast path a clock read costs
	// more than the scan it would measure, so request/scan latency and
	// width-ratio telemetry are recorded for a uniform 1-in-SampleRate
	// sample of requests (an unbiased estimate of the same
	// distributions, at the price of one atomic add per request).
	// Requests that go on to pay refreshes, and traced requests, are
	// always timed in full.
	m := x.m
	x.tr = x.cfg.TraceRoot
	if x.tr == nil && x.cfg.Trace {
		x.tr = obs.NewTrace(x.req.Query.String())
	}
	if x.tr != nil {
		x.root = x.tr.Root
	}
	sampled := x.tr != nil || m.Sample()
	if sampled {
		x.t0 = time.Now()
	}
	x.run = x.reg.Begin()
	initial, frozen, err := x.run.Fold(ctx, x.root, x.req)
	if err != nil {
		x.tr.Finish()
		return true, err
	}
	x.res.Trace, x.res.Initial, x.frozen = x.tr, initial, frozen
	var tScan time.Time
	if sampled {
		tScan = time.Now()
		m.Scan.ObserveDuration(tScan.Sub(x.t0))
	}
	q := &x.req.Query
	if q.RelativeWithin > 0 {
		// §8.1: the true answer lies in the initial bound, so the smallest
		// |A| over it gives a conservative absolute constraint the standard
		// algorithm then runs against.
		q.Within, q.RelativeWithin = RelativeR(initial, q.RelativeWithin), 0
	}
	x.res.Answer = initial
	x.res.Met = Satisfies(initial, q.Within)
	// A budgeted request with no finite constraint always proceeds to
	// spend its budget (Satisfies against R = +Inf is vacuous); every
	// other request is done once the constraint holds from cache alone.
	if x.res.Met && !(x.budgetDual() && math.IsInf(q.Within, 1)) {
		if sampled {
			m.Request.ObserveDuration(tScan.Sub(x.t0))
			recordTelemetry(m, &x.res, *q)
		}
		x.tr.Finish()
		return true, nil
	}
	// Slow path from here: every refresh-paying request is timed and
	// counted in the telemetry, whatever its outcome (end). A request that
	// skipped the sampled fast-path clocks starts its clock here, at the
	// plan boundary — undercounting only the ~µs scan against work that
	// runs for orders of magnitude longer.
	if !sampled {
		x.t0 = time.Now()
	}
	return false, nil
}

// choose is step 2: CHOOSE_REFRESH over a snapshot of the classified
// inputs, the (possibly slow) knapsack solve running with no lock held.
// A snapshot cut short returns the cutoff's shaped error, a solver
// failure its own.
func (x *job) choose(ctx context.Context) error {
	inputs, tableLen, err := x.run.Snapshot(ctx, x.root, x.req)
	if err != nil {
		return x.unmet(err, err)
	}
	x.inputs, x.tableLen = inputs, tableLen
	sp := x.root.StartSpan("choose")
	start := time.Now()
	x.plan, err = choosePlan(inputs, x.req.Query, x.req.NoPred, tableLen, x.cfg, x.ropts)
	x.res.ChooseTime = time.Since(start)
	x.m.Choose.ObserveDuration(x.res.ChooseTime)
	if sp != nil {
		sp.SetDetail("%s", x.plan.Describe())
		sp.End()
	}
	return err
}

// settle is step 3 and the outcome every refresh-paying request shares.
// installed reports, aligned with the plan, which refreshes reached the
// relation: those are charged in plan order — a deterministic float
// addition sequence the trace replays, so Trace.TotalCost() matches
// RefreshCost bit-exactly — and recorded on the refresh span sp (nil when
// untraced). Keys dropped mid-flight are neither served nor charged, and
// every refresh paid is charged whatever error ended the round. Unless
// the round failed hard, answer then recomputes the result from the
// (possibly partially) refreshed relation — a cutoff mid-fan-out still
// recomputes, since the refreshes that beat it are paid and installed —
// and the outcome is shaped: a cutoff that left the constraint unmet is
// a typed ErrPrecisionUnmet, a budget that could not buy a finite
// constraint a typed ErrBudgetExhausted.
func (x *job) settle(sp *obs.Span, installed []bool, ctxErr, hardErr error, answer func(Request) interval.Interval) error {
	var paid []int64
	if sp != nil {
		paid = make([]int64, 0, len(installed))
	}
	for j, ok := range installed {
		if !ok {
			continue
		}
		x.res.Refreshed++
		x.res.RefreshCost += x.plan.Costs[j]
		if sp != nil {
			paid = append(paid, x.plan.Keys[j])
		}
	}
	sp.RecordKeys(paid)
	if hardErr != nil {
		return hardErr
	}
	if x.plan.Len() > 0 {
		foldSp := x.root.StartSpan("fold")
		tFold := time.Now()
		x.res.Answer = answer(x.req)
		x.m.Fold.ObserveDuration(time.Since(tFold))
		if foldSp != nil {
			foldSp.SetDetail("width=%g", x.res.Answer.Width())
			foldSp.End()
		}
		x.res.Met = Satisfies(x.res.Answer, x.req.Query.Within)
	}
	if ctxErr != nil {
		return x.unmet(ctxErr, nil)
	}
	if x.budgetDual() && !x.res.Met && !math.IsInf(x.req.Query.Within, 1) {
		return ErrBudgetExhausted{Achieved: x.res.Answer, Spent: x.res.RefreshCost, Budget: x.cfg.Budget}
	}
	return nil
}

// unmet shapes the error of a request stopped by cause — a context
// cutoff, or step 1's frozen fallback — before its constraint held: a
// typed ErrPrecisionUnmet carrying the best guaranteed interval achieved
// and the cost paid so far. A request whose constraint holds anyway
// reports ifMet instead: the bare context error for a cutoff before the
// refresh round (so callers never mistake a satisfied answer for a
// failed one), nothing after it or for a frozen fallback.
func (x *job) unmet(cause, ifMet error) error {
	if x.res.Met {
		return ifMet
	}
	return ErrPrecisionUnmet{Achieved: x.res.Answer, Spent: x.res.RefreshCost, Cause: cause}
}

// end closes a request that ran past step 1: every such request is timed
// and counted in the precision–cost telemetry, whatever its outcome.
func (x *job) end(err error) (Result, error) {
	x.m.Request.ObserveDuration(time.Since(x.t0))
	recordTelemetry(x.m, &x.res, x.req.Query)
	x.tr.Finish()
	return x.res, err
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
