// Package trapp is a Go implementation of TRAPP (Tradeoff in Replication
// Precision and Performance), the replication system of Olston and Widom,
// "Offering a Precision-Performance Tradeoff for Aggregation Queries over
// Replicated Data" (VLDB 2000).
//
// TRAPP caches store guaranteed bounds [L, H] on remote master values
// instead of stale exact copies. Aggregation queries carry a quantitative
// precision constraint R, and the system combines cached bounds with a
// minimum-cost set of refreshes from remote sources to return an interval
// answer that is guaranteed to contain the precise answer and is no wider
// than R — giving each query fine-grained control over the tradeoff
// between precision and performance.
//
// # Quick start
//
//	sys := trapp.NewSystem(trapp.Options{})
//	src, _ := sys.AddSource("sensors", nil)
//	cache, _ := sys.AddCache("monitor", schema)
//	src.AddObject(1, []float64{42}, 3 /* refresh cost */, trapp.NewAdaptiveWidth(1))
//	cache.Subscribe(src, 1, []float64{1})
//	sys.Mount("readings", cache)
//
//	q, _ := trapp.ParseQuery("SELECT AVG(value) WITHIN 5 FROM readings", sys)
//	res, _ := sys.ExecuteCtx(ctx, q)
//	fmt.Println(res.Answer) // e.g. [40.5, 45.5], guaranteed to contain the true AVG
//
// ExecuteCtx honors cancellation and deadlines at every phase boundary
// and takes per-request options: WithDeadline, WithCostBudget (the
// cost-bounded dual — "the narrowest answer for ≤ B units of refresh
// cost"), WithSolver, and WithMode (the precise/imprecise extremes as
// options over one path). Failures are typed: ErrUnknownTable,
// ErrPrecisionUnmet{Achieved, Spent}, ErrBudgetExhausted, ErrClosed —
// all usable with errors.Is / errors.As. ExecuteBatch executes many
// queries with one deduped refresh round per table, paying for shared
// tuples once.
//
// A System is safe for concurrent use: any number of goroutines may
// Execute queries while sources apply updates. Cached relations are
// sharded with per-shard locks: scans share shard read locks (a source
// push blocks only scans of the shard owning the pushed key), answers are
// folded in streaming passes with no per-query materialization, and the
// refresh phase is fanned out per source as parallel batched requests.
//
// The package re-exports the user-facing API of the internal packages; see
// the examples directory for complete programs and DESIGN.md for the
// architecture and the concurrency model.
package trapp

import (
	"time"

	"trapp/internal/aggregate"
	"trapp/internal/boundfn"
	"trapp/internal/cache"
	"trapp/internal/continuous"
	"trapp/internal/interval"
	"trapp/internal/netsim"
	"trapp/internal/obs"
	"trapp/internal/predicate"
	"trapp/internal/query"
	"trapp/internal/refresh"
	"trapp/internal/relation"
	"trapp/internal/server"
	"trapp/internal/source"
	"trapp/internal/sql"
	itrapp "trapp/internal/trapp"
)

// Interval is a closed interval [Lo, Hi]; bounded answers and cached
// bounds are Intervals.
type Interval = interval.Interval

// NewInterval returns the interval [lo, hi].
func NewInterval(lo, hi float64) Interval { return interval.New(lo, hi) }

// Point returns the degenerate interval [v, v].
func Point(v float64) Interval { return interval.Point(v) }

// Schema describes a cached table's columns.
type Schema = relation.Schema

// Column describes one attribute.
type Column = relation.Column

// Exact marks attributes whose values the cache knows precisely.
const Exact = relation.Exact

// Bounded marks replicated attributes cached as guaranteed bounds.
const Bounded = relation.Bounded

// NewSchema builds a schema.
func NewSchema(cols ...Column) *Schema { return relation.NewSchema(cols...) }

// Table is one shard of a Store: its tuples in canonical order.
type Table = relation.Table

// Tuple is one cached row.
type Tuple = relation.Tuple

// Store is a sharded cached relation with per-shard locks — what a
// Processor registers (Processor.RegisterStore).
type Store = relation.Store

// NewStore returns an empty store with the given schema and the default
// shard count. Answers and refresh plans do not depend on the shard count.
func NewStore(s *Schema) *Store { return relation.NewStore(s, 0) }

// Func identifies an aggregation function.
type Func = aggregate.Func

// Aggregation functions supported by TRAPP/AG.
const (
	Min   = aggregate.Min
	Max   = aggregate.Max
	Sum   = aggregate.Sum
	Count = aggregate.Count
	Avg   = aggregate.Avg
)

// Expr is a selection predicate over bounded tuples.
type Expr = predicate.Expr

// PredColumn references a column in a predicate.
func PredColumn(col int, name string) predicate.Operand { return predicate.Column(col, name) }

// PredConst embeds a constant in a predicate.
func PredConst(v float64) predicate.Operand { return predicate.Const(v) }

// Comparison operators.
const (
	Lt = predicate.Lt
	Le = predicate.Le
	Gt = predicate.Gt
	Ge = predicate.Ge
	Eq = predicate.Eq
	Ne = predicate.Ne
)

// NewCmp builds a comparison predicate.
func NewCmp(left predicate.Operand, op predicate.Op, right predicate.Operand) Expr {
	return predicate.NewCmp(left, op, right)
}

// NewAnd builds a conjunction.
func NewAnd(l, r Expr) Expr { return predicate.NewAnd(l, r) }

// NewOr builds a disjunction.
func NewOr(l, r Expr) Expr { return predicate.NewOr(l, r) }

// NewNot builds a negation.
func NewNot(e Expr) Expr { return predicate.NewNot(e) }

// Query is a TRAPP/AG aggregation query with a precision constraint.
type Query = query.Query

// Result reports a bounded query execution.
type Result = query.Result

// NewQuery returns an unconstrained query (R = +Inf).
func NewQuery(table string, agg Func, column string) Query {
	return query.NewQuery(table, agg, column)
}

// ExecOption customizes one ExecuteCtx / ExecuteBatch / SubscribeCtx
// request: deadline, cost budget, solver, mode.
type ExecOption = query.ExecOption

// Mode positions a request on the precision-performance dial of
// Figure 1(a); see WithMode.
type Mode = query.Mode

// Request modes.
const (
	// ModeBounded honors the query's own precision constraint (default).
	ModeBounded = query.ModeBounded
	// ModePrecise forces R = 0: refresh until the answer is exact.
	ModePrecise = query.ModePrecise
	// ModeImprecise forces R = +Inf: answer from cached bounds only.
	ModeImprecise = query.ModeImprecise
)

// WithDeadline bounds a request's wall-clock time; past it, the request
// returns the best interval achieved so far (with ErrPrecisionUnmet if
// the constraint is still unmet) instead of blocking.
func WithDeadline(t time.Time) ExecOption { return query.WithDeadline(t) }

// WithCostBudget switches the request to the cost-bounded dual of
// CHOOSE_REFRESH: spend at most b units of refresh cost, maximizing the
// guaranteed width reduction — "the narrowest answer you can give me
// for ≤ b".
func WithCostBudget(b float64) ExecOption { return query.WithCostBudget(b) }

// WithSolver overrides the knapsack solver for one request.
func WithSolver(s Solver) ExecOption { return query.WithSolver(s) }

// WithMode positions one request on the precision-performance dial,
// from the fresh-data extreme (ModePrecise) to the stale-data one
// (ModeImprecise).
func WithMode(m Mode) ExecOption { return query.WithMode(m) }

// WithTrace records a span tree through the request's phases (cache
// sync, scan, CHOOSE_REFRESH, per-source refresh fan-out with wire wait
// vs commit, final fold), returned on Result.Trace. Each span carries
// wall time and the refresh cost it charged; Trace.TotalCost() equals
// Result.RefreshCost bit-exactly. The SQL dialect exposes the same
// trace as EXPLAIN ANALYZE SELECT ... over the HTTP server.
func WithTrace() ExecOption { return query.WithTrace() }

// Trace is the per-request span tree recorded by WithTrace.
type Trace = obs.Trace

// TraceSnapshot is the immutable, wire-ready form of a Trace; its
// String method renders the EXPLAIN ANALYZE tree.
type TraceSnapshot = obs.TraceSnapshot

// SpanSnapshot is one node of a TraceSnapshot's span tree.
type SpanSnapshot = obs.SpanSnapshot

// EngineMetrics is the always-on histogram set of the engine: per-phase
// request latency, refresh batch sizes, achieved-width and
// cost-per-precision telemetry, continuous-engine repair latency.
// Access it with System.Metrics().
type EngineMetrics = obs.EngineMetrics

// HistogramSnapshot is a point-in-time copy of one lock-free histogram.
type HistogramSnapshot = obs.HistogramSnapshot

// WidthTelemetry summarizes one source's adaptive-width controller
// state; see System.WidthTelemetry.
type WidthTelemetry = source.WidthTelemetry

// Typed errors of the request path, usable with errors.Is / errors.As.
var (
	// ErrClosed is returned by ExecuteCtx/ExecuteBatch/Subscribe after
	// System.Close.
	ErrClosed = query.ErrClosed
	// ErrUnknownTable is returned for queries against unmounted tables.
	ErrUnknownTable = query.ErrUnknownTable
	// ErrUnknownColumn is returned for unknown aggregation columns.
	ErrUnknownColumn = query.ErrUnknownColumn
	// ErrNoOracle is returned when a query needs refreshes but the table
	// has no refresh oracle.
	ErrNoOracle = query.ErrNoOracle
)

// ErrPrecisionUnmet reports a request cut short by cancellation or
// deadline expiry before its precision constraint was reached; it
// carries the best achieved interval and the cost spent, and unwraps to
// the context error.
type ErrPrecisionUnmet = query.ErrPrecisionUnmet

// ErrBudgetExhausted reports a cost-budgeted request that spent its
// budget without reaching the query's finite precision constraint.
type ErrBudgetExhausted = query.ErrBudgetExhausted

// SQLError is a positioned SQL parse error; every ParseQuery /
// ParseQueries failure is one (use errors.As to recover the position).
type SQLError = sql.Error

// Options tunes CHOOSE_REFRESH (knapsack solver and ε) and execution
// parallelism (Parallelism: workers for large aggregation scans).
type Options = refresh.Options

// Solver selects a knapsack algorithm.
type Solver = refresh.Solver

// Knapsack solver choices.
const (
	Auto                = refresh.Auto
	SolverExactDP       = refresh.SolverExactDP
	SolverApprox        = refresh.SolverApprox
	SolverGreedyUniform = refresh.SolverGreedyUniform
	SolverGreedyDensity = refresh.SolverGreedyDensity
)

// System is a complete simulated TRAPP deployment: sources, caches, a
// shared clock, traffic accounting, and a query processor.
type System = itrapp.System

// NewSystem creates an empty system.
func NewSystem(opts Options) *System { return itrapp.NewSystem(opts) }

// Source owns master values and runs the refresh monitor.
type Source = source.Source

// Cache stores bounds and serves bounded queries.
type Cache = cache.Cache

// WALOptions configures a durable cache's write-ahead log (Commit
// durability mode and the auto-checkpoint byte threshold).
type WALOptions = relation.WALOptions

// WAL durability modes for WALOptions.Sync.
const (
	// SyncGroup makes every committed mutation durable via batched fsync.
	SyncGroup = relation.SyncGroup
	// SyncNever skips fsync on commit; a crash loses the OS write-back
	// window but recovery still replays the valid prefix exactly.
	SyncNever = relation.SyncNever
)

// Recovery reports what a durable cache reconstructed at open: the
// snapshot generation, records replayed, torn tails tolerated, and how
// many tuples were re-widened to the conservative bound floor.
type Recovery = cache.Recovery

// Open assembles a durable single-table system over a data directory:
// every cache mutation is logged through a per-shard group-committed
// WAL with periodic compacted snapshots, and reopening the directory
// recovers the cached state — values bit-identical, bounds conservatively
// collapsed to [-Inf, +Inf] until their sources re-promise them (add the
// sources, then call System.Rehandshake). A crash can therefore never
// manufacture precision. Close with System.CloseDurable.
func Open(dir, table string, schema *Schema, opts Options, wopts WALOptions) (*System, *Cache, Recovery, error) {
	return itrapp.Open(dir, table, schema, opts, wopts)
}

// Stats aggregates refresh traffic counters.
type Stats = netsim.Stats

// WidthPolicy chooses bound width parameters (Appendix A).
type WidthPolicy = boundfn.WidthPolicy

// StaticWidth is a fixed bound width policy.
type StaticWidth = boundfn.StaticWidth

// AdaptiveWidth widens bounds on value-initiated refreshes and narrows
// them on query-initiated refreshes.
type AdaptiveWidth = boundfn.AdaptiveWidth

// NewAdaptiveWidth returns an adaptive width policy starting at w.
func NewAdaptiveWidth(w float64) *AdaptiveWidth { return boundfn.NewAdaptiveWidth(w) }

// Bound shapes for time-varying bounds.
type (
	// SqrtShape grows bounds like √(T−Tr), the paper's default.
	SqrtShape = boundfn.SqrtShape
	// LinearShape grows bounds linearly.
	LinearShape = boundfn.LinearShape
	// ConstantShape keeps a fixed width after refresh.
	ConstantShape = boundfn.ConstantShape
)

// Monitor is a continuous bounded query whose precision constraint is
// re-established on every Poll, paying for refreshes only when cached
// bounds have grown past the constraint (§8.1). It is a poll-style
// adapter over the push-based subscription engine; new code should use
// System.Subscribe.
type Monitor = itrapp.Monitor

// Subscription is a push-based standing query registered with
// System.Subscribe: the engine maintains its bounded answer
// incrementally and delivers Updates when the answer moves or the
// precision constraint's status changes.
type Subscription = continuous.Subscription

// Update is one pushed notification from a Subscription.
type Update = continuous.Update

// SubscriptionStats is a snapshot of one subscription's accounting.
type SubscriptionStats = continuous.Stats

// SubscriptionMetrics snapshots the continuous engine's counters
// (maintenance rounds, notifications, shared refresh traffic).
type SubscriptionMetrics = continuous.Metrics

// GroupRow is one group's result in a GROUP BY query (§8.1 extension).
type GroupRow = query.GroupRow

// GroupAnswer is one group's maintained answer in a GROUP BY
// subscription.
type GroupAnswer = continuous.GroupAnswer

// Processor executes bounded queries over directly registered stores,
// without the source/cache architecture — useful for embedding TRAPP/AG
// query processing over an existing store, and for reproducing the
// paper's worked examples over fixed cached bounds.
type Processor = query.Processor

// Oracle supplies exact master values during query-initiated refreshes.
type Oracle = query.Oracle

// NewProcessor returns an empty query processor.
func NewProcessor(opts Options) *Processor { return query.NewProcessor(opts) }

// ParseQueryWith compiles a query against an explicit table→schema
// catalog instead of a System's mounted tables.
func ParseQueryWith(src string, schemas map[string]*Schema) (Query, error) {
	return sql.Parse(src, sql.MapCatalog(schemas))
}

// ParseQuery compiles the TRAPP/AG SQL dialect
// (SELECT AGG(col) WITHIN R FROM table WHERE pred) against the tables
// mounted on the system. Statements selecting several aggregates are
// rejected; use ParseQueries.
func ParseQuery(src string, sys *System) (Query, error) {
	return sql.Parse(src, sys.Catalog())
}

// Statement is one parsed SQL statement: the queries of its SELECT
// list plus whether it carried an EXPLAIN ANALYZE prefix.
type Statement = sql.Statement

// ParseStatement compiles one statement against the tables mounted on
// the system, accepting an optional EXPLAIN ANALYZE prefix. Execute an
// explained statement's queries with WithTrace and render or serialize
// Result.Trace; plain statements behave exactly like ParseQueries.
func ParseStatement(src string, sys *System) (Statement, error) {
	return sql.ParseStatement(src, sys.Catalog())
}

// ParseQueries compiles a statement that may select several aggregates
// in one SELECT list (SELECT MIN(v), MAX(v) WITHIN 5 FROM t), producing
// one query per select item sharing the constraint, table, predicate
// and grouping. Execute the result with System.ExecuteBatch, which
// shares one classification scan per shape and one deduped refresh
// round across the statement.
func ParseQueries(src string, sys *System) ([]Query, error) {
	return sql.ParseAll(src, sys.Catalog())
}

// ParseQueriesWith is ParseQueries against an explicit table→schema
// catalog.
func ParseQueriesWith(src string, schemas map[string]*Schema) ([]Query, error) {
	return sql.ParseAll(src, sql.MapCatalog(schemas))
}

// Server is the HTTP/JSON service layer over a System: POST /query
// (single statements and ';'-separated batches with per-request
// deadline/budget/mode/solver), GET /subscribe (server-sent-events
// streams backed by SubscribeCtx), /metrics and /healthz, with
// admission control and graceful drain. cmd/trappserver is the
// standalone binary; embed a Server to serve an existing System.
// DESIGN.md §10 documents the wire protocol.
type Server = server.Server

// ServerConfig tunes a Server's admission control (max in-flight
// requests, max subscribers, per-client refresh-cost budget).
type ServerConfig = server.Config

// NewServer wraps a System with the HTTP service layer. The server does
// not own the system: Shutdown drains HTTP work; close the system
// separately.
func NewServer(sys *System, cfg ServerConfig) *Server { return server.New(sys, cfg) }
