package query

// Per-request execution options. ExecuteCtx(ctx, q, opts...) is the
// context-first entry point of the request path; the variadic functional
// options carry everything that is per-request rather than per-query
// (the Query value describes *what* is asked; ExecOptions describe *how
// hard the system may work answering it*):
//
//   - WithDeadline: a per-request deadline, honored at the phase
//     boundaries of the three-step execution (scan → plan → refresh
//     fan-out → recompute).
//   - WithCostBudget: the cost-bounded dual of CHOOSE_REFRESH — instead
//     of "meet R at minimum cost", "get as narrow as possible spending
//     at most B".
//   - WithSolver: a per-request knapsack solver override.
//   - WithMode: the fresh-data and stale-data extremes of Figure 1(a)
//     as options over the one execution path.

import (
	"context"
	"math"
	"time"

	"trapp/internal/obs"
	"trapp/internal/refresh"
)

// Mode selects where on the precision-performance dial of Figure 1(a) a
// request executes.
type Mode int8

const (
	// ModeBounded is the default: honor the query's own precision
	// constraint, refreshing just enough to guarantee it.
	ModeBounded Mode = iota
	// ModePrecise forces R = 0 — the fresh-data extreme: refresh until
	// the answer is exact.
	ModePrecise
	// ModeImprecise forces R = +Inf — the stale-data extreme: answer
	// from cached bounds only, never refresh. It overrides a cost
	// budget (an imprecise request spends nothing by definition).
	ModeImprecise
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModePrecise:
		return "precise"
	case ModeImprecise:
		return "imprecise"
	default:
		return "bounded"
	}
}

// ExecConfig is the resolved per-request configuration built from
// ExecOptions. The zero value is the default request: bounded mode, no
// deadline, no budget, the processor's configured solver.
type ExecConfig struct {
	// Deadline is the request deadline; zero means none. It composes
	// with the caller's context (the effective deadline is whichever is
	// earlier).
	Deadline time.Time
	// Budget is the refresh-cost ceiling; meaningful only when
	// HasBudget is set.
	Budget    float64
	HasBudget bool
	// Solver overrides the processor's knapsack solver for this request
	// when HasSolver is set.
	Solver    refresh.Solver
	HasSolver bool
	// Mode positions the request on the precision-performance dial.
	Mode Mode
	// Trace enables per-request span tracing; the span tree is returned
	// on Result.Trace.
	Trace bool
	// TraceRoot, when set (by the System façade), is the pre-created
	// trace the execution should record into — it lets callers wrap
	// phases that happen before the processor runs (the cache sync) in
	// the same tree. Implies Trace.
	TraceRoot *obs.Trace
}

// ExecOption customizes one request.
type ExecOption func(*ExecConfig)

// BuildExecConfig resolves a set of options. Later options win.
func BuildExecConfig(opts ...ExecOption) ExecConfig {
	var cfg ExecConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithDeadline bounds the request's wall-clock time. At each phase
// boundary (and between refresh batches) an expired deadline stops the
// execution; the request returns the best interval achieved so far and,
// if the constraint is still unmet, a typed ErrPrecisionUnmet.
func WithDeadline(t time.Time) ExecOption {
	return func(c *ExecConfig) { c.Deadline = t }
}

// WithCostBudget switches the request to the cost-bounded dual of
// CHOOSE_REFRESH: spend at most b units of refresh cost, maximizing the
// guaranteed width reduction. With a finite precision constraint R the
// request first tries the classic minimum-cost plan for R and uses it
// when it fits the budget; otherwise (and always when R = +Inf) it
// solves the inverted knapsack. The returned Result never reports
// RefreshCost > b; if a finite R could not be met within b the request
// returns the narrowest achieved answer with a typed
// ErrBudgetExhausted.
func WithCostBudget(b float64) ExecOption {
	return func(c *ExecConfig) { c.Budget = b; c.HasBudget = true }
}

// WithSolver overrides the knapsack solver for this request only.
func WithSolver(s refresh.Solver) ExecOption {
	return func(c *ExecConfig) { c.Solver = s; c.HasSolver = true }
}

// WithMode positions the request on the precision-performance dial.
func WithMode(m Mode) ExecOption {
	return func(c *ExecConfig) { c.Mode = m }
}

// WithTrace records a span tree through the request's phases — scan,
// CHOOSE_REFRESH, the per-source refresh fan-out (wire wait vs commit),
// and the final fold — each span carrying wall time and the refresh
// cost it charged. The trace is returned on Result.Trace; its
// TotalCost() equals the result's RefreshCost bit-exactly. Tracing a
// request costs a handful of small allocations and clock reads; leave
// it off on hot paths.
func WithTrace() ExecOption {
	return func(c *ExecConfig) { c.Trace = true }
}

// apply rewrites a query for the configured mode and returns the
// refresh options this request should solve with.
func (c ExecConfig) apply(q Query, base refresh.Options) (Query, refresh.Options) {
	switch c.Mode {
	case ModePrecise:
		q.Within = 0
		q.RelativeWithin = 0
	case ModeImprecise:
		q.Within = math.Inf(1)
		q.RelativeWithin = 0
	}
	if c.HasSolver {
		base.Solver = c.Solver
	}
	return q, base
}

// withDeadline bounds ctx by the request deadline, if any.
func (c ExecConfig) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.Deadline.IsZero() {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, c.Deadline)
}
