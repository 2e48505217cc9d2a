// Package server is the TRAPP network service layer: an HTTP/JSON front
// end over the embedded engine's request API, exposing the SQL dialect
// end to end. POST /query executes single statements and multi-statement
// batches (ParseQueries → ExecuteBatch) under per-request options
// (deadline, cost budget, mode, solver); GET /subscribe streams a
// standing query's maintained answer as server-sent events backed by
// SubscribeCtx; /metrics and /healthz serve observability. Admission
// control caps in-flight requests and meters each client against a
// cumulative refresh-cost budget; Shutdown drains gracefully, closing
// every subscription without leaking watcher goroutines.
//
// Every engine answer and typed error crosses the wire bit-identically:
// intervals round-trip through JSON exactly (including ±Inf), and the
// typed error taxonomy of internal/query maps to structured error codes
// a client can decode back into the same errors.As-able values —
// DecodeError(EncodeError(err)) preserves kind and fields. DESIGN.md §10
// documents the endpoint map, error-code table and drain invariants.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"trapp/internal/interval"
	"trapp/internal/obs"
	"trapp/internal/query"
	"trapp/internal/refresh"
	"trapp/internal/sql"
)

// Float is a float64 that survives JSON: finite values marshal as
// numbers, while ±Inf and NaN — which encoding/json rejects — marshal as
// the strings "+Inf", "-Inf", "NaN". Unbounded answers (an empty table's
// MIN is [+Inf, -Inf]) would otherwise be unencodable.
type Float float64

// MarshalJSON encodes finite values as numbers, non-finite as strings.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON accepts both encodings.
func (f *Float) UnmarshalJSON(b []byte) error {
	s := string(b)
	switch s {
	case `"+Inf"`, `"Inf"`:
		*f = Float(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = Float(math.Inf(-1))
		return nil
	case `"NaN"`:
		*f = Float(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("server: invalid float %s", s)
	}
	*f = Float(v)
	return nil
}

// WireInterval is a closed interval on the wire.
type WireInterval struct {
	Lo Float `json:"lo"`
	Hi Float `json:"hi"`
}

// ToWire converts an engine interval.
func ToWire(iv interval.Interval) WireInterval {
	return WireInterval{Lo: Float(iv.Lo), Hi: Float(iv.Hi)}
}

// Interval converts back to the engine representation.
func (w WireInterval) Interval() interval.Interval {
	return interval.Interval{Lo: float64(w.Lo), Hi: float64(w.Hi)}
}

// QueryRequest is the POST /query body. SQL may hold one statement or
// several separated by ';'; all resulting queries execute as one
// ExecuteBatch when there is more than one, unless the request is traced
// or carries a budget (see Trace and Budget).
type QueryRequest struct {
	// SQL is the statement text in the TRAPP/AG dialect.
	SQL string `json:"sql"`
	// DeadlineMillis, when non-zero, bounds the request's wall-clock
	// time: the server attaches WithDeadline(now + DeadlineMillis). A
	// negative value arrives already expired — the deterministic
	// best-effort path (the engine answers from cache with
	// precision_unmet), which the remote bench's parity verifier relies
	// on.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// Budget, when set, attaches WithCostBudget — the cost-bounded dual.
	// The server additionally clamps it against the client's remaining
	// admission budget when one is configured. It covers the request as a
	// whole: the statements of a multi-statement request execute one
	// after another, each under what its predecessors left.
	Budget *Float `json:"budget,omitempty"`
	// Mode is "", "bounded", "precise" or "imprecise" (WithMode).
	Mode string `json:"mode,omitempty"`
	// Solver optionally overrides the knapsack solver for this request:
	// "auto", "exact-dp", "approx", "greedy-uniform", "greedy-density".
	Solver string `json:"solver,omitempty"`
	// Trace requests a per-statement execution trace: each result carries
	// a span tree (scan → choose → refresh fan-out per source → fold)
	// with wall times and exact refresh-cost attribution. Equivalent to
	// prefixing every statement with EXPLAIN ANALYZE. Traced statements
	// execute individually rather than as a shared batch, so a
	// multi-statement request loses cross-statement refresh sharing.
	Trace bool `json:"trace,omitempty"`
}

// WireResult is one executed statement's result.
type WireResult struct {
	// Answer and Initial are the final and pre-refresh bounded answers.
	Answer  WireInterval `json:"answer"`
	Initial WireInterval `json:"initial"`
	// Refreshed and RefreshCost total the query-initiated refreshes paid.
	Refreshed   int   `json:"refreshed"`
	RefreshCost Float `json:"refresh_cost"`
	// Met reports whether the precision constraint holds.
	Met bool `json:"met"`
	// ChooseTimeNS is the time spent inside CHOOSE_REFRESH (wall-clock
	// noise: excluded from parity comparisons).
	ChooseTimeNS int64 `json:"choose_time_ns"`
	// Error carries this statement's typed outcome (precision_unmet,
	// budget_exhausted); the result fields alongside it are still sound.
	Error *WireError `json:"error,omitempty"`
	// Trace is the execution trace, present when the statement ran under
	// EXPLAIN ANALYZE or the request set Trace. Its TotalCost equals
	// RefreshCost bit-exactly (wall times are, of course, wall-clock
	// noise).
	Trace *obs.TraceSnapshot `json:"trace,omitempty"`
}

// ToWireResult converts an engine result.
func ToWireResult(res query.Result, err error) WireResult {
	wr := WireResult{
		Answer:       ToWire(res.Answer),
		Initial:      ToWire(res.Initial),
		Refreshed:    res.Refreshed,
		RefreshCost:  Float(res.RefreshCost),
		Met:          res.Met,
		ChooseTimeNS: int64(res.ChooseTime),
		Error:        EncodeError(err),
	}
	if res.Trace != nil {
		snap := res.Trace.Snapshot()
		wr.Trace = &snap
	}
	return wr
}

// Result converts back to the engine representation.
func (w WireResult) Result() query.Result {
	return query.Result{
		Answer:      w.Answer.Interval(),
		Initial:     w.Initial.Interval(),
		Refreshed:   w.Refreshed,
		RefreshCost: float64(w.RefreshCost),
		Met:         w.Met,
		ChooseTime:  time.Duration(w.ChooseTimeNS),
	}
}

// QueryResponse is the POST /query reply. Either Error is set (the
// request failed as a whole: parse error, unknown table, over capacity,
// draining) or Results aligns statement-for-statement with the request,
// each carrying its own outcome.
type QueryResponse struct {
	Results []WireResult `json:"results,omitempty"`
	Error   *WireError   `json:"error,omitempty"`
	// BudgetRemaining reports the client's remaining admission budget
	// after this request, when per-client budgets are configured.
	BudgetRemaining *Float `json:"budget_remaining,omitempty"`
}

// WireUpdate is one server-sent subscription notification, mirroring
// continuous.Update.
type WireUpdate struct {
	Seq    int64        `json:"seq"`
	At     int64        `json:"at"`
	Answer WireInterval `json:"answer"`
	Met    bool         `json:"met"`
	Groups []WireGroup  `json:"groups,omitempty"`
}

// WireGroup is one group's answer in a GROUP BY subscription update.
type WireGroup struct {
	Key    []Float      `json:"key"`
	Answer WireInterval `json:"answer"`
	Met    bool         `json:"met"`
}

// Error codes of the service layer. Each maps to one HTTP status
// (HTTPStatus) and, for engine outcomes, round-trips through
// EncodeError/DecodeError to the typed error it came from.
const (
	// CodeParse is a positioned SQL parse error (*sql.Error).
	CodeParse = "parse_error"
	// CodeUnknownTable / CodeUnknownColumn are the catalog sentinels.
	CodeUnknownTable  = "unknown_table"
	CodeUnknownColumn = "unknown_column"
	// CodeNoOracle: the query needs refreshes but the table has none.
	CodeNoOracle = "no_oracle"
	// CodeUnsupported: the statement parses but the service cannot run
	// it (GROUP BY on /query, a multi-statement /subscribe).
	CodeUnsupported = "unsupported"
	// CodeInvalid: malformed request (bad JSON, empty SQL, bad option).
	CodeInvalid = "invalid_request"
	// CodePrecisionUnmet / CodeBudgetExhausted are the typed partial
	// outcomes; responses carrying them still hold a sound answer.
	CodePrecisionUnmet  = "precision_unmet"
	CodeBudgetExhausted = "budget_exhausted"
	// CodeDeadline / CodeCanceled are bare context errors (a request cut
	// off before any answer existed).
	CodeDeadline = "deadline_exceeded"
	CodeCanceled = "canceled"
	// CodeOverCapacity: admission control rejected the request.
	CodeOverCapacity = "over_capacity"
	// CodeDraining / CodeClosed: the server is shutting down / the
	// engine is closed.
	CodeDraining = "draining"
	CodeClosed   = "closed"
	// CodeInternal is the catch-all.
	CodeInternal = "internal"
)

// WireError is a structured error on the wire.
type WireError struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is the engine error's text.
	Message string `json:"message"`
	// Pos is the byte offset of a parse error into the request SQL.
	Pos *int `json:"pos,omitempty"`
	// Achieved, Spent and Budget carry the typed fields of
	// precision_unmet and budget_exhausted outcomes.
	Achieved *WireInterval `json:"achieved,omitempty"`
	Spent    *Float        `json:"spent,omitempty"`
	Budget   *Float        `json:"budget,omitempty"`
	// Cause distinguishes what cut a precision_unmet short:
	// "deadline_exceeded" or "canceled".
	Cause string `json:"cause,omitempty"`
}

// Error formats the wire error, so a *WireError can travel as an error.
func (e *WireError) Error() string {
	return fmt.Sprintf("server: %s: %s", e.Code, e.Message)
}

// EncodeError maps an engine error to its wire form; nil maps to nil.
func EncodeError(err error) *WireError {
	if err == nil {
		return nil
	}
	we := &WireError{Code: CodeInternal, Message: err.Error()}
	var (
		se     *sql.Error
		unmet  query.ErrPrecisionUnmet
		budget query.ErrBudgetExhausted
	)
	switch {
	case errors.As(err, &se):
		we.Code = CodeParse
		pos := se.Pos
		we.Pos = &pos
		we.Message = se.Msg
	case errors.As(err, &unmet):
		we.Code = CodePrecisionUnmet
		ach, spent := ToWire(unmet.Achieved), Float(unmet.Spent)
		we.Achieved, we.Spent = &ach, &spent
		we.Cause = CodeCanceled
		if errors.Is(unmet.Cause, context.DeadlineExceeded) {
			we.Cause = CodeDeadline
		}
	case errors.As(err, &budget):
		we.Code = CodeBudgetExhausted
		ach, spent, b := ToWire(budget.Achieved), Float(budget.Spent), Float(budget.Budget)
		we.Achieved, we.Spent, we.Budget = &ach, &spent, &b
	case errors.Is(err, query.ErrClosed):
		we.Code = CodeClosed
	case errors.Is(err, query.ErrUnknownTable):
		we.Code = CodeUnknownTable
	case errors.Is(err, query.ErrUnknownColumn):
		we.Code = CodeUnknownColumn
	case errors.Is(err, query.ErrNoOracle):
		we.Code = CodeNoOracle
	case errors.Is(err, context.DeadlineExceeded):
		we.Code = CodeDeadline
	case errors.Is(err, context.Canceled):
		we.Code = CodeCanceled
	}
	return we
}

// DecodeError reconstructs the typed engine error from its wire form,
// so remote callers can use errors.Is / errors.As exactly as embedded
// ones do; nil maps to nil. Codes without a typed engine counterpart
// decode to the *WireError itself.
func DecodeError(we *WireError) error {
	if we == nil {
		return nil
	}
	switch we.Code {
	case CodeParse:
		pos := 0
		if we.Pos != nil {
			pos = *we.Pos
		}
		return &sql.Error{Pos: pos, Msg: we.Message}
	case CodePrecisionUnmet:
		e := query.ErrPrecisionUnmet{Cause: context.Canceled}
		if we.Cause == CodeDeadline {
			e.Cause = context.DeadlineExceeded
		}
		if we.Achieved != nil {
			e.Achieved = we.Achieved.Interval()
		}
		if we.Spent != nil {
			e.Spent = float64(*we.Spent)
		}
		return e
	case CodeBudgetExhausted:
		var e query.ErrBudgetExhausted
		if we.Achieved != nil {
			e.Achieved = we.Achieved.Interval()
		}
		if we.Spent != nil {
			e.Spent = float64(*we.Spent)
		}
		if we.Budget != nil {
			e.Budget = float64(*we.Budget)
		}
		return e
	case CodeClosed:
		return query.ErrClosed
	case CodeUnknownTable:
		return fmt.Errorf("%w: %s", query.ErrUnknownTable, we.Message)
	case CodeUnknownColumn:
		return fmt.Errorf("%w: %s", query.ErrUnknownColumn, we.Message)
	case CodeNoOracle:
		return fmt.Errorf("%w: %s", query.ErrNoOracle, we.Message)
	case CodeDeadline:
		return context.DeadlineExceeded
	case CodeCanceled:
		return context.Canceled
	}
	return we
}

// HTTPStatus maps an error code to its HTTP status. Partial outcomes
// (precision_unmet, budget_exhausted) are 206: the response body still
// carries a sound best-effort answer.
func HTTPStatus(code string) int {
	switch code {
	case "":
		return 200
	case CodePrecisionUnmet, CodeBudgetExhausted:
		return 206
	case CodeParse, CodeUnsupported, CodeInvalid:
		return 400
	case CodeUnknownTable, CodeUnknownColumn:
		return 404
	case CodeNoOracle:
		return 422
	case CodeOverCapacity:
		return 429
	case CodeCanceled:
		return 499 // client closed request (nginx convention)
	case CodeDraining, CodeClosed:
		return 503
	case CodeDeadline:
		return 504
	}
	return 500
}

// ParseMode resolves a wire mode name; "" is ModeBounded.
func ParseMode(s string) (query.Mode, error) {
	switch strings.ToLower(s) {
	case "", "bounded":
		return query.ModeBounded, nil
	case "precise":
		return query.ModePrecise, nil
	case "imprecise":
		return query.ModeImprecise, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want bounded, precise or imprecise)", s)
}

// ParseSolver resolves a wire solver name.
func ParseSolver(s string) (refresh.Solver, error) {
	switch strings.ToLower(s) {
	case "auto":
		return refresh.Auto, nil
	case "exact-dp":
		return refresh.SolverExactDP, nil
	case "approx":
		return refresh.SolverApprox, nil
	case "greedy-uniform":
		return refresh.SolverGreedyUniform, nil
	case "greedy-density":
		return refresh.SolverGreedyDensity, nil
	}
	return 0, fmt.Errorf("unknown solver %q", s)
}

// SplitStatements splits a request's SQL on ';' into non-empty
// statements, returning each with its byte offset into the original
// text so parse-error positions can be reported against the full
// request. The dialect has no string literals, so splitting is textual.
func SplitStatements(src string) (stmts []string, offsets []int) {
	off := 0
	for {
		i := strings.IndexByte(src[off:], ';')
		var stmt string
		if i < 0 {
			stmt = src[off:]
		} else {
			stmt = src[off : off+i]
		}
		if strings.TrimSpace(stmt) != "" {
			stmts = append(stmts, stmt)
			offsets = append(offsets, off)
		}
		if i < 0 {
			return stmts, offsets
		}
		off += i + 1
	}
}
