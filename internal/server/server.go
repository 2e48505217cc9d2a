package server

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"trapp/internal/continuous"
	"trapp/internal/netsim"
	"trapp/internal/obs"
	"trapp/internal/query"
	"trapp/internal/source"
	"trapp/internal/sql"
	itrapp "trapp/internal/trapp"
)

// Subscription is the standing-query surface the service layer needs
// from whatever engine it fronts: the coalesced update stream and a
// teardown. *continuous.Subscription satisfies it; so does the
// partition coordinator's re-multiplexed cluster subscription.
type Subscription interface {
	Updates() <-chan continuous.Update
	Close()
}

// Engine is the query surface the service layer serves: an embedded
// System, or the partition coordinator scatter-gathering a cluster —
// the same HTTP and framed paths answer for both, which is what lets
// the cluster differential suite compare them wire-result for
// wire-result. Optional capabilities (network stats, engine histograms,
// width telemetry, plan-cache introspection, cluster health) are
// feature-detected by SnapshotMetrics, so a partial engine serves with
// a partial /metrics rather than not at all.
type Engine interface {
	Catalog() sql.Catalog
	ExecuteCtx(ctx context.Context, q query.Query, opts ...query.ExecOption) (query.Result, error)
	ExecuteBatchDetailed(ctx context.Context, qs []query.Query, opts ...query.ExecOption) ([]query.Result, []error, error)
	SubscribeCtx(ctx context.Context, q query.Query) (Subscription, error)
}

// systemEngine adapts the embedded System to Engine (only SubscribeCtx
// needs adapting, for the concrete-vs-interface return).
type systemEngine struct {
	*itrapp.System
}

func (e systemEngine) SubscribeCtx(ctx context.Context, q query.Query) (Subscription, error) {
	sub, err := e.System.SubscribeCtx(ctx, q)
	if err != nil {
		return nil, err
	}
	return sub, nil
}

// Config tunes the service layer.
type Config struct {
	// MaxInFlight caps concurrently executing /query requests; one past
	// the cap is rejected with 429 over_capacity. 0 means unlimited.
	MaxInFlight int
	// MaxSubscribers caps concurrently open /subscribe streams the same
	// way. 0 means unlimited.
	MaxSubscribers int
	// ClientBudget, when positive, is each client's cumulative
	// refresh-cost ceiling: the refresh cost of a client's requests is
	// metered against it, and once spent, further requests execute with
	// a zero cost budget — they still answer from cache, but anything
	// needing paid refreshes returns budget_exhausted semantics over
	// the wire (the typed ErrBudgetExhausted, encoded). Clients are
	// keyed by the X-Trapp-Client header, falling back to the remote
	// host. The ceiling is enforced pessimistically: a request reserves
	// min(its requested budget, the client's remainder) up front and
	// refunds what it did not spend, so concurrent requests from one
	// client can never jointly overrun the ceiling — at the price that
	// simultaneous requests may see a temporarily drained ledger.
	ClientBudget float64
	// MaxClients caps the number of distinct client ledgers kept when
	// ClientBudget is active (the client key is untrusted input, so
	// the map must not grow without bound). Past the cap, unseen
	// clients draw from a fixed array of hashed overflow ledgers (one
	// key per slot; colliding keys spill into a bounded LRU so clients
	// never share a budget). 0 means DefaultMaxClients.
	MaxClients int
	// Info is an arbitrary workload descriptor published by /healthz and
	// /metrics (trappserver records links/sources/seed here, enough to
	// rebuild the identical system in process).
	Info map[string]any
	// SlowQuery, when positive, is the slow-query log threshold: any
	// /query request taking at least this long is logged (request id,
	// SQL, duration, refresh cost) through Logger. 0 disables the log.
	SlowQuery time.Duration
	// Logger receives structured server logs (the slow-query log).
	// Nil falls back to slog.Default().
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — off by
	// default since profiling endpoints should not be public.
	EnablePprof bool
	// Topology, when set, is published by /healthz as the node's
	// partition topology: a trappserver reports its partition id and
	// key-range (canonical bucket) ownership plus its peer list, a
	// trappcoord reports the whole partition map.
	Topology func() map[string]any
	// FramedExt, when set, receives extension frames (payload type at
	// or above FrameExtBase) arriving on framed connections — the hook
	// the partition service mounts its scatter-gather operations on.
	FramedExt FramedExtHandler
}

// Server serves a System over HTTP. Create with New, mount Handler (or
// ListenAndServe), stop with Shutdown.
type Server struct {
	eng Engine
	cfg Config
	mux *http.ServeMux

	// baseCtx is canceled by Shutdown; every streaming handler derives
	// its context from both the request and baseCtx, so draining closes
	// subscriptions promptly.
	baseCtx context.Context
	drain   context.CancelFunc

	draining atomic.Bool
	// drainMu makes the draining check and handler registration atomic:
	// track() holds it while flipping handlers from zero, Shutdown holds
	// it while setting draining, so no handler can slip in after
	// handlers.Wait has started (the WaitGroup zero-Add/Wait race).
	drainMu  sync.Mutex
	handlers sync.WaitGroup // in-flight /query and /subscribe handlers

	start time.Time

	// Gauges and counters for /metrics and the admission-control tests.
	inflight      atomic.Int64
	inflightPeak  atomic.Int64
	subscribers   atomic.Int64
	requests      atomic.Int64
	statements    atomic.Int64
	rejected      atomic.Int64
	updatesSent   atomic.Int64
	errorsByCode  sync.Map // code string → *atomic.Int64
	clientLedgers sync.Map // client key → *ledger
	clientCount   atomic.Int64
	// queryLatency is the server-side /query handler latency histogram
	// (admission to response write), exported by /metrics and
	// /metrics.prom alongside the engine's phase histograms.
	queryLatency obs.Histogram
	// framedLatency is the framed-path twin: per-frame latency covering
	// the whole server-side lifecycle — request decode, execution,
	// response encode, and the flush when the frame drains its pipeline —
	// for both core requests and extension frames.
	framedLatency obs.Histogram
	// reqSeq numbers requests for X-Trapp-Request-Id.
	reqSeq atomic.Int64
	// parsed memoizes statement compilation (one cache per server, bound
	// to the system's catalog); at framed-wire rates the parse costs
	// more than a cache-answered execution.
	parsed *sql.ParseCache
	// framedConns gauges live framed-protocol connections; framed
	// listeners are tracked for Shutdown teardown.
	framedConns     atomic.Int64
	framedListeners sync.Map // net.Listener → struct{}
	// overflow holds the ledgers of clients past MaxClients, hashed by
	// client key. Each slot remembers the key that claimed it, so a hash
	// collision between two distinct overflow keys is detected instead of
	// silently pooling their budgets (which would let one client exhaust
	// another's ceiling); colliding keys spill into overflowSpill, a
	// bounded LRU of per-key ledgers. Memory stays bounded no matter how
	// many keys an adversary mints — the array is fixed and the spill
	// capped — while every honest client keeps a budget of its own.
	overflow [overflowShards]overflowSlot
	// overflowSpill holds the per-key fallback ledgers for overflow keys
	// whose slot is owned by a different key.
	overflowSpill ledgerLRU
}

// overflowShards is the size of the overflow-ledger array; a power of
// two, sized so that overflow contention is negligible next to the
// query work itself.
const overflowShards = 64

// overflowSlot is one entry of the hashed overflow array: a ledger plus
// the client key that first claimed it, the collision detector.
type overflowSlot struct {
	mu    sync.Mutex
	owner string
	led   ledger
}

// fnv32a is FNV-1a over the client key, used to pick an overflow slot.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// DefaultMaxClients bounds the per-client ledger map when Config leaves
// MaxClients zero.
const DefaultMaxClients = 10000

// ledger meters one client's cumulative refresh-cost spend. Budget is
// reserved before execution and the unspent remainder refunded after,
// so concurrent requests from one client can never jointly overrun the
// ceiling.
type ledger struct {
	mu    sync.Mutex
	spent float64
}

// overflowSpillCap bounds the collision-spill LRU: at most this many
// per-key ledgers are retained for overflow keys that lost the race for
// their hashed slot.
const overflowSpillCap = 1024

// ledgerLRU is a bounded most-recently-used cache of per-key ledgers.
// When full, admitting a new key evicts the least recently used entry;
// an evicted key that returns starts a fresh ledger. That forgiveness is
// the price of bounded memory over attacker-controlled keys — an
// adversary must keep minting and cycling distinct keys to reset spend,
// and gains nothing over minting fresh keys in the first place — while
// an honest client's ledger survives as long as it keeps requesting.
type ledgerLRU struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

// lruEntry is one spill ledger and the key owning it (needed to delete
// the map entry on eviction).
type lruEntry struct {
	key string
	led ledger
}

// get returns the key's ledger, creating (and possibly evicting) as
// needed. The returned pointer stays valid after eviction — an in-flight
// request keeps metering against it; only the map forgets it.
func (l *ledgerLRU) get(key string) *ledger {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.entries == nil {
		l.entries = make(map[string]*list.Element)
		l.order = list.New()
	}
	if el, ok := l.entries[key]; ok {
		l.order.MoveToFront(el)
		return &el.Value.(*lruEntry).led
	}
	if l.order.Len() >= overflowSpillCap {
		back := l.order.Back()
		l.order.Remove(back)
		delete(l.entries, back.Value.(*lruEntry).key)
	}
	e := &lruEntry{key: key}
	l.entries[key] = l.order.PushFront(e)
	return &e.led
}

// len reports the retained entry count (tests assert the bound).
func (l *ledgerLRU) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.order == nil {
		return 0
	}
	return l.order.Len()
}

// New wraps a System. The server does not own the system: Shutdown
// drains HTTP work but leaves the engine running (callers close it
// afterwards if they own it).
func New(sys *itrapp.System, cfg Config) *Server {
	return NewEngine(systemEngine{sys}, cfg)
}

// NewEngine wraps any Engine — the partition coordinator's entry point;
// see New for lifecycle semantics.
func NewEngine(eng Engine, cfg Config) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{eng: eng, cfg: cfg, baseCtx: ctx, drain: cancel, start: time.Now(),
		parsed: sql.NewParseCache()}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/subscribe", s.handleSubscribe)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/metrics.prom", s.handleMetricsProm)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// logger returns the configured structured logger.
func (s *Server) logger() *slog.Logger {
	if s.cfg.Logger != nil {
		return s.cfg.Logger
	}
	return slog.Default()
}

// nextRequestID mints the X-Trapp-Request-Id value: the server start
// time (distinguishing restarts) plus a per-server sequence number.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%x-%d", uint64(s.start.UnixNano()), s.reqSeq.Add(1))
}

// Handler returns the root handler (also usable under httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: new requests are rejected with 503
// draining, streaming subscriptions are closed (their contexts cancel,
// so SubscribeCtx tears each one down without leaking its watcher
// goroutine), and Shutdown blocks until every in-flight handler has
// returned or ctx expires. The engine itself is left running. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	s.drain()
	// Framed listeners stop accepting; live framed connections observe
	// baseCtx and close via their per-connection AfterFunc.
	s.framedListeners.Range(func(k, _ any) bool {
		_ = k.(net.Listener).Close()
		return true
	})
	done := make(chan struct{})
	go func() { s.handlers.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ListenAndServe serves on addr until Shutdown; the returned *http.Server
// is already running when ListenAndServe returns. It exists for
// cmd/trappserver; tests mount Handler directly.
func (s *Server) ListenAndServe(addr string) (*http.Server, net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	// Slowloris hardening: a client trickling header bytes (or holding
	// idle keep-alive sockets) must not pin handler resources forever.
	// Request bodies are already capped by MaxBytesReader in the
	// handlers; no WriteTimeout since /subscribe streams indefinitely.
	hs := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("trappserver: serve: %v\n", err)
		}
	}()
	return hs, ln, nil
}

// track registers an in-flight handler, returning false when the
// server is draining. Registration is atomic with the draining check
// (drainMu), so Shutdown's handlers.Wait always accounts every
// admitted handler.
func (s *Server) track() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.handlers.Add(1)
	return true
}

// admit takes one slot of a capped gauge (max 0 = unlimited),
// returning false when the gauge is full. On success the gauge has been
// incremented (the caller must decrement) and the corresponding peak is
// updated; the CAS loop guarantees the gauge never exceeds max.
func (s *Server) admit(gauge *atomic.Int64, max int) bool {
	for {
		cur := gauge.Load()
		if max > 0 && cur >= int64(max) {
			return false
		}
		if gauge.CompareAndSwap(cur, cur+1) {
			if gauge == &s.inflight {
				for peak := s.inflightPeak.Load(); cur+1 > peak; peak = s.inflightPeak.Load() {
					if s.inflightPeak.CompareAndSwap(peak, cur+1) {
						break
					}
				}
			}
			return true
		}
	}
}

// counter returns the per-code error counter, creating it on first use.
func (s *Server) counter(code string) *atomic.Int64 {
	v, ok := s.errorsByCode.Load(code)
	if !ok {
		v, _ = s.errorsByCode.LoadOrStore(code, &atomic.Int64{})
	}
	return v.(*atomic.Int64)
}

// fail writes a request-level error response.
func (s *Server) fail(w http.ResponseWriter, we *WireError) {
	s.counter(we.Code).Add(1)
	writeJSON(w, HTTPStatus(we.Code), QueryResponse{Error: we})
}

// writeJSON writes one JSON response body.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body)
}

// clientKey identifies the requesting client for admission control.
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-Trapp-Client"); k != "" {
		return k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// ledgerFor returns the client's spend ledger, creating it on first
// use. The map is bounded: once MaxClients distinct keys exist, unseen
// clients take a hashed overflow slot instead of allocating (the key is
// client-controlled, so an adversary must not be able to grow the map
// without bound). Each overflow slot belongs to the first key that
// claims it; a different key hashing to an owned slot gets its own
// ledger from the bounded spill LRU rather than sharing the slot's
// budget — a collision must never let one client drain another's
// ceiling.
func (s *Server) ledgerFor(key string) *ledger {
	if v, ok := s.clientLedgers.Load(key); ok {
		return v.(*ledger)
	}
	max := s.cfg.MaxClients
	if max <= 0 {
		max = DefaultMaxClients
	}
	if s.clientCount.Load() >= int64(max) {
		slot := &s.overflow[fnv32a(key)%overflowShards]
		slot.mu.Lock()
		if slot.owner == "" {
			slot.owner = key
		}
		owned := slot.owner == key
		slot.mu.Unlock()
		if owned {
			return &slot.led
		}
		return s.overflowSpill.get(key)
	}
	v, loaded := s.clientLedgers.LoadOrStore(key, &ledger{})
	if !loaded {
		s.clientCount.Add(1)
	}
	return v.(*ledger)
}

// reserve carves the effective cost budget for one request out of the
// client's remaining admission budget (and the request's own budget,
// whichever is smaller). The reservation is pessimistic; refund returns
// what the request did not actually spend.
func (l *ledger) reserve(ceiling float64, requested *Float) (eff float64, reserved float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	remaining := ceiling - l.spent
	if remaining < 0 {
		remaining = 0
	}
	eff = remaining
	// The request's own budget can only lower the reservation, never
	// credit the ledger (requests with a negative budget are rejected
	// before reaching here; the clamp is defense in depth).
	if requested != nil && float64(*requested) < eff && float64(*requested) >= 0 {
		eff = float64(*requested)
	}
	l.spent += eff
	return eff, eff
}

// refund returns the unspent part of a reservation.
func (l *ledger) refund(reserved, actual float64) {
	if reserved <= actual {
		return
	}
	l.mu.Lock()
	l.spent -= reserved - actual
	if l.spent < 0 {
		l.spent = 0
	}
	l.mu.Unlock()
}

// remaining reports the client's unreserved budget.
func (l *ledger) remaining(ceiling float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := ceiling - l.spent
	if r < 0 {
		r = 0
	}
	return r
}

// parseRequest compiles a request's SQL into executable queries.
// Multi-statement requests (';'-separated) concatenate their queries
// into one batch; parse errors are positioned against the full request
// text. GROUP BY is only servable on /subscribe (allowGroupBy), and
// EXPLAIN ANALYZE only on /query (allowExplain). The returned explain
// slice aligns with the queries: explain[i] marks queries compiled from
// an EXPLAIN ANALYZE statement.
func (s *Server) parseRequest(src string, allowGroupBy, allowExplain bool) ([]query.Query, []bool, *WireError) {
	stmts, offsets := SplitStatements(src)
	if len(stmts) == 0 {
		return nil, nil, &WireError{Code: CodeInvalid, Message: "empty sql"}
	}
	var (
		qs      []query.Query
		explain []bool
	)
	for i, stmt := range stmts {
		st, err := s.parsed.Parse(stmt, s.eng.Catalog())
		if err != nil {
			we := EncodeError(err)
			if we.Pos != nil {
				pos := *we.Pos + offsets[i]
				we.Pos = &pos
			}
			return nil, nil, we
		}
		if st.Explain && !allowExplain {
			return nil, nil, &WireError{Code: CodeUnsupported,
				Message: "EXPLAIN ANALYZE is only supported on /query"}
		}
		for range st.Queries {
			explain = append(explain, st.Explain)
		}
		qs = append(qs, st.Queries...)
	}
	if !allowGroupBy {
		for _, q := range qs {
			if len(q.GroupBy) > 0 {
				return nil, nil, &WireError{Code: CodeUnsupported,
					Message: "GROUP BY is not supported on /query; subscribe to it on /subscribe"}
			}
		}
	}
	return qs, explain, nil
}

// buildOptions resolves the request's execution options (mode, solver,
// deadline). The cost budget is resolved separately against the
// client's ledger.
func buildOptions(req QueryRequest) ([]query.ExecOption, *WireError) {
	var opts []query.ExecOption
	if b := req.Budget; b != nil && (float64(*b) < 0 || math.IsNaN(float64(*b))) {
		// A negative budget must never reach the ledger (it would
		// credit the client) or the engine (a 500 for bad input).
		return nil, &WireError{Code: CodeInvalid, Message: fmt.Sprintf("invalid cost budget %g", float64(*b))}
	}
	mode, err := ParseMode(req.Mode)
	if err != nil {
		return nil, &WireError{Code: CodeInvalid, Message: err.Error()}
	}
	if mode != query.ModeBounded {
		opts = append(opts, query.WithMode(mode))
	}
	if req.Solver != "" {
		solver, err := ParseSolver(req.Solver)
		if err != nil {
			return nil, &WireError{Code: CodeInvalid, Message: err.Error()}
		}
		opts = append(opts, query.WithSolver(solver))
	}
	if req.DeadlineMillis != 0 {
		opts = append(opts, query.WithDeadline(time.Now().Add(time.Duration(req.DeadlineMillis)*time.Millisecond)))
	}
	return opts, nil
}

// handleQuery is POST /query: parse → admission → execute → encode.
// Every request gets an X-Trapp-Request-Id, its latency lands in the
// server histogram, and requests past Config.SlowQuery are logged.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	rid := s.nextRequestID()
	w.Header().Set("X-Trapp-Request-Id", rid)
	if r.Method != http.MethodPost {
		s.fail(w, &WireError{Code: CodeInvalid, Message: "POST required"})
		return
	}
	if s.draining.Load() {
		s.fail(w, &WireError{Code: CodeDraining, Message: "server draining"})
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.fail(w, &WireError{Code: CodeInvalid, Message: "bad request body: " + err.Error()})
		return
	}
	t0 := time.Now()
	var spent float64
	defer func() {
		d := time.Since(t0)
		s.queryLatency.ObserveDuration(d)
		if s.cfg.SlowQuery > 0 && d >= s.cfg.SlowQuery {
			s.logger().Warn("slow query",
				"request_id", rid, "sql", req.SQL, "duration", d, "refresh_cost", spent)
		}
	}()

	// Admission: cap in-flight executions. The slot is taken with a CAS
	// so the cap is strict — the in-flight gauge never exceeds
	// MaxInFlight, even transiently, which the stress test asserts.
	if !s.admit(&s.inflight, s.cfg.MaxInFlight) {
		s.rejected.Add(1)
		s.fail(w, &WireError{Code: CodeOverCapacity,
			Message: fmt.Sprintf("over capacity: %d requests in flight (max %d)", s.inflight.Load(), s.cfg.MaxInFlight)})
		return
	}
	defer s.inflight.Add(-1)
	if !s.track() {
		s.fail(w, &WireError{Code: CodeDraining, Message: "server draining"})
		return
	}
	defer s.handlers.Done()

	qs, explain, we := s.parseRequest(req.SQL, false, true)
	if we == nil {
		var opts []query.ExecOption
		opts, we = buildOptions(req)
		if we == nil {
			var resp QueryResponse
			var status int
			resp, status, spent = s.run(r.Context(), clientKey(r), req, qs, explain, opts)
			writeJSON(w, status, resp)
			return
		}
	}
	s.fail(w, we)
}

// run executes the parsed statements and builds the response. It is
// transport-agnostic — the HTTP handler and the framed-protocol loop
// both feed it — and it owns all error accounting for the execution
// phase (per-code counters, the statements counter), so callers must
// encode the returned response as-is rather than re-counting through
// fail. It also returns the HTTP status the response maps to (framed
// transport ignores it) and the refresh cost actually spent (the
// slow-query log reports it).
func (s *Server) run(ctx context.Context, client string, req QueryRequest, qs []query.Query, explain []bool, opts []query.ExecOption) (_ QueryResponse, status int, spent float64) {
	traced := req.Trace
	for _, e := range explain {
		if e {
			traced = true
		}
	}

	// Admission: meter the client's cumulative refresh-cost budget. The
	// effective budget is reserved up front and the unspent remainder
	// refunded, so concurrent requests cannot jointly overrun the
	// ceiling.
	var (
		led       *ledger
		reserved  float64
		hasBudget bool
		budget    float64
	)
	if s.cfg.ClientBudget > 0 {
		led = s.ledgerFor(client)
		var eff float64
		eff, reserved = led.reserve(s.cfg.ClientBudget, req.Budget)
		hasBudget, budget = true, eff
	} else if req.Budget != nil {
		hasBudget, budget = true, float64(*req.Budget)
	}

	// The execution context dies with the client connection or with
	// Shutdown, whichever comes first, so an abandoned request stops
	// refreshing mid-fan-out.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	var (
		results  []query.Result
		perQuery []error
		err      error
	)
	switch {
	case traced:
		// Traced statements execute individually so each gets its own
		// span tree, at the price of cross-statement refresh sharing.
		// The cost budget still covers the request as a whole: each
		// statement runs under whatever its predecessors left.
		remaining := budget
		for i := range qs {
			qopts := append([]query.ExecOption(nil), opts...)
			if hasBudget {
				qopts = append(qopts, query.WithCostBudget(remaining))
			}
			if req.Trace || explain[i] {
				qopts = append(qopts, query.WithTrace())
			}
			var res query.Result
			var qerr error
			res, qerr = s.eng.ExecuteCtx(ctx, qs[i], qopts...)
			if qerr != nil && !errors.Is(qerr, query.ErrPrecisionUnmet{}) && !errors.Is(qerr, query.ErrBudgetExhausted{}) {
				err = qerr
				break
			}
			results, perQuery = append(results, res), append(perQuery, qerr)
			if remaining -= res.RefreshCost; remaining < 0 {
				remaining = 0
			}
		}
	case len(qs) == 1:
		if hasBudget {
			opts = append(opts, query.WithCostBudget(budget))
		}
		var res query.Result
		res, err = s.eng.ExecuteCtx(ctx, qs[0], opts...)
		if err == nil || errors.Is(err, query.ErrPrecisionUnmet{}) || errors.Is(err, query.ErrBudgetExhausted{}) {
			// Partial outcomes still carry a sound result; report them
			// per-statement like the batch path does.
			results, perQuery, err = []query.Result{res}, []error{err}, nil
		}
	default:
		if hasBudget {
			opts = append(opts, query.WithCostBudget(budget))
		}
		results, perQuery, err = s.eng.ExecuteBatchDetailed(ctx, qs, opts...)
	}
	for _, res := range results {
		spent += res.RefreshCost
	}
	if err != nil {
		// A whole-request failure may have paid refresh cost that no
		// Result attributes (a batch cut down mid-fan-out); the
		// reservation is forfeited rather than refunded, so metering
		// errs against the client, never against the ceiling.
		we := EncodeError(err)
		s.counter(we.Code).Add(1)
		return QueryResponse{Error: we}, HTTPStatus(we.Code), spent
	}
	if led != nil {
		led.refund(reserved, spent)
	}

	resp := QueryResponse{Results: make([]WireResult, len(results))}
	status = 200
	for i := range results {
		resp.Results[i] = ToWireResult(results[i], perQuery[i])
		if e := resp.Results[i].Error; e != nil {
			s.counter(e.Code).Add(1)
			if st := HTTPStatus(e.Code); st > status {
				status = st
			}
		}
	}
	if led != nil {
		rem := Float(led.remaining(s.cfg.ClientBudget))
		resp.BudgetRemaining = &rem
	}
	s.statements.Add(int64(len(results)))
	return resp, status, spent
}

// handleSubscribe is GET /subscribe?sql=...: a server-sent-events stream
// of the standing query's maintained answer, backed by SubscribeCtx.
// Updates are coalesced by the engine (a slow client observes the latest
// state, never stale backlog); the stream ends when the client
// disconnects, the server drains, or the engine closes.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodGet {
		s.fail(w, &WireError{Code: CodeInvalid, Message: "GET required"})
		return
	}
	if s.draining.Load() {
		s.fail(w, &WireError{Code: CodeDraining, Message: "server draining"})
		return
	}
	// /subscribe accepts GROUP BY: the engine maintains per-group
	// answers and the stream carries them in update.groups.
	qs, _, we := s.parseRequest(r.URL.Query().Get("sql"), true, false)
	if we != nil {
		s.fail(w, we)
		return
	}
	if len(qs) != 1 {
		s.fail(w, &WireError{Code: CodeUnsupported, Message: "subscribe takes exactly one query"})
		return
	}

	if !s.admit(&s.subscribers, s.cfg.MaxSubscribers) {
		s.rejected.Add(1)
		s.fail(w, &WireError{Code: CodeOverCapacity,
			Message: fmt.Sprintf("over capacity: %d subscriptions open (max %d)", s.subscribers.Load(), s.cfg.MaxSubscribers)})
		return
	}
	defer s.subscribers.Add(-1)
	if !s.track() {
		s.fail(w, &WireError{Code: CodeDraining, Message: "server draining"})
		return
	}
	defer s.handlers.Done()

	flusher, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, &WireError{Code: CodeInternal, Message: "streaming unsupported by connection"})
		return
	}

	// The subscription lives exactly as long as this context: client
	// disconnect or Shutdown cancels it, and SubscribeCtx then closes
	// the subscription — constraint repair stops and no watcher
	// goroutine outlives the stream.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	sub, err := s.eng.SubscribeCtx(ctx, qs[0])
	if err != nil {
		s.fail(w, EncodeError(err))
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(200)
	writeSSE(w, "subscribed", map[string]string{"query": qs[0].String()})
	flusher.Flush()

	for u := range sub.Updates() {
		wu := WireUpdate{Seq: u.Seq, At: u.At, Answer: ToWire(u.Answer), Met: u.Met}
		for _, g := range u.Groups {
			key := make([]Float, len(g.Key))
			for i, v := range g.Key {
				key[i] = Float(v)
			}
			wu.Groups = append(wu.Groups, WireGroup{Key: key, Answer: ToWire(g.Answer), Met: g.Met})
		}
		if err := writeSSE(w, "update", wu); err != nil {
			return // client gone; ctx cancel tears the subscription down
		}
		flusher.Flush()
		s.updatesSent.Add(1)
	}
	// Channel closed: context canceled or engine shut down.
	writeSSE(w, "bye", map[string]string{"reason": "subscription closed"})
	flusher.Flush()
}

// writeSSE writes one server-sent event with a JSON data payload.
func writeSSE(w http.ResponseWriter, event string, data any) error {
	buf, err := json.Marshal(data)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, buf)
	return err
}

// Metrics is the /metrics payload.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Requests counts HTTP requests; Statements counts executed
	// statements (a batch request counts each of its statements).
	Requests   int64 `json:"requests"`
	Statements int64 `json:"statements"`
	// StatementsPerSecond is Statements over uptime — the wire-level QPS.
	StatementsPerSecond float64 `json:"statements_per_second"`
	// Rejected counts admission-control rejections; InFlight,
	// InFlightPeak and Subscribers are the live gauges.
	Rejected     int64 `json:"rejected"`
	InFlight     int64 `json:"in_flight"`
	InFlightPeak int64 `json:"in_flight_peak"`
	Subscribers  int64 `json:"subscribers"`
	UpdatesSent  int64 `json:"updates_sent"`
	// ErrorsByCode counts statement and request outcomes by error code.
	ErrorsByCode map[string]int64 `json:"errors_by_code,omitempty"`
	// Network is the engine's refresh-traffic snapshot: message counts
	// by kind, refresh costs, and the per-source breakdown.
	Network NetworkMetrics `json:"network"`
	// Continuous mirrors the subscription engine's counters.
	Continuous ContinuousMetrics `json:"continuous"`
	// QueryLatency is the server-side /query handler latency histogram
	// (nanoseconds, log-bucketed).
	QueryLatency obs.HistogramSnapshot `json:"query_latency"`
	// FramedLatency is the framed-path per-frame latency histogram
	// (request decode through response encode and flush; nanoseconds,
	// log-bucketed).
	FramedLatency obs.HistogramSnapshot `json:"framed_latency"`
	// Cluster is the partition coordinator's per-partition health
	// snapshot (partition.Metrics), present only when the served engine
	// is a cluster.
	Cluster any `json:"cluster,omitempty"`
	// Engine is the engine's always-on histogram set: per-phase request
	// latency, refresh batch sizes, and the paper's precision–cost
	// telemetry (width ratio, cost per unit width). Keys are fixed; see
	// obs.EngineMetrics.
	Engine obs.MetricsSnapshot `json:"engine,omitempty"`
	// Sources reports each source's adaptive-width controller state.
	Sources map[string]source.WidthTelemetry `json:"sources,omitempty"`
	// PlanCache reports the shape-keyed plan/classification cache:
	// cumulative hit/miss/invalidation counts and current occupancy.
	PlanCache PlanCacheMetrics `json:"plan_cache"`
	// ParseCache reports the statement-compilation memo.
	ParseCache ParseCacheMetrics `json:"parse_cache"`
	// Runtime reports process-wide allocation counters; paired with the
	// Statements counter it yields server-side allocs per statement,
	// which the wire benchmark reports alongside client-side allocs.
	Runtime RuntimeMetrics `json:"runtime"`
	// FramedConnections gauges live framed-protocol connections.
	FramedConnections int64 `json:"framed_connections"`
	// Workload echoes Config.Info.
	Workload map[string]any `json:"workload,omitempty"`
}

// PlanCacheMetrics is the plan cache's /metrics section. HitRate is
// hits/(hits+misses+invalidations) — the share of executions that
// skipped the classification scan entirely.
type PlanCacheMetrics struct {
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Invalidations int64   `json:"invalidations"`
	HitRate       float64 `json:"hit_rate"`
	FoldEntries   int     `json:"fold_entries"`
	ScanEntries   int     `json:"scan_entries"`
}

// ParseCacheMetrics is the statement-cache /metrics section.
type ParseCacheMetrics struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// RuntimeMetrics is a minimal runtime.MemStats excerpt: enough to
// compute allocation deltas across a benchmark window without the full
// (and expensive to encode) MemStats dump.
type RuntimeMetrics struct {
	Mallocs    uint64 `json:"mallocs"`
	TotalAlloc uint64 `json:"total_alloc"`
	HeapAlloc  uint64 `json:"heap_alloc"`
	NumGC      uint32 `json:"num_gc"`
	Goroutines int    `json:"goroutines"`
}

// NetworkMetrics is the JSON form of netsim.Stats.
type NetworkMetrics struct {
	Messages         map[string]int64         `json:"messages,omitempty"`
	QueryRefreshCost float64                  `json:"query_refresh_cost"`
	ValueRefreshCost float64                  `json:"value_refresh_cost"`
	PerSource        map[string]SourceMetrics `json:"per_source,omitempty"`
}

// SourceMetrics is one source's traffic share.
type SourceMetrics struct {
	Messages         map[string]int64 `json:"messages,omitempty"`
	QueryRefreshCost float64          `json:"query_refresh_cost"`
	ValueRefreshCost float64          `json:"value_refresh_cost"`
}

// ContinuousMetrics is the JSON form of continuous.Metrics.
type ContinuousMetrics struct {
	Rounds           int64   `json:"rounds"`
	Notifications    int64   `json:"notifications"`
	RefreshBatches   int64   `json:"refresh_batches"`
	RefreshedObjects int64   `json:"refreshed_objects"`
	RefreshCost      float64 `json:"refresh_cost"`
	SharedRefreshes  int64   `json:"shared_refreshes"`
	Views            int     `json:"views"`
	Subscriptions    int     `json:"subscriptions"`
}

// SnapshotMetrics assembles the current metrics (also used by tests).
func (s *Server) SnapshotMetrics() Metrics {
	up := time.Since(s.start).Seconds()
	m := Metrics{
		UptimeSeconds: up,
		Requests:      s.requests.Load(),
		Statements:    s.statements.Load(),
		Rejected:      s.rejected.Load(),
		InFlight:      s.inflight.Load(),
		InFlightPeak:  s.inflightPeak.Load(),
		Subscribers:   s.subscribers.Load(),
		UpdatesSent:   s.updatesSent.Load(),
		Workload:      s.cfg.Info,
	}
	if up > 0 {
		m.StatementsPerSecond = float64(m.Statements) / up
	}
	s.errorsByCode.Range(func(code, v any) bool {
		if m.ErrorsByCode == nil {
			m.ErrorsByCode = make(map[string]int64)
		}
		m.ErrorsByCode[code.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	// Engine introspection is feature-detected: the embedded System
	// implements all of it, the partition coordinator only what makes
	// sense at a coordinator (cluster health instead of store internals).
	if sp, ok := s.eng.(interface{ Stats() netsim.Stats }); ok {
		st := sp.Stats()
		m.Network = NetworkMetrics{
			QueryRefreshCost: st.QueryRefreshCost,
			ValueRefreshCost: st.ValueRefreshCost,
		}
		for k, n := range st.Messages {
			if m.Network.Messages == nil {
				m.Network.Messages = make(map[string]int64)
			}
			m.Network.Messages[k.String()] = n
		}
		for id, ss := range st.PerSource {
			if m.Network.PerSource == nil {
				m.Network.PerSource = make(map[string]SourceMetrics)
			}
			sm := SourceMetrics{QueryRefreshCost: ss.QueryRefreshCost, ValueRefreshCost: ss.ValueRefreshCost}
			for k, n := range ss.Messages {
				if sm.Messages == nil {
					sm.Messages = make(map[string]int64)
				}
				sm.Messages[k.String()] = n
			}
			m.Network.PerSource[id] = sm
		}
	}
	if cp, ok := s.eng.(interface{ SubscriptionMetrics() continuous.Metrics }); ok {
		cm := cp.SubscriptionMetrics()
		m.Continuous = ContinuousMetrics{
			Rounds:           cm.Rounds,
			Notifications:    cm.Notifications,
			RefreshBatches:   cm.RefreshBatches,
			RefreshedObjects: cm.RefreshedObjects,
			RefreshCost:      cm.RefreshCost,
			SharedRefreshes:  cm.SharedRefreshes,
			Views:            cm.Views,
			Subscriptions:    cm.Subscriptions,
		}
	}
	m.QueryLatency = s.queryLatency.Snapshot()
	m.FramedLatency = s.framedLatency.Snapshot()
	if ep, ok := s.eng.(interface{ Metrics() *obs.EngineMetrics }); ok {
		if em := ep.Metrics(); em != nil {
			m.Engine = em.Snapshot()
			counters := em.Counters()
			m.PlanCache = PlanCacheMetrics{
				Hits:          counters["plan_cache_hits"],
				Misses:        counters["plan_cache_misses"],
				Invalidations: counters["plan_cache_invalidations"],
			}
			if total := m.PlanCache.Hits + m.PlanCache.Misses + m.PlanCache.Invalidations; total > 0 {
				m.PlanCache.HitRate = float64(m.PlanCache.Hits) / float64(total)
			}
		}
	}
	if wp, ok := s.eng.(interface {
		WidthTelemetry() map[string]source.WidthTelemetry
	}); ok {
		m.Sources = wp.WidthTelemetry()
	}
	if pp, ok := s.eng.(interface{ Processor() *query.Processor }); ok {
		m.PlanCache.FoldEntries, m.PlanCache.ScanEntries = pp.Processor().PlanCacheSizes()
	}
	if cp, ok := s.eng.(interface{ ClusterMetrics() any }); ok {
		m.Cluster = cp.ClusterMetrics()
	}
	m.ParseCache.Hits, m.ParseCache.Misses, m.ParseCache.Entries = s.parsed.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.Runtime = RuntimeMetrics{
		Mallocs:    ms.Mallocs,
		TotalAlloc: ms.TotalAlloc,
		HeapAlloc:  ms.HeapAlloc,
		NumGC:      ms.NumGC,
		Goroutines: runtime.NumGoroutine(),
	}
	m.FramedConnections = s.framedConns.Load()
	return m
}

// handleMetrics is GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, 200, s.SnapshotMetrics())
}

// promPhases orders the engine's nanosecond histograms for the
// trapp_phase_duration_seconds family; the remaining EngineMetrics keys
// export as their own families in their native units.
var promPhases = []struct{ key, phase string }{
	{"request_ns", "request"},
	{"scan_ns", "scan"},
	{"choose_ns", "choose"},
	{"refresh_ns", "refresh"},
	{"fold_ns", "fold"},
	{"repair_ns", "repair"},
	{"maintain_ns", "maintain"},
}

// handleMetricsProm is GET /metrics.prom: the Prometheus text-format
// twin of /metrics. Durations export in seconds; the width ratio and
// cost-per-width telemetry export in their natural units (the stored
// permille/milli fixed-point scaling is divided back out).
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	m := s.SnapshotMetrics()
	pw := obs.NewPromWriter()
	pw.Gauge("trapp_uptime_seconds", "Seconds since server start.", nil, m.UptimeSeconds)
	pw.Counter("trapp_requests_total", "HTTP requests received.", nil, float64(m.Requests))
	pw.Counter("trapp_statements_total", "Statements executed.", nil, float64(m.Statements))
	pw.Counter("trapp_rejected_total", "Admission-control rejections.", nil, float64(m.Rejected))
	pw.Counter("trapp_updates_sent_total", "Subscription updates sent.", nil, float64(m.UpdatesSent))
	pw.Gauge("trapp_in_flight", "Requests currently executing.", nil, float64(m.InFlight))
	pw.Gauge("trapp_subscribers", "Open subscription streams.", nil, float64(m.Subscribers))
	pw.Gauge("trapp_framed_connections", "Live framed-protocol connections.", nil, float64(m.FramedConnections))
	pw.Counter("trapp_plan_cache_hits_total", "Plan-cache hits (classification scan skipped).",
		nil, float64(m.PlanCache.Hits))
	pw.Counter("trapp_plan_cache_misses_total", "Plan-cache misses (shape not yet cached).",
		nil, float64(m.PlanCache.Misses))
	pw.Counter("trapp_plan_cache_invalidations_total", "Plan-cache entries discarded by relation mutations.",
		nil, float64(m.PlanCache.Invalidations))
	pw.Gauge("trapp_plan_cache_hit_rate", "Plan-cache hits over all lookups.", nil, m.PlanCache.HitRate)
	pw.Counter("trapp_parse_cache_hits_total", "Statement-cache hits (parse skipped).",
		nil, float64(m.ParseCache.Hits))
	pw.Counter("trapp_parse_cache_misses_total", "Statement-cache misses.",
		nil, float64(m.ParseCache.Misses))
	for code, n := range m.ErrorsByCode {
		pw.Counter("trapp_errors_total", "Request and statement outcomes by error code.",
			map[string]string{"code": code}, float64(n))
	}
	pw.Counter("trapp_query_refresh_cost_total", "Cumulative query-initiated refresh cost.",
		nil, m.Network.QueryRefreshCost)
	pw.Counter("trapp_value_refresh_cost_total", "Cumulative value-initiated refresh cost.",
		nil, m.Network.ValueRefreshCost)

	pw.Histo("trapp_query_latency_seconds", "Server-side /query handler latency.",
		nil, m.QueryLatency, 1e9)
	pw.Histo("trapp_framed_latency_seconds", "Server-side framed-path request latency.",
		nil, m.FramedLatency, 1e9)
	for _, p := range promPhases {
		pw.Histo("trapp_phase_duration_seconds", "Engine phase latency by phase.",
			map[string]string{"phase": p.phase}, m.Engine[p.key], 1e9)
	}
	pw.Histo("trapp_refresh_batch_keys", "Keys per single-source refresh batch.",
		nil, m.Engine["refresh_batch_keys"], 1)
	pw.Histo("trapp_width_ratio", "Achieved interval width over requested bound.",
		nil, m.Engine["width_ratio_permille"], 1000)
	pw.Histo("trapp_cost_per_width", "Refresh cost per unit of interval-width reduction.",
		nil, m.Engine["cost_per_width_milli"], 1000)

	for id, t := range m.Sources {
		lbl := map[string]string{"source": id}
		pw.Gauge("trapp_source_objects", "Objects held by the source.", lbl, float64(t.Objects))
		pw.Gauge("trapp_source_adaptive_objects", "Objects under adaptive-width control.", lbl, float64(t.Adaptive))
		if t.Adaptive > 0 {
			pw.Gauge("trapp_source_width_min", "Smallest adaptive bound width.", lbl, t.WMin)
			pw.Gauge("trapp_source_width_max", "Largest adaptive bound width.", lbl, t.WMax)
			pw.Gauge("trapp_source_width_mean", "Mean adaptive bound width.", lbl, t.WMean)
		}
		pw.Counter("trapp_source_value_refreshes_total", "Value-initiated refreshes (bound escapes).", lbl, float64(t.ValueRefreshes))
		pw.Counter("trapp_source_query_refreshes_total", "Query-initiated refreshes.", lbl, float64(t.QueryRefreshes))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(200)
	fmt.Fprint(w, pw.String())
}

// buildInfo summarizes runtime/debug.ReadBuildInfo for /healthz.
func buildInfo() map[string]any {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return nil
	}
	out := map[string]any{
		"go_version": bi.GoVersion,
		"module":     bi.Main.Path,
	}
	if bi.Main.Version != "" {
		out["version"] = bi.Main.Version
	}
	for _, st := range bi.Settings {
		switch st.Key {
		case "vcs.revision", "vcs.time", "vcs.modified":
			out[st.Key] = st.Value
		}
	}
	return out
}

// handleHealthz is GET /healthz: 200 while serving, 503 while draining,
// with build/version info and process uptime.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, state := 200, "ok"
	if s.draining.Load() {
		status, state = 503, "draining"
	}
	body := map[string]any{
		"status":   state,
		"uptime_s": time.Since(s.start).Seconds(),
		"build":    buildInfo(),
		"workload": s.cfg.Info,
	}
	if s.cfg.Topology != nil {
		body["topology"] = s.cfg.Topology()
	}
	writeJSON(w, status, body)
}
