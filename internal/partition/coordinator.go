package partition

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"trapp/internal/aggregate"
	"trapp/internal/obs"
	"trapp/internal/parallel"
	"trapp/internal/query"
	"trapp/internal/refresh"
	"trapp/internal/relation"
	"trapp/internal/sql"
)

// Config tunes the scatter-gather coordinator.
type Config struct {
	// Options are the refresh solver options the coordinator plans with;
	// they must match the options the partition engines run, or plans
	// chosen here diverge from single-node plans.
	Options refresh.Options
	// OpTimeout bounds each per-partition operation attempt; zero means
	// only the request context limits it.
	OpTimeout time.Duration
	// Retries is the number of extra attempts after a failed partition
	// operation (all node operations are idempotent). The retry fires
	// immediately — with OpTimeout set it acts as a hedge against a
	// stuck node rather than a backoff loop.
	Retries int
	// DegradedSlack is the conservative per-degraded-partition widening:
	// when a partition stays unreachable after retries and the
	// coordinator falls back to its last good fold state, the merged
	// answer is expanded by DegradedSlack for each degraded partition so
	// staleness degrades precision instead of soundness claims.
	DegradedSlack float64
}

// nodeStats is the per-partition health ledger behind ClusterMetrics.
type nodeStats struct {
	ops      atomic.Int64
	errors   atomic.Int64
	retries  atomic.Int64
	degraded atomic.Int64
	lat      obs.Histogram
}

// NodeMetrics is one partition's health snapshot.
type NodeMetrics struct {
	ID       string                `json:"id"`
	Buckets  []int                 `json:"buckets"`
	Ops      int64                 `json:"ops"`
	Errors   int64                 `json:"errors"`
	Retries  int64                 `json:"retries"`
	Degraded int64                 `json:"degraded"`
	Latency  obs.HistogramSnapshot `json:"latency"`
}

// Metrics is the coordinator's health snapshot: per-partition operation
// counts, retry/degradation tallies, and op latency histograms.
type Metrics struct {
	Queries    int64         `json:"queries"`
	Degraded   int64         `json:"degraded_queries"`
	Partitions []NodeMetrics `json:"partitions"`
}

// Cluster is the scatter-gather coordinator. It owns a query.Processor
// with one scattered registration per catalog table (scattered.go), so a
// clustered query runs the very three-step executor an embedded system
// runs; what stays here is what only a cluster has — topology, bounded
// retry with per-attempt timeouts, per-partition health, and the last
// good fold states the degraded path falls back to. It implements the
// server Engine surface (ExecuteCtx / ExecuteBatchDetailed / SubscribeCtx
// / Catalog), so cmd/trappcoord serves a cluster through the exact HTTP
// and framed paths a single node serves an embedded system.
type Cluster struct {
	nodes []Node
	ring  *Ring
	cfg   Config
	proc  *query.Processor

	catalog sql.MapCatalog
	closed  atomic.Bool

	queries    atomic.Int64
	degradedQs atomic.Int64
	stats      []nodeStats

	// Last good fold state per shape and partition — the degradation
	// fallback. Bounded by clearing wholesale past maxStateEntries
	// shapes.
	mu   sync.Mutex
	last map[string][]*aggregate.State

	subSeq atomic.Int64
}

// New assembles a coordinator over the given partitions: each node is
// greeted, the table catalogs are required to agree, and bucket
// ownership is fixed by rendezvous hashing of the node IDs.
func New(ctx context.Context, nodes []Node, cfg Config) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("partition: cluster needs at least one node")
	}
	ids := make([]string, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID()
	}
	ring, err := NewRing(ids)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{
		nodes: nodes,
		ring:  ring,
		cfg:   cfg,
		proc:  query.NewProcessor(cfg.Options),
		stats: make([]nodeStats, len(nodes)),
		last:  make(map[string][]*aggregate.State),
	}
	var ref Hello
	for i, n := range nodes {
		h, err := call(cl, ctx, i, func(ctx context.Context) (Hello, error) { return n.Hello(ctx) })
		if err != nil {
			return nil, fmt.Errorf("partition: hello %s: %w", n.ID(), err)
		}
		if i == 0 {
			ref = h
			cl.catalog = make(sql.MapCatalog, len(h.Tables))
			for _, t := range h.Tables {
				schema := relation.NewSchema(t.Columns...)
				cl.catalog[t.Name] = schema
				cl.proc.Attach(t.Name, &scattered{cl: cl, schema: schema})
			}
			continue
		}
		if err := sameTables(ref, h); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// sameTables checks two topology advertisements serve identical tables.
func sameTables(a, b Hello) error {
	if len(a.Tables) != len(b.Tables) {
		return fmt.Errorf("partition: %s serves %d tables, %s serves %d",
			a.ID, len(a.Tables), b.ID, len(b.Tables))
	}
	for i, ta := range a.Tables {
		tb := b.Tables[i]
		if ta.Name != tb.Name || len(ta.Columns) != len(tb.Columns) {
			return fmt.Errorf("partition: table mismatch between %s and %s: %q vs %q", a.ID, b.ID, ta.Name, tb.Name)
		}
		for j, ca := range ta.Columns {
			if ca != tb.Columns[j] {
				return fmt.Errorf("partition: schema mismatch for %q between %s and %s", ta.Name, a.ID, b.ID)
			}
		}
	}
	return nil
}

// Ring returns the cluster's bucket-ownership assignment.
func (cl *Cluster) Ring() *Ring { return cl.ring }

// Catalog implements the server engine surface over the agreed tables.
func (cl *Cluster) Catalog() sql.Catalog { return cl.catalog }

// Close marks the cluster closed and releases the nodes.
func (cl *Cluster) Close() {
	if cl.closed.Swap(true) {
		return
	}
	for _, n := range cl.nodes {
		n.Close()
	}
}

// ClusterMetrics returns the per-partition health snapshot; the server
// metrics endpoint feature-detects this method and inlines the result.
func (cl *Cluster) ClusterMetrics() any {
	m := Metrics{Queries: cl.queries.Load(), Degraded: cl.degradedQs.Load()}
	for i := range cl.nodes {
		s := &cl.stats[i]
		m.Partitions = append(m.Partitions, NodeMetrics{
			ID:       cl.nodes[i].ID(),
			Buckets:  cl.ring.Buckets(i),
			Ops:      s.ops.Load(),
			Errors:   s.errors.Load(),
			Retries:  s.retries.Load(),
			Degraded: s.degraded.Load(),
			Latency:  s.lat.Snapshot(),
		})
	}
	return m
}

// Topology returns the coordinator's partition map for /healthz: each
// partition's ID and the canonical buckets (key ranges under the
// canonical hash) it owns.
func (cl *Cluster) Topology() map[string]any {
	parts := make([]map[string]any, len(cl.nodes))
	for i := range cl.nodes {
		parts[i] = map[string]any{
			"id":      cl.nodes[i].ID(),
			"buckets": cl.ring.Buckets(i),
		}
	}
	return map[string]any{
		"role":       "coordinator",
		"partitions": parts,
	}
}

// call runs one idempotent partition operation with the configured
// per-attempt timeout and bounded retry, recording health telemetry.
// The parent context aborts retries immediately. On failure the last
// attempt's value is returned beside the error: a refresh that failed
// part-way still reports what it installed, and that was paid for.
func call[T any](cl *Cluster, ctx context.Context, node int, fn func(ctx context.Context) (T, error)) (T, error) {
	s := &cl.stats[node]
	for attempt := 0; ; attempt++ {
		actx, cancel := ctx, context.CancelFunc(nil)
		if cl.cfg.OpTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, cl.cfg.OpTimeout)
		}
		t0 := time.Now()
		v, err := fn(actx)
		s.lat.ObserveDuration(time.Since(t0))
		if cancel != nil {
			cancel()
		}
		s.ops.Add(1)
		if err == nil {
			return v, nil
		}
		s.errors.Add(1)
		if ctx.Err() != nil {
			// The request itself is done; surface its error, not the
			// attempt's.
			return v, ctx.Err()
		}
		if attempt >= cl.cfg.Retries {
			return v, err
		}
		s.retries.Add(1)
	}
}

// rememberState records a partition's latest good fold state for the
// shape — the degradation fallback.
func (cl *Cluster) rememberState(shape string, node int, st *aggregate.State) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	states, ok := cl.last[shape]
	if !ok {
		if len(cl.last) >= maxStateEntries {
			clear(cl.last)
		}
		states = make([]*aggregate.State, len(cl.nodes))
		cl.last[shape] = states
	}
	states[node] = st
}

// lastState returns the degradation fallback for a partition, or nil.
func (cl *Cluster) lastState(shape string, node int) *aggregate.State {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if states, ok := cl.last[shape]; ok {
		return states[node]
	}
	return nil
}

// ExecuteCtx implements the server engine surface: the single-node
// three-step bounded execution over the scattered relation.
func (cl *Cluster) ExecuteCtx(ctx context.Context, q query.Query, opts ...query.ExecOption) (query.Result, error) {
	return cl.ExecuteConfig(ctx, q, query.BuildExecConfig(opts...))
}

// ExecuteConfig is ExecuteCtx over a resolved option set. The cluster's
// processor runs the request; each step reaches the partitions through
// the table's scattered registration:
//
//	fold      State ops    → MergeStates (+ degraded widening)
//	snapshot  Inputs ops   → MergeInputs → CHOOSE_REFRESH (in the processor)
//	refresh   Refresh ops  → plan-order cost fold → merged refold
//
// Bit-identity with a single node holding all tuples is by construction:
// see the package comment and DESIGN.md §14.
func (cl *Cluster) ExecuteConfig(ctx context.Context, q query.Query, cfg query.ExecConfig) (query.Result, error) {
	if cl.closed.Load() {
		return query.Result{}, query.ErrClosed
	}
	cl.queries.Add(1)
	if _, ok := cl.catalog[q.Table]; !ok {
		return query.Result{}, fmt.Errorf("partition: %w: %q not mounted", query.ErrUnknownTable, q.Table)
	}
	return cl.proc.ExecuteConfig(ctx, q, cfg)
}

// ExecuteBatchDetailed implements the server engine surface. The
// coordinator executes batch statements as a sequential per-query loop:
// unlike the single-node batch executor it does not merge the plans into
// shared refresh rounds (cross-partition plan sharing would change
// per-query cost attribution), so a batched statement answers exactly as
// if issued alone — the property the cluster differential test pins.
func (cl *Cluster) ExecuteBatchDetailed(ctx context.Context, qs []query.Query, opts ...query.ExecOption) ([]query.Result, []error, error) {
	if cl.closed.Load() {
		return nil, nil, query.ErrClosed
	}
	for _, q := range qs {
		if _, ok := cl.catalog[q.Table]; !ok {
			return nil, nil, fmt.Errorf("partition: %w: %q not mounted", query.ErrUnknownTable, q.Table)
		}
	}
	cfg := query.BuildExecConfig(opts...)
	results := make([]query.Result, len(qs))
	perQuery := make([]error, len(qs))
	for i, q := range qs {
		res, err := cl.ExecuteConfig(ctx, q, cfg)
		results[i] = res
		switch {
		case err == nil,
			isTyped(err):
			perQuery[i] = err
		default:
			return nil, nil, err
		}
	}
	return results, perQuery, nil
}

// isTyped reports whether an execution error is a per-query outcome
// (partial results the batch keeps) rather than a whole-batch failure.
func isTyped(err error) bool {
	switch err.(type) {
	case query.ErrPrecisionUnmet, query.ErrBudgetExhausted:
		return true
	}
	return parallel.IsContextError(err)
}
