// Package partition implements the partitioned serving tier: a relation
// sharded by consistent hash of the tuple key across N trappserver
// processes, answered through a thin scatter-gather coordinator. The
// coordinator does not re-implement the single-node three-step
// execution: it owns a query.Processor and registers each table with it
// as a relation scattered over the nodes (scattered.go), so a clustered
// query runs the embedded path's executor and only the folding,
// snapshotting and refreshing fan out (DESIGN.md §14).
//
// The split leans entirely on the engine's canonical-order invariants:
//
//   - Tuples hash into relation.NumCanonicalBuckets canonical buckets
//     (relation.CanonicalBucket), and a partition owns whole buckets
//     (Ring). Every order-sensitive accumulation in the engine is
//     bucket-structured, so a partition's local fold produces exactly
//     the per-bucket subtotals a single node would produce for those
//     buckets.
//   - Each partition folds its tuples into an aggregate.State — a
//     mergeable partial bounded answer. Merging bucket-disjoint states
//     (aggregate.MergeStates) replays the single-node combination
//     operation for operation, so the gathered answer is bit-identical
//     to one node holding all tuples.
//   - Refresh planning runs in the coordinator's processor over the
//     merged canonical input snapshot (aggregate.MergeInputs); the chosen
//     keys scatter back to their owning partitions, and the paid costs
//     fold in plan order, reproducing single-node RefreshCost
//     bit-exactly.
//
// The cluster differential test (cluster_test.go) runs a three-node
// loopback topology in lockstep with a single embedded system over the
// full mutation mix and asserts every interval, plan-cost total, and
// typed error bit-identical.
package partition

import (
	"context"
	"math"

	"trapp/internal/aggregate"
	"trapp/internal/query"
	"trapp/internal/relation"
)

// A Shape is the SQL text of a query with its precision constraint
// stripped — the wire format for query shapes. Query.String() round-trips
// through sql.Parse exactly (fuzz-verified), and String() omits the
// WITHIN clause when the constraint is +Inf, so a shape names
// (table, aggregate, column, predicate) without pinning a precision.
// Nodes parse shapes against their local catalog through a parse cache.
func shapeOf(q query.Query) string {
	q.Within = math.Inf(1)
	q.RelativeWithin = 0
	return q.String()
}

// TableSchema is one table a node serves, advertised in Hello.
type TableSchema struct {
	Name    string
	Columns []relation.Column
}

// Hello is a node's half of the topology exchange: its identity and the
// tables it serves. The coordinator requires all partitions to agree on
// the table set and schemas.
type Hello struct {
	ID     string
	Tables []TableSchema
}

// RefreshOutcome reports one partition's refresh fan-out: which of the
// requested keys actually reached the local table (dropped keys and
// replies that lost to newer pushes are absent), whether a context
// cutoff stopped the fan-out early (the installed keys beat it and are
// charged normally), and the partition's post-refresh fold state.
type RefreshOutcome struct {
	Installed []int64
	Cut       bool
	State     aggregate.State
}

// Update is one partition's standing-query notification: the partition's
// current fold state for the subscribed shape. The coordinator
// re-multiplexes per-partition updates into a merged global answer.
type Update struct {
	Seq   int64
	At    int64
	State aggregate.State
}

// Node is one partition of the serving tier. The embedded LocalNode and
// the framed-wire RemoteNode answer through the same interface, so the
// coordinator — and the differential tests — cannot tell process
// boundaries apart.
//
// All operations are idempotent (State/Inputs are reads; Refresh
// re-installs exact master values), so the coordinator may retry them
// on partition failure.
type Node interface {
	// ID returns the node's stable identity (the ring hashes it).
	ID() string
	// Hello returns the node's topology advertisement.
	Hello(ctx context.Context) (Hello, error)
	// State synchronizes the partition's cache bounds and folds the
	// shape over its local tuples.
	State(ctx context.Context, shape string) (aggregate.State, error)
	// Inputs returns the partition's classified canonical input snapshot
	// for refresh planning, plus its local cardinality at scan time.
	Inputs(ctx context.Context, shape string) ([]aggregate.Input, int, error)
	// Refresh installs exact master values for the given locally-owned
	// keys and reports what actually happened (see RefreshOutcome).
	Refresh(ctx context.Context, shape string, keys []int64) (RefreshOutcome, error)
	// Subscribe opens a standing-query stream for the shape: the node
	// pushes an Update whenever its local answer moves. within is the
	// partition's pro-rata share of the subscription's precision
	// constraint — a repair heuristic only; the coordinator recomputes
	// Met against the full constraint. The channel closes when ctx is
	// canceled or the node tears the stream down.
	Subscribe(ctx context.Context, shape string, within float64) (<-chan Update, error)
	// Close releases the node's resources (connections for remote
	// nodes; a no-op for embedded ones).
	Close() error
}
