package partition

import (
	"context"
	"fmt"
	"sync"

	"trapp/internal/aggregate"
	"trapp/internal/cache"
	"trapp/internal/parallel"
	"trapp/internal/query"
	"trapp/internal/relation"
	"trapp/internal/sql"
	itrapp "trapp/internal/trapp"
)

// LocalNode serves one partition from an embedded System: the same
// store, cache, and continuous engine a single-node deployment runs,
// holding only the tuples whose canonical buckets the ring assigns to
// this node. It is both the in-process Node used by the loopback
// differential tests and the engine behind the framed Service a
// trappserver process exposes.
type LocalNode struct {
	id  string
	sys *itrapp.System

	parsed *sql.ParseCache

	// Fold-state memo: State() answers depend only on the shape and the
	// store's mutation counter, so repeat shapes between mutations skip
	// the scan — the partition-side analogue of the processor's plan
	// cache, and what keeps per-query cluster overhead flat when many
	// same-shape queries land between clock advances. The version is
	// read before the scan so a racing mutation can only leave a
	// conservatively stale stamp.
	mu     sync.Mutex
	states map[string]stateEntry
}

type stateEntry struct {
	ver   uint64
	state aggregate.State
}

// maxStateEntries bounds the fold-state memo; the map is cleared
// wholesale when the shape population exceeds it (shapes are few in
// steady workloads).
const maxStateEntries = 128

// NewLocalNode wraps an embedded system as a cluster partition.
func NewLocalNode(id string, sys *itrapp.System) *LocalNode {
	return &LocalNode{id: id, sys: sys, parsed: sql.NewParseCache(), states: make(map[string]stateEntry)}
}

// System returns the embedded system (the trappserver main also serves
// it over the core framed protocol).
func (n *LocalNode) System() *itrapp.System { return n.sys }

// ID implements Node.
func (n *LocalNode) ID() string { return n.id }

// Close implements Node; the embedded system's lifecycle belongs to its
// owner.
func (n *LocalNode) Close() error { return nil }

// Hello implements Node.
func (n *LocalNode) Hello(ctx context.Context) (Hello, error) {
	if err := ctx.Err(); err != nil {
		return Hello{}, err
	}
	h := Hello{ID: n.id}
	for _, name := range n.sys.Tables() {
		sch := n.sys.MountedCache(name).Schema()
		ts := TableSchema{Name: name}
		for i := 0; i < sch.NumColumns(); i++ {
			ts.Columns = append(ts.Columns, sch.Column(i))
		}
		h.Tables = append(h.Tables, ts)
	}
	return h, nil
}

// resolve parses a shape against the local catalog and locates the
// backing cache and aggregation column.
func (n *LocalNode) resolve(shape string) (query.Query, *cache.Cache, *relation.Store, int, error) {
	st, err := n.parsed.Parse(shape, n.sys.Catalog())
	if err != nil {
		return query.Query{}, nil, nil, 0, err
	}
	if len(st.Queries) != 1 || st.Explain {
		return query.Query{}, nil, nil, 0, fmt.Errorf("partition: shape must be a single plain query: %q", shape)
	}
	q := st.Queries[0]
	if len(q.GroupBy) > 0 {
		return query.Query{}, nil, nil, 0, fmt.Errorf("partition: GROUP BY shapes are not supported: %q", shape)
	}
	c := n.sys.MountedCache(q.Table)
	if c == nil {
		return query.Query{}, nil, nil, 0, fmt.Errorf("partition: %w: %q not mounted", query.ErrUnknownTable, q.Table)
	}
	col, ok := c.Schema().Lookup(q.Column)
	if !ok {
		return query.Query{}, nil, nil, 0, fmt.Errorf("partition: %w: %q.%q", query.ErrUnknownColumn, q.Table, q.Column)
	}
	return q, c, c.Store(), col, nil
}

// State implements Node: sync the cache bounds, then fold the shape over
// the local tuples (memoized per store version).
func (n *LocalNode) State(ctx context.Context, shape string) (aggregate.State, error) {
	if err := ctx.Err(); err != nil {
		return aggregate.State{}, err
	}
	q, c, store, col, err := n.resolve(shape)
	if err != nil {
		return aggregate.State{}, err
	}
	c.Sync()
	ver := store.Version()
	n.mu.Lock()
	if ent, ok := n.states[shape]; ok && ent.ver == ver {
		n.mu.Unlock()
		return ent.state, nil
	}
	n.mu.Unlock()
	s := aggregate.CollectState(store, col, q.Agg, q.Where)
	n.storeState(shape, ver, s)
	return s, nil
}

func (n *LocalNode) storeState(shape string, ver uint64, s aggregate.State) {
	n.mu.Lock()
	if len(n.states) >= maxStateEntries {
		clear(n.states)
	}
	n.states[shape] = stateEntry{ver: ver, state: s}
	n.mu.Unlock()
}

// Inputs implements Node: the partition's classified canonical snapshot
// for refresh planning. Input.Index is partition-local; the coordinator
// reassigns canonical positions when merging (aggregate.MergeInputs).
func (n *LocalNode) Inputs(ctx context.Context, shape string) ([]aggregate.Input, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	q, c, store, col, err := n.resolve(shape)
	if err != nil {
		return nil, 0, err
	}
	c.Sync()
	inputs, tableLen := aggregate.CollectStore(store, col, q.Where, true, 1)
	return inputs, tableLen, nil
}

// Refresh implements Node: fan out exact-value fetches for the keys the
// coordinator's plan assigned to this partition, then refold. A context
// cutoff mid-fan-out keeps the refreshes that beat it (installed and
// reported in Installed) and sets Cut; the coordinator charges exactly
// the installed keys, in plan order. A hard error is returned, but
// alongside an outcome that still reports what was installed before it.
func (n *LocalNode) Refresh(ctx context.Context, shape string, keys []int64) (RefreshOutcome, error) {
	var out RefreshOutcome
	if err := ctx.Err(); err != nil {
		return out, err
	}
	q, c, store, col, err := n.resolve(shape)
	if err != nil {
		return out, err
	}
	c.Sync()
	set, err := c.Refresh(ctx, keys)
	if parallel.IsContextError(err) {
		out.Cut, err = true, nil
	}
	for i, key := range keys {
		if set.Installed[i] {
			out.Installed = append(out.Installed, key)
		}
	}
	ver := store.Version()
	out.State = aggregate.CollectState(store, col, q.Agg, q.Where)
	n.storeState(shape, ver, out.State)
	return out, err
}

// Subscribe implements Node: register a standing query for the shape
// with the local continuous engine and translate its notifications into
// fold-state updates. within is the pro-rata repair target for the local
// engine's refresh scheduler; the coordinator recomputes the merged
// answer's Met against the subscription's full constraint.
func (n *LocalNode) Subscribe(ctx context.Context, shape string, within float64) (<-chan Update, error) {
	q, _, store, col, err := n.resolve(shape)
	if err != nil {
		return nil, err
	}
	q.Within = within
	sub, err := n.sys.SubscribeCtx(ctx, q)
	if err != nil {
		return nil, err
	}
	ch := make(chan Update, 1)
	go func() {
		defer close(ch)
		for u := range sub.Updates() {
			st := aggregate.CollectState(store, col, q.Agg, q.Where)
			pu := Update{Seq: u.Seq, At: u.At, State: st}
			// Coalesce like the continuous engine: a slow coordinator
			// sees the latest state, not a backlog.
			select {
			case ch <- pu:
			default:
				select {
				case <-ch:
				default:
				}
				select {
				case ch <- pu:
				default:
				}
			}
		}
	}()
	return ch, nil
}
