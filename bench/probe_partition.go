package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"trapp"
	"trapp/internal/aggregate"
	"trapp/internal/partition"
)

// spanNode wraps a partition.Node so every State / Inputs / Refresh call
// the coordinator makes is a span: the partition layer seen from
// outside, one span per scatter leg. Legs of one scatter run on
// goroutines of their own, so the shared recorder is guarded.
type spanNode struct {
	partition.Node
	mu     *sync.Mutex
	rec    *recorder
	parent *int32 // the coordinator call in flight (one client, so one)
}

func (n spanNode) leg(fn func()) {
	n.mu.Lock()
	sp := n.rec.begin(spNodeCall, *n.parent, -1)
	n.mu.Unlock()
	fn()
	n.mu.Lock()
	n.rec.end(sp)
	n.mu.Unlock()
}

func (n spanNode) State(ctx context.Context, shape string) (s aggregate.State, err error) {
	n.leg(func() { s, err = n.Node.State(ctx, shape) })
	return
}

func (n spanNode) Inputs(ctx context.Context, shape string) (in []aggregate.Input, l int, err error) {
	n.leg(func() { in, l, err = n.Node.Inputs(ctx, shape) })
	return
}

func (n spanNode) Refresh(ctx context.Context, shape string, keys []int64) (o partition.RefreshOutcome, err error) {
	n.leg(func() { o, err = n.Node.Refresh(ctx, shape, keys) })
	return
}

// tracedCluster is a coordinator whose node calls are recorded.
type tracedCluster struct {
	cl     *partition.Cluster
	mu     sync.Mutex
	rec    *recorder
	parent int32
}

// newTracedCluster assembles a coordinator over the nodes, each wrapped
// in a spanNode.
func newTracedCluster(nodes []partition.Node) (*tracedCluster, error) {
	tc := &tracedCluster{rec: newRecorder(), parent: -1}
	wrapped := make([]partition.Node, len(nodes))
	for i, n := range nodes {
		wrapped[i] = spanNode{Node: n, mu: &tc.mu, rec: tc.rec, parent: &tc.parent}
	}
	cl, err := partition.New(context.Background(), wrapped, partition.Config{Options: deployOptions})
	if err != nil {
		return nil, err
	}
	tc.cl = cl
	return tc, nil
}

// exec runs one query through the coordinator as a
// partition.cluster.execute span, the parent of the node calls made
// while it is in flight. It makes tracedCluster a target.
func (tc *tracedCluster) exec(ctx context.Context, q *queryOp, _ *recorder, parent, req int32) (trapp.Result, error) {
	tc.mu.Lock()
	tc.parent = tc.rec.begin(spCluster, parent, req)
	tc.mu.Unlock()
	res, err := tc.cl.ExecuteCtx(ctx, q.q, q.opts...)
	tc.mu.Lock()
	tc.rec.end(tc.parent)
	tc.mu.Unlock()
	return res, err
}

// run executes the queries one at a time through the coordinator, each
// a partition.cluster.execute span whose children are its node calls,
// and returns the span totals and the wall time.
func (tc *tracedCluster) run(qs []*queryOp, rounds int, tick func()) ([numSpanNames]spanTotals, time.Duration, error) {
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if tick != nil && i%20 == 0 {
			tick()
		}
		q := qs[i%len(qs)]
		res, err := tc.exec(ctx, q, nil, -1, int32(i))
		if why := checkCheap(q, res, err); why != "" {
			return [numSpanNames]spanTotals{}, 0, fmt.Errorf("partition probe: %s: %s", q.sql, why)
		}
	}
	return totals(tc.rec.spans), time.Since(start), nil
}

// coordMetrics turns a traced coordinator run into the partition
// layer's span metrics.
func coordMetrics(tot [numSpanNames]spanTotals) map[string]float64 {
	n := float64(max(1, tot[spCluster].Count))
	return map[string]float64{
		"partition.coord_self_ns":        float64(tot[spCluster].SelfNS) / n,
		"partition.node_calls_per_query": float64(tot[spNodeCall].Count) / n,
	}
}

// clusterCounters reads a coordinator's own retry and degradation
// counters.
func clusterCounters(cl *partition.Cluster) map[string]float64 {
	m := cl.ClusterMetrics().(partition.Metrics)
	out := map[string]float64{"partition.retries": 0, "partition.degraded": float64(m.Degraded)}
	for _, p := range m.Partitions {
		out["partition.retries"] += float64(p.Retries)
	}
	return out
}

// probePartition measures the partition layer with no wire in it: the
// workload's queries through a coordinator over LocalNodes of the
// deployment's own systems (one node for an embedded workload — the
// 1-node-coordinator rung — three for the cluster workload, where the
// difference to the RemoteNode numbers is the wire hop), and the
// response codecs directly on a real fold state and input snapshot.
func probePartition(dep *deployment, ids []string, qs []*queryOp, div int) (map[string]float64, error) {
	nodes := make([]partition.Node, len(dep.systems))
	for i, sys := range dep.systems {
		nodes[i] = partition.NewLocalNode(ids[i], sys)
	}
	tc, err := newTracedCluster(nodes)
	if err != nil {
		return nil, err
	}
	defer tc.cl.Close()
	rounds := max(10, 400/div)
	tot, wall, err := tc.run(qs, rounds, dep.tick)
	if err != nil {
		return nil, err
	}
	out := coordMetrics(tot)
	out["partition.local_ns_per_query"] = float64(wall) / float64(rounds)
	for k, v := range clusterCounters(tc.cl) {
		out[k] = v
	}

	// Response codecs, on node 0's real answers for the first shape.
	shape := qs[0].q
	shape.Within, shape.RelativeWithin = math.Inf(1), 0
	ctx := context.Background()
	st, err := nodes[0].State(ctx, shape.String())
	if err != nil {
		return nil, err
	}
	out["partition.state_resp_bytes"] = float64(len(partition.AppendStateResp(nil, 1, &st)))
	inputs, n, err := nodes[0].Inputs(ctx, shape.String())
	if err != nil {
		return nil, err
	}
	out["partition.inputs_resp_bytes_per_input"] = float64(len(partition.AppendInputsResp(nil, 1, inputs, n))) / float64(max(1, len(inputs)))
	return out, nil
}
