package partition_test

// The coordinator's partial-failure paths, driven by a Node that fails
// on demand: the last-good-state fallback and its widening, the typed
// error an unmet degraded answer carries, the hard error when there is
// nothing to fall back to, a partition excluded from planning, the
// health counters, and the context error winning over an attempt's.

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"trapp/internal/aggregate"
	"trapp/internal/experiment"
	"trapp/internal/netsim"
	"trapp/internal/partition"
	"trapp/internal/predicate"
	"trapp/internal/query"
	"trapp/internal/refresh"
	itrapp "trapp/internal/trapp"
	"trapp/internal/workload"
)

var errInjected = errors.New("injected node failure")

// flakyNode fails State or Inputs while the matching switch is set,
// running onFail (if any) just before it does.
type flakyNode struct {
	partition.Node
	failState, failInputs atomic.Bool
	onFail                func()
}

func (f *flakyNode) State(ctx context.Context, shape string) (aggregate.State, error) {
	if f.failState.Load() {
		if f.onFail != nil {
			f.onFail()
		}
		return aggregate.State{}, errInjected
	}
	return f.Node.State(ctx, shape)
}

func (f *flakyNode) Inputs(ctx context.Context, shape string) ([]aggregate.Input, int, error) {
	if f.failInputs.Load() {
		return nil, 0, errInjected
	}
	return f.Node.Inputs(ctx, shape)
}

// flakyCluster is a coordinator over the partitions' LocalNodes, each
// behind a flakyNode, with the given degradation slack.
func flakyCluster(t *testing.T, parts []*itrapp.System, slack float64) (*partition.Cluster, []*flakyNode) {
	t.Helper()
	flaky := make([]*flakyNode, len(parts))
	nodes := make([]partition.Node, len(parts))
	for i, id := range experiment.PartitionIDs(len(parts)) {
		flaky[i] = &flakyNode{Node: partition.NewLocalNode(id, parts[i])}
		nodes[i] = flaky[i]
	}
	cl, err := partition.New(context.Background(), nodes, partition.Config{
		Options:       refresh.Options{Solver: refresh.SolverGreedyDensity},
		DegradedSlack: slack,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl, flaky
}

func TestClusterDegradedFallback(t *testing.T) {
	_, _, parts, _, _ := buildPair(t)
	const slack = 2.5
	cl, flaky := flakyCluster(t, parts, slack)
	ctx := context.Background()
	q := query.NewQuery("links", aggregate.Sum, workload.ColLatency)

	healthy, err := cl.ExecuteCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	// One partition down: its last good state stands in and the merged
	// answer widens by the slack; unconstrained, that is still met.
	flaky[1].failState.Store(true)
	res, err := cl.ExecuteCtx(ctx, q)
	if err != nil {
		t.Fatalf("degraded but met: %v", err)
	}
	if want := healthy.Answer.Expand(slack); res.Initial != want || res.Answer != want || !res.Met {
		t.Fatalf("one degraded partition: initial %v answer %v met %t, want %v", res.Initial, res.Answer, res.Met, want)
	}

	// Two down: the widening is per degraded partition.
	flaky[2].failState.Store(true)
	res, err = cl.ExecuteCtx(ctx, q)
	if err != nil {
		t.Fatalf("degraded but met: %v", err)
	}
	if want := healthy.Answer.Expand(2 * slack); res.Answer != want {
		t.Fatalf("two degraded partitions: answer %v, want %v", res.Answer, want)
	}
	flaky[2].failState.Store(false)

	// Same shape, now constrained: the stale partition cannot be
	// refreshed, so the request stops at the widened answer and says why.
	tight := q
	tight.Within = 0.01
	res, err = cl.ExecuteCtx(ctx, tight)
	var unmet query.ErrPrecisionUnmet
	if !errors.As(err, &unmet) {
		t.Fatalf("degraded and unmet: error %v, want ErrPrecisionUnmet", err)
	}
	if unmet.Spent != 0 || !errors.Is(unmet.Cause, errInjected) || unmet.Achieved != res.Answer {
		t.Fatalf("degraded and unmet: %+v beside answer %v", unmet, res.Answer)
	}
	if want := healthy.Answer.Expand(slack); res.Answer != want || res.Met || res.Refreshed != 0 {
		t.Fatalf("degraded and unmet: answer %v met %t refreshed %d, want %v unrefreshed", res.Answer, res.Met, res.Refreshed, want)
	}

	// A shape the coordinator never saw has no fallback: without the
	// partition's tuples any answer would be unsound.
	fresh := query.NewQuery("links", aggregate.Max, workload.ColBandwidth)
	_, err = cl.ExecuteCtx(ctx, fresh)
	if err == nil || !errors.Is(err, errInjected) || !strings.Contains(err.Error(), "partition p1") {
		t.Fatalf("no fallback: error %v, want a hard error naming partition p1", err)
	}

	m := cl.ClusterMetrics().(partition.Metrics)
	if m.Degraded != 3 {
		t.Errorf("degraded queries = %d, want 3", m.Degraded)
	}
	for i, want := range []int64{0, 3, 1} {
		if got := m.Partitions[i].Degraded; got != want {
			t.Errorf("partition %d degraded %d times, want %d", i, got, want)
		}
	}
}

// TestClusterInputsFailureExcludesPartition: a partition that folds but
// cannot hand over its inputs contributes no refresh candidates and
// keeps its step-1 state in the final merge.
func TestClusterInputsFailureExcludesPartition(t *testing.T) {
	_, _, parts, netP, ring := buildPair(t)
	cl, flaky := flakyCluster(t, parts, 0)
	for _, p := range parts {
		p.Clock.Advance(5)
	}
	flaky[1].failInputs.Store(true)

	ctx := context.Background()
	q := query.NewQuery("links", aggregate.Sum, workload.ColLatency)
	q.Within = 0
	res, err := cl.ExecuteCtx(ctx, q, query.WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	elsewhere := 0
	for _, l := range netP.Links {
		if ring.OwnerOfKey(l.Key) != 1 {
			elsewhere++
		}
	}
	if res.Refreshed != elsewhere {
		t.Errorf("refreshed %d tuples, want the %d outside partition p1", res.Refreshed, elsewhere)
	}
	for _, sp := range res.Trace.Snapshot().Root.Children {
		for _, key := range sp.Keys {
			if ring.OwnerOfKey(key) == 1 {
				t.Errorf("span %s refreshed key %d of the excluded partition", sp.Name, key)
			}
		}
	}
	// Nothing moved since the request, so each partition's current fold
	// is what the final merge used: refreshed on p0 and p2, step-1 on p1.
	shape := query.NewQuery("links", aggregate.Sum, workload.ColLatency).String()
	states := make([]*aggregate.State, len(flaky))
	for i, n := range flaky {
		st, err := n.State(ctx, shape)
		if err != nil {
			t.Fatal(err)
		}
		states[i] = &st
	}
	if w := states[1].Answer().Width(); w == 0 {
		t.Fatal("the excluded partition's bounds are exact; the test shows nothing")
	}
	merged := aggregate.MergeStates(q.Agg, predicate.IsTrivial(q.Where), states)
	want := merged.Answer()
	if res.Answer != want {
		t.Errorf("answer %v, want the merge %v of refreshed p0, p2 and unrefreshed p1", res.Answer, want)
	}
}

// TestClusterCancelledCallSurfacesContextError: when the request's
// context ends while a partition attempt fails, the caller sees the
// context error, not the attempt's.
func TestClusterCancelledCallSurfacesContextError(t *testing.T) {
	_, _, parts, _, _ := buildPair(t)
	cl, flaky := flakyCluster(t, parts, 1)
	q := query.NewQuery("links", aggregate.Sum, workload.ColLatency)
	if _, err := cl.ExecuteCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	flaky[0].onFail = cancel
	flaky[0].failState.Store(true)
	_, err := cl.ExecuteCtx(ctx, q)
	if !errors.Is(err, context.Canceled) || errors.Is(err, errInjected) {
		t.Fatalf("error %v, want the context's cancellation", err)
	}
}

// TestHardErrorStillAccountsPaidRefreshes is the embedded regression of
// the same name over three partitions, embedded and over loopback: an
// object removed at its source under propagation slack makes that
// source's batch fail on one partition, while every other batch — on
// that partition and the others — was charged and installed. The result
// must report exactly what the partitions' ledgers say was paid, the
// traced cost must agree, and the error must still be returned. Over
// the wire, the refresh error frame carries what was installed.
func TestHardErrorStillAccountsPaidRefreshes(t *testing.T) {
	legs := []struct {
		name string
		node func(t *testing.T, id string, sys *itrapp.System) partition.Node
	}{
		{"embedded", func(_ *testing.T, id string, sys *itrapp.System) partition.Node {
			return partition.NewLocalNode(id, sys)
		}},
		{"remote", func(t *testing.T, id string, sys *itrapp.System) partition.Node {
			return partition.NewRemoteNode(id, startPartitionServer(t, id, sys))
		}},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			_, _, parts, netP, ring := buildPair(t)
			nodes := make([]partition.Node, len(parts))
			for i, id := range experiment.PartitionIDs(len(parts)) {
				nodes[i] = leg.node(t, id, parts[i])
			}
			requirePaidRefreshesAccounted(t, newCluster(t, nodes), parts, netP, ring)
		})
	}
}

func requirePaidRefreshesAccounted(t *testing.T, cl *partition.Cluster, parts []*itrapp.System, netP *workload.Network, ring *partition.Ring) {
	// Remove link 1 (source s1) at its owner, the delete held back.
	victim := netP.Links[1]
	owner := parts[ring.OwnerOfKey(victim.Key)]
	src := owner.Source("s1")
	src.SetPropagationSlack(4)
	owner.Cache("monitor").WatchSource(src)
	if err := src.RemoveObject(victim.Key); err != nil {
		t.Fatal(err)
	}
	if src.Pending() != 1 {
		t.Fatalf("the delete was not held back: %d pending", src.Pending())
	}
	for _, p := range parts {
		p.Clock.Advance(10)
	}

	ledger := func() (cost float64, msgs int64) {
		for _, p := range parts {
			st := p.Stats()
			cost += st.QueryRefreshCost
			msgs += st.Messages[netsim.QueryRefresh]
		}
		return cost, msgs
	}
	q := query.NewQuery("links", aggregate.Sum, workload.ColLatency)
	q.Within = 0
	costBefore, msgsBefore := ledger()
	res, err := cl.ExecuteCtx(context.Background(), q, query.WithTrace())
	costAfter, msgsAfter := ledger()
	if err == nil || !strings.Contains(err.Error(), "no object") {
		t.Fatalf("error = %v, want the source's missing object", err)
	}
	paid, msgs := costAfter-costBefore, msgsAfter-msgsBefore
	if paid == 0 || res.RefreshCost != paid || int64(res.Refreshed) != msgs {
		t.Errorf("result reports %d refreshes costing %g; the partitions' networks carried %d costing %g",
			res.Refreshed, res.RefreshCost, msgs, paid)
	}
	if res.Trace == nil {
		t.Error("no trace recorded")
	} else if traced := res.Trace.TotalCost(); traced != res.RefreshCost {
		t.Errorf("trace cost %g, result cost %g", traced, res.RefreshCost)
	}
}
