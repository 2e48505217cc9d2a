package query_test

import (
	"context"
	"fmt"

	"trapp/internal/aggregate"
	"trapp/internal/predicate"
	"trapp/internal/query"
	"trapp/internal/refresh"
	"trapp/internal/workload"
)

// The paper's Q6: AVG latency over high-traffic links WITHIN 2. The
// processor combines the cached Figure 2 bounds with the Appendix F
// minimum-cost refresh set {1, 3, 5, 6} and returns [8, 9].
func ExampleProcessor_ExecuteCtx() {
	proc := query.NewProcessor(refresh.Options{Solver: refresh.SolverExactDP})
	table := workload.Figure2Store()
	proc.RegisterStore("links", table, workload.MapOracle(workload.Figure2Master()))

	s := table.Schema()
	q := query.NewQuery("links", aggregate.Avg, workload.ColLatency)
	q.Within = 2
	q.Where = predicate.NewCmp(
		predicate.Column(s.MustLookup(workload.ColTraffic), "traffic"),
		predicate.Gt, predicate.Const(100))

	res, _ := proc.ExecuteCtx(context.Background(), q)
	fmt.Println("query:   ", q)
	fmt.Println("answer:  ", res.Answer)
	fmt.Println("refreshed", res.Refreshed, "tuples at cost", res.RefreshCost)
	// Output:
	// query:    SELECT AVG(links.latency) WITHIN 2 FROM links WHERE traffic > 100
	// answer:   [8, 9]
	// refreshed 4 tuples at cost 15
}

// GROUP BY runs the query once per distinct exact-column group, each
// group independently meeting the precision constraint.
func ExampleProcessor_ExecuteGroupBy() {
	proc := query.NewProcessor(refresh.Options{})
	proc.RegisterStore("links", workload.Figure2Store(), workload.MapOracle(workload.Figure2Master()))

	q := query.NewQuery("links", aggregate.Sum, workload.ColLatency)
	q.Within = 0
	q.GroupBy = []string{"from"}
	rows, _ := proc.ExecuteGroupBy(q)
	for _, row := range rows {
		fmt.Printf("from node %v: %v\n", row.Key[0], row.Result.Answer)
	}
	// Output:
	// from node 1: [3]
	// from node 2: [16]
	// from node 3: [13]
	// from node 4: [11]
	// from node 5: [5]
}
