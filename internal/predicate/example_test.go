package predicate_test

import (
	"fmt"

	"trapp/internal/predicate"
	"trapp/internal/workload"
)

// Classifying the Figure 2 links under Q4's predicate
// (bandwidth > 50 AND latency < 10): tuple 1 certainly satisfies it,
// tuple 3 certainly does not, the rest are uncertain (Figure 7).
func ExampleClassifyTuple() {
	links := workload.Figure2Store()
	s := links.Schema()
	p := predicate.NewAnd(
		predicate.NewCmp(predicate.Column(s.MustLookup(workload.ColBandwidth), "bandwidth"),
			predicate.Gt, predicate.Const(50)),
		predicate.NewCmp(predicate.Column(s.MustLookup(workload.ColLatency), "latency"),
			predicate.Lt, predicate.Const(10)),
	)
	for _, key := range links.SortedKeys() {
		tu, _ := links.Get(key)
		fmt.Println(key, predicate.ClassifyTuple(p, &tu))
	}
	// Output:
	// 1 T+
	// 2 T?
	// 3 T-
	// 4 T?
	// 5 T?
	// 6 T?
}

// The Appendix D refinement: when the predicate restricts the aggregation
// column itself, T? bounds shrink to the restriction before aggregation.
func ExampleRestriction() {
	p := predicate.NewCmp(predicate.Column(0, "latency"), predicate.Gt, predicate.Const(10))
	r := predicate.Restriction(p, 0)
	fmt.Println(r, workload.Figure2()[4].Latency.Intersect(r)) // tuple 5: [8, 11]
	// Output: [10, +Inf] [10, 11]
}
