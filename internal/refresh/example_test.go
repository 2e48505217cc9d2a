package refresh_test

import (
	"fmt"

	"trapp/internal/aggregate"
	"trapp/internal/refresh"
	"trapp/internal/workload"
)

// The paper's Q1 worked example (section 5.1): MIN bandwidth along the
// path {1, 2, 5, 6} with R = 10 must refresh exactly tuple 5 — the only
// one whose lower bound is below min(H_k) − R = 55 − 10 = 45.
func ExampleChooseStore() {
	links := workload.Figure2Store()
	links.Delete(3)
	links.Delete(4)
	bw := links.Schema().MustLookup(workload.ColBandwidth)

	plan, err := refresh.ChooseStore(links, bw, aggregate.Min, nil, 10, refresh.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("refresh tuples:", plan.Keys, "cost:", plan.Cost)
	// Output: refresh tuples: [5] cost: 4
}
