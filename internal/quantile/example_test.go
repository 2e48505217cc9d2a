package quantile_test

import (
	"fmt"

	"trapp/internal/quantile"
	"trapp/internal/workload"
)

// The bounded median of the Figure 2 latencies: sorted lower endpoints
// {2,4,5,8,9,12} and upper endpoints {4,6,7,11,11,16} give the 3rd
// smallest of each.
func ExampleMedian() {
	links := workload.Figure2Store()
	lat := links.Schema().MustLookup(workload.ColLatency)
	fmt.Println(quantile.Median(links, lat))
	// Output: [5, 7]
}

// Iteratively refreshing until the median is known within 1 ms.
func ExampleExecuteMedian() {
	links := workload.Figure2Store()
	lat := links.Schema().MustLookup(workload.ColLatency)
	res, _ := quantile.ExecuteMedian(links, lat, 1, workload.MapOracle(workload.Figure2Master()))
	fmt.Println("answer:", res.Answer, "width ≤ 1:", res.Answer.Width() <= 1)
	// Output: answer: [7] width ≤ 1: true
}
