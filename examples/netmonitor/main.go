// Command netmonitor reproduces the paper's running example (section 1.1):
// a monitoring station caches bounded latency/bandwidth/traffic figures
// for the six network links of Figure 2 and answers the paper's queries
// Q1–Q6 with precision constraints, printing the bounded answers and
// refresh costs. The answers match the worked examples in sections 5–6
// and Appendices E–F — e.g. Q6 refreshes tuples {1,3,5,6} and returns
// AVG latency [8, 9].
//
// Run with:
//
//	go run ./examples/netmonitor
package main

import (
	"context"
	"fmt"
	"log"

	"trapp"
	"trapp/internal/workload"
)

func main() {
	fmt.Println("TRAPP network monitoring demo — Figure 2 data, queries Q1–Q6")
	fmt.Println()

	type step struct {
		label    string
		sql      string
		note     string
		pathOnly bool // Q1/Q2 run over the path links {1,2,5,6}
	}
	steps := []step{
		{"Q1", "SELECT MIN(bandwidth) WITHIN 10 FROM links",
			"bottleneck bandwidth along N1→N2→N4→N5→N6", true},
		{"Q2", "SELECT SUM(latency) WITHIN 5 FROM links",
			"total latency along the path", true},
		{"Q3", "SELECT AVG(traffic) WITHIN 10 FROM links",
			"average traffic over the whole network", false},
		{"Q4", "SELECT MIN(traffic) WITHIN 10 FROM links WHERE bandwidth > 50 AND latency < 10",
			"minimum traffic over fast links", false},
		{"Q5", "SELECT COUNT(latency) WITHIN 1 FROM links WHERE latency > 10",
			"number of high-latency links", false},
		{"Q6", "SELECT AVG(latency) WITHIN 2 FROM links WHERE traffic > 100",
			"average latency over high-traffic links", false},
	}

	schemas := map[string]*trapp.Schema{"links": workload.LinkSchema()}
	var totalCost float64
	for _, s := range steps {
		// Each query starts from the paper's original cached bounds, so
		// the worked examples reproduce exactly.
		links := workload.Figure2Store()
		if s.pathOnly {
			links.Delete(3)
			links.Delete(4)
		}
		proc := trapp.NewProcessor(trapp.Options{Solver: trapp.SolverExactDP})
		proc.RegisterStore("links", links, workload.MapOracle(workload.Figure2Master()))

		q, err := trapp.ParseQueryWith(s.sql, schemas)
		if err != nil {
			log.Fatalf("%s: %v", s.label, err)
		}
		res, err := proc.ExecuteCtx(context.Background(), q)
		if err != nil {
			log.Fatalf("%s: %v", s.label, err)
		}
		fmt.Printf("%s: %s\n", s.label, s.note)
		fmt.Printf("    %s\n", s.sql)
		fmt.Printf("    cached bound %v  →  answer %v  (refreshed %d tuples, cost %.0f)\n\n",
			res.Initial, res.Answer, res.Refreshed, res.RefreshCost)
		totalCost += res.RefreshCost
	}
	fmt.Printf("total refresh cost across Q1–Q6: %.0f\n", totalCost)
	fmt.Println("(compare: refreshing all 6 tuples for every query would cost 6 × 29 = 174)")
}
