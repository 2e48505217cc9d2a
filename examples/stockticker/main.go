// Command stockticker demonstrates the precision-performance tradeoff of
// the paper's section 5.2.1 experiment on a live portfolio: 90 synthetic
// volatile stocks are replicated into a cache as day-range bounds, and the
// same portfolio-value query is asked at a range of precision constraints.
// Relaxing the constraint lets the system rely more on cached bounds and
// pay less refresh cost — the continuous tradeoff of Figure 1(b).
//
// Run with:
//
//	go run ./examples/stockticker
package main

import (
	"context"
	"fmt"
	"log"

	"trapp"
	"trapp/internal/workload"
)

func main() {
	quotes := workload.StockDay(90, 20000615)

	fmt.Println("TRAPP stock ticker — 90 volatile stocks, SUM(price) at varying precision")
	fmt.Println()
	fmt.Printf("%-12s %-22s %-10s %-10s\n", "WITHIN R", "answer [lo, hi]", "refreshed", "cost")

	var fullCost float64
	for _, q := range quotes {
		fullCost += q.Cost
	}

	for _, r := range []float64{1000, 500, 200, 100, 50, 20, 5, 0} {
		// Fresh cache per constraint so runs are comparable.
		proc := trapp.NewProcessor(trapp.Options{Epsilon: 0.1})
		proc.RegisterStore("stocks", workload.StockStore(quotes), workload.StockMaster(quotes))

		sql := fmt.Sprintf("SELECT SUM(price) WITHIN %g FROM stocks", r)
		query, err := trapp.ParseQueryWith(sql, map[string]*trapp.Schema{
			"stocks": workload.StockSchema(),
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := proc.ExecuteCtx(context.Background(), query)
		if err != nil {
			log.Fatal(err)
		}
		if !res.Met {
			log.Fatalf("R=%g not met", r)
		}
		fmt.Printf("%-12g [%9.2f, %9.2f]  %-10d %-10.0f\n",
			r, res.Answer.Lo, res.Answer.Hi, res.Refreshed, res.RefreshCost)
	}

	fmt.Println()
	fmt.Printf("precise mode (R=0) pays the full cost of %0.f; wide constraints approach 0.\n", fullCost)
	fmt.Println("This is the continuous precision-performance curve of the paper's Figure 6.")
}
