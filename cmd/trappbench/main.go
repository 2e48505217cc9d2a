// Command trappbench regenerates the paper's evaluation figures and the
// DESIGN.md ablations as text tables.
//
// Usage:
//
//	trappbench -experiment fig5      # Figure 5: CHOOSE_REFRESH time & cost vs ε
//	trappbench -experiment fig6      # Figure 6: refresh cost vs precision constraint R
//	trappbench -experiment knapsack  # E5: knapsack solver comparison
//	trappbench -experiment adaptive  # E6: adaptive bound-width policies
//	trappbench -experiment avgbound  # E7: tight vs loose AVG bounds
//	trappbench -experiment modes     # E8: imprecise/TRAPP/precise cost per aggregate
//	trappbench -experiment join      # E9: join refresh planners
//	trappbench -experiment iter      # E10: batch vs iterative execution
//	trappbench -experiment index     # E11: CHOOSE_REFRESH(MIN) scan vs endpoint index
//	trappbench -experiment median    # E12: bounded MEDIAN
//	trappbench -experiment all       # everything
//
// Flags -n, -seed, -reps control workload size, reproducibility, and
// timing repetitions. The serving system's throughput and latency are
// measured by the repository benchmark under bench/, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"trapp/internal/experiment"
)

func main() {
	exp := flag.String("experiment", "all", "which experiment to run (fig5, fig6, knapsack, adaptive, avgbound, modes, join, iter, index, median, all)")
	n := flag.Int("n", 90, "number of data objects (the paper used 90 stocks)")
	seed := flag.Int64("seed", experiment.DefaultSeed, "workload seed")
	reps := flag.Int("reps", 25, "timing repetitions per point")
	flag.Parse()

	runners := map[string]func(){
		"fig5":     func() { fig5(*n, *seed, *reps) },
		"fig6":     func() { fig6(*n, *seed) },
		"knapsack": func() { solvers(*n, *seed) },
		"adaptive": func() { adaptive(*seed) },
		"avgbound": func() { avgBounds(*n, *seed) },
		"modes":    func() { modes(*n, *seed) },
		"join":     func() { joins(*seed) },
		"iter":     func() { iterative(*n, *seed) },
		"index":    func() { indexSpeedup(*seed, *reps) },
		"median":   func() { medians(*n, *seed) },
	}
	order := []string{"fig5", "fig6", "knapsack", "adaptive", "avgbound", "modes", "join", "iter", "index", "median"}
	if *exp == "all" {
		for _, name := range order {
			runners[name]()
			fmt.Println()
		}
		return
	}
	run, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	run()
}

func fig5(n int, seed int64, reps int) {
	fmt.Printf("Figure 5 — CHOOSE_REFRESH(SUM) time and refresh cost vs ε (R=100, n=%d)\n", n)
	eps := []float64{0.1, 0.08, 0.06, 0.04, 0.02, 0.01}
	rows := experiment.Figure5(eps, 100, n, seed, reps)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%.2f", r.Epsilon),
			r.ChooseTime.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", r.RefreshCost),
		})
	}
	experiment.WriteTable(os.Stdout, []string{"epsilon", "choose-time", "refresh-cost"}, cells)
	fmt.Println("shape check: time grows sharply as ε→0 while cost decreases only slightly;")
	fmt.Println("the paper concludes ε below 0.1 is rarely worthwhile (section 5.2.1).")
}

func fig6(n int, seed int64) {
	fmt.Printf("Figure 6 — precision-performance tradeoff (ε=0.1, n=%d)\n", n)
	var rs []float64
	for r := 0.0; r <= 140; r += 10 {
		rs = append(rs, r)
	}
	rows := experiment.Figure6(rs, 0.1, n, seed)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%.0f", r.R),
			fmt.Sprintf("%.0f", r.RefreshCost),
			fmt.Sprintf("%d", r.Refreshed),
		})
	}
	experiment.WriteTable(os.Stdout, []string{"R", "refresh-cost", "tuples-refreshed"}, cells)
	fmt.Println("shape check: continuous, monotonically decreasing — Figure 1(b) instantiated.")
}

func solvers(n int, seed int64) {
	fmt.Printf("E5 — knapsack solver ablation (R=100, n=%d)\n", n)
	rows := experiment.Solvers(100, n, seed)
	var cells [][]string
	for _, r := range rows {
		opt := ""
		if r.Optimal {
			opt = "yes"
		}
		cells = append(cells, []string{
			r.Name,
			r.Time.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", r.RefreshCost),
			opt,
		})
	}
	experiment.WriteTable(os.Stdout, []string{"solver", "time", "refresh-cost", "optimal"}, cells)
}

func adaptive(seed int64) {
	fmt.Println("E6 — adaptive bound width (Appendix A): 20 objects, 120 rounds, query every 5")
	rows := experiment.Adaptive(20, 120, seed)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Policy,
			fmt.Sprintf("%d", r.ValueRefreshes),
			fmt.Sprintf("%d", r.QueryRefreshes),
			fmt.Sprintf("%d", r.TotalMessages),
		})
	}
	experiment.WriteTable(os.Stdout, []string{"policy", "value-refreshes", "query-refreshes", "total"}, cells)
}

func avgBounds(n int, seed int64) {
	fmt.Printf("E7 — tight (Appendix E) vs loose (§6.4.1) AVG bound widths (n=%d)\n", n)
	rows := experiment.AvgBounds(n, seed)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%.2f", r.Selectivity),
			fmt.Sprintf("%.2f", r.TightWidth),
			fmt.Sprintf("%.2f", r.LooseWidth),
		})
	}
	experiment.WriteTable(os.Stdout, []string{"T+ selectivity", "tight-width", "loose-width"}, cells)
}

func modes(n int, seed int64) {
	fmt.Printf("E8 — query modes per aggregate (n=%d): imprecise width, TRAPP cost at R=width/4, precise cost\n", n)
	rows := experiment.Modes(n, seed)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Agg.String(),
			fmt.Sprintf("%.2f", r.ImpreciseW),
			fmt.Sprintf("%.2f", r.TrappR),
			fmt.Sprintf("%.0f", r.TrappCost),
			fmt.Sprintf("%.0f", r.PreciseCost),
		})
	}
	experiment.WriteTable(os.Stdout,
		[]string{"aggregate", "imprecise-width", "trapp-R", "trapp-cost", "precise-cost"}, cells)
}

func iterative(n int, seed int64) {
	fmt.Printf("E10 — batch (§4) vs iterative (§8.2) execution, R = width/4 (n=%d)\n", n)
	rows := experiment.IterativeVsBatch(n, seed)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Agg.String(),
			fmt.Sprintf("%.2f", r.R),
			fmt.Sprintf("%.0f", r.BatchCost),
			fmt.Sprintf("%.0f", r.IterCost),
			fmt.Sprintf("%d", r.IterRounds),
		})
	}
	experiment.WriteTable(os.Stdout,
		[]string{"aggregate", "R", "batch-cost", "iter-cost", "iter-rounds"}, cells)
	fmt.Println("iterative exploits actual refreshed values, so it never pays more.")
}

func indexSpeedup(seed int64, reps int) {
	fmt.Println("E11 — CHOOSE_REFRESH(MIN): O(n) scan vs B-tree endpoint indexes (§5.1, §8.3)")
	rows := experiment.IndexSpeedup([]int{100, 1000, 10000, 100000}, seed, reps)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.N),
			r.ScanTime.Round(time.Nanosecond).String(),
			r.IndexTime.Round(time.Nanosecond).String(),
		})
	}
	experiment.WriteTable(os.Stdout, []string{"n", "scan-time", "indexed-time"}, cells)
}

func medians(n int, seed int64) {
	fmt.Printf("E12 — bounded MEDIAN (§8.1 extension): iterative refresh cost vs R (n=%d)\n", n)
	rows := experiment.Medians([]float64{50, 20, 10, 5, 2, 1, 0}, n, seed)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%.0f", r.R),
			fmt.Sprintf("%.2f", r.InitialW),
			fmt.Sprintf("%d", r.Refreshed),
			fmt.Sprintf("%.0f", r.RefreshCost),
		})
	}
	experiment.WriteTable(os.Stdout, []string{"R", "initial-width", "refreshed", "cost"}, cells)
}

func joins(seed int64) {
	fmt.Println("E9 — join refresh planners (SUM over equi-join with bounded selection, R=5)")
	rows := experiment.Joins(8, 5, seed)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Planner,
			fmt.Sprintf("%.0f", r.RefreshCost),
			fmt.Sprintf("%d", r.Refreshed),
			fmt.Sprintf("%.2f", r.FinalWidth),
		})
	}
	experiment.WriteTable(os.Stdout, []string{"planner", "refresh-cost", "refreshed", "final-width"}, cells)
}
