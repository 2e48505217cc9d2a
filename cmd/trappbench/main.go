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
//	trappbench -experiment all       # everything
//	trappbench -concurrency 8        # E13: closed-loop multi-client throughput
//	trappbench -updaters 4           # E15: mixed read/write throughput (open-loop pushes)
//	trappbench -subscribers 1000     # E14: push subscriptions vs naive poll loop
//	trappbench -budget 20            # E13 with cost-budgeted clients (WithCostBudget)
//	trappbench -batch 64             # E16: one ExecuteBatch vs N sequential ExecuteCtx
//	trappbench -remote host:7090     # E17: E13 clients over HTTP against a live trappserver,
//	                                 # verifying wire answers bit-identical to in-process first
//	trappbench -scale 100000         # E18: adversarial scale workload — Zipf-sized tenants,
//	                                 # Zipfian query/update skew, regime switches (warm →
//	                                 # steady → hot burst → drift) with per-phase reporting;
//	                                 # add -remote to drive a trappserver -objects N instead
//
// Flags -n, -seed, -reps control workload size, reproducibility, and
// timing repetitions. The concurrent benchmark additionally honors
// -duration (measurement window), -warmup (excluded from measurement so
// adaptive widths converge first), and compares against a single-client
// run when -concurrency > 1; the mixed mode honors -pushrate (aggregate
// open-loop pushes/second; 0 = closed-loop) and runs a read-mostly row
// first for contrast; the subscription benchmark honors -rounds.
// -json <path> additionally writes the machine-readable results of the
// concurrent and subscription benchmarks (QPS, latency percentiles,
// refresh traffic) for BENCH_*.json perf-trajectory files
// (BENCH_sharding.json combines a pre-shard baseline run with the
// sharded engine's run of the same E15 workload).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"trapp/internal/experiment"
)

// benchOutput is the -json payload.
type benchOutput struct {
	Name          string                              `json:"name"`
	GeneratedAt   string                              `json:"generated_at"`
	Seed          int64                               `json:"seed"`
	Concurrent    []experiment.ConcurrentResult       `json:"concurrent,omitempty"`
	Subscriptions *experiment.SubscriptionsComparison `json:"subscriptions,omitempty"`
	Batch         *experiment.BatchComparison         `json:"batch,omitempty"`
	Remote        *experiment.RemoteResult            `json:"remote,omitempty"`
	Scale         *experiment.ScaleResult             `json:"scale,omitempty"`
}

var out benchOutput

func main() {
	exp := flag.String("experiment", "all", "which experiment to run (fig5, fig6, knapsack, adaptive, avgbound, modes, join, iter, index, median, concurrent, subscriptions, all)")
	n := flag.Int("n", 90, "number of data objects (the paper used 90 stocks)")
	seed := flag.Int64("seed", experiment.DefaultSeed, "workload seed")
	reps := flag.Int("reps", 25, "timing repetitions per point")
	concurrency := flag.Int("concurrency", 8, "client goroutines for the concurrent benchmark")
	updaters := flag.Int("updaters", 0, "updater goroutines for the mixed read/write concurrent benchmark (0: legacy background sweeper)")
	pushRate := flag.Float64("pushrate", 250000, "aggregate open-loop push rate for the mixed benchmark, pushes/sec (0: closed-loop)")
	duration := flag.Duration("duration", 2*time.Second, "measurement window for the concurrent benchmark")
	warmup := flag.Duration("warmup", time.Second, "warmup before the concurrent benchmark's measurement window")
	subscribers := flag.Int("subscribers", 1000, "standing queries for the subscription benchmark")
	budget := flag.Float64("budget", 0, "per-request cost budget for the concurrent benchmark's clients (0: off)")
	batchN := flag.Int("batch", 64, "queries per batch for the batch-execution benchmark")
	rounds := flag.Int("rounds", 60, "update/tick rounds for the subscription benchmark")
	remoteAddr := flag.String("remote", "", "drive a live trappserver at this address (E13 over HTTP) instead of an in-process system")
	verifyN := flag.Int("verify", 200, "queries to verify bit-identical against a local mirror before the -remote window (0: skip; needs a static server)")
	wire := flag.String("wire", "http", "transport for the -remote window: http (JSON over POST /query) or framed (persistent binary protocol)")
	pipeline := flag.Int("pipeline", 32, "requests in flight per connection on the framed wire")
	scaleN := flag.Int("scale", 100000, "object population for the adversarial scale benchmark")
	tenants := flag.Int("tenants", 32, "tenant tables for the scale benchmark (Zipf-sized)")
	scaleSubs := flag.Int("scalesubs", 200, "standing queries registered during the scale benchmark")
	zipfQ := flag.Float64("zipfq", 1.1, "steady-phase Zipf exponent for query tenant selection")
	zipfU := flag.Float64("zipfu", 1.2, "steady-phase Zipf exponent for update object selection")
	phaseTicks := flag.Int64("phaseticks", 300, "logical-clock ticks per regime phase (100 ticks/s)")
	scalePush := flag.Float64("scalepush", 20000, "baseline aggregate push rate for the scale benchmark, pushes/sec")
	jsonPath := flag.String("json", "", "write machine-readable results (concurrent + subscription benchmarks) to this file")
	flag.Parse()

	// `trappbench -concurrency N` / `-subscribers N` alone run the
	// corresponding benchmark.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if !explicit["experiment"] {
		switch {
		case explicit["scale"] || explicit["tenants"] || explicit["zipfq"] || explicit["zipfu"] || explicit["phaseticks"]:
			*exp = "scale"
		case explicit["remote"]:
			*exp = "remote"
		case explicit["batch"]:
			*exp = "batch"
		case explicit["subscribers"] || explicit["rounds"]:
			*exp = "subscriptions"
		case explicit["concurrency"] || explicit["updaters"] || explicit["budget"]:
			*exp = "concurrent"
		}
	}

	runners := map[string]func(){
		"remote": func() { remote(*remoteAddr, *concurrency, *verifyN, *duration, *warmup, *wire, *pipeline) },
		"scale": func() {
			scale(*remoteAddr, experiment.ScaleOptions{
				Objects:       *scaleN,
				Tenants:       *tenants,
				Clients:       *concurrency,
				Updaters:      4,
				Subscribers:   *scaleSubs,
				QueryS:        *zipfQ,
				UpdateS:       *zipfU,
				TicksPerPhase: *phaseTicks,
				PushRate:      *scalePush,
				Seed:          *seed,
			})
		},
		"concurrent":    func() { concurrent(*concurrency, *updaters, *n, *seed, *duration, *warmup, *pushRate, *budget) },
		"subscriptions": func() { subscriptions(*subscribers, *n, *seed, *rounds) },
		"batch":         func() { batch(*batchN, *n, *seed) },
		"fig5":          func() { fig5(*n, *seed, *reps) },
		"fig6":          func() { fig6(*n, *seed) },
		"knapsack":      func() { solvers(*n, *seed) },
		"adaptive":      func() { adaptive(*seed) },
		"avgbound":      func() { avgBounds(*n, *seed) },
		"modes":         func() { modes(*n, *seed) },
		"join":          func() { joins(*seed) },
		"iter":          func() { iterative(*n, *seed) },
		"index":         func() { indexSpeedup(*seed, *reps) },
		"median":        func() { medians(*n, *seed) },
	}
	order := []string{"fig5", "fig6", "knapsack", "adaptive", "avgbound", "modes", "join", "iter", "index", "median", "concurrent", "subscriptions", "batch"}
	out.Name = *exp
	out.Seed = *seed
	out.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	if *exp == "all" {
		for _, name := range order {
			runners[name]()
			fmt.Println()
		}
		writeJSON(*jsonPath)
		return
	}
	run, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	run()
	writeJSON(*jsonPath)
}

// writeJSON dumps the collected machine-readable results.
func writeJSON(path string) {
	if path == "" {
		return
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "encode -json results: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "write -json results: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
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

func concurrent(clients, updaters, n int, seed int64, duration, warmup time.Duration, pushRate, budget float64) {
	const sources = 8
	type run struct{ clients, updaters int }
	var runs []run
	if updaters > 0 {
		// Mixed read/write mode: the read-mostly run first so the cost of
		// concurrent source pushes is visible in the same table.
		fmt.Printf("E15 — mixed read/write throughput (links=%d, sources=%d, updaters=%d, push-rate=%.0f/s, window=%v)\n",
			n, sources, updaters, pushRate, duration)
		runs = []run{{clients, 0}, {clients, updaters}}
	} else if budget > 0 {
		fmt.Printf("E13b — cost-budgeted concurrent throughput (links=%d, sources=%d, budget=%g, window=%v)\n",
			n, sources, budget, duration)
		runs = []run{{clients, 0}}
	} else {
		fmt.Printf("E13 — closed-loop concurrent throughput (links=%d, sources=%d, window=%v)\n",
			n, sources, duration)
		runs = []run{{clients, 0}}
		if clients > 1 {
			runs = []run{{1, 0}, {clients, 0}} // baseline first so the speedup is visible
		}
	}
	var cells [][]string
	var qps []float64
	for _, r := range runs {
		res, err := experiment.ConcurrentWarm(r.clients, r.updaters, n, sources, seed, duration, warmup, pushRate, budget)
		if err != nil {
			fmt.Fprintf(os.Stderr, "concurrent benchmark: %v\n", err)
			os.Exit(1)
		}
		qps = append(qps, res.QPS)
		out.Concurrent = append(out.Concurrent, res)
		cells = append(cells, []string{
			fmt.Sprintf("%d", res.Clients),
			fmt.Sprintf("%d", res.Updaters),
			fmt.Sprintf("%d", res.Queries),
			fmt.Sprintf("%.0f", res.QPS),
			fmt.Sprintf("%.0f", res.PushRate),
			res.P50.Round(time.Microsecond).String(),
			res.P99.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", res.Refreshes),
			fmt.Sprintf("%.0f", res.RefreshCost),
			fmt.Sprintf("%d", res.BudgetExhausted),
		})
	}
	experiment.WriteTable(os.Stdout,
		[]string{"clients", "updaters", "queries", "qps", "pushes/s", "p50", "p99", "refreshes", "refresh-cost", "budget-exh"}, cells)
	if len(qps) == 2 && updaters == 0 {
		fmt.Printf("speedup: %.2fx aggregate QPS at %d clients vs 1\n", qps[1]/qps[0], clients)
	}
}

func subscriptions(subscribers, links int, seed int64, rounds int) {
	const sources = 8
	fmt.Printf("E14 — push subscriptions vs naive per-subscription poll loop "+
		"(subscribers=%d, links=%d, sources=%d, rounds=%d, update-fraction=%g)\n",
		subscribers, links, sources, rounds, experiment.UpdateFraction)
	cmp, err := experiment.SubscriptionsCompare(subscribers, links, sources, rounds, seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "subscription benchmark: %v\n", err)
		os.Exit(1)
	}
	out.Subscriptions = &cmp
	row := func(r experiment.SubscriptionModeResult) []string {
		return []string{
			r.Mode,
			fmt.Sprintf("%d", r.Deliveries),
			fmt.Sprintf("%.0f", r.DeliveriesPerSec),
			fmt.Sprintf("%d", r.QueryRefreshes),
			fmt.Sprintf("%.0f", r.QueryRefreshCost),
			fmt.Sprintf("%.0f", r.ValueRefreshCost),
			fmt.Sprintf("%.0f", r.TotalRefreshCost),
			r.RepairP50.Round(time.Microsecond).String(),
			r.RepairP99.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", r.Unmet),
		}
	}
	experiment.WriteTable(os.Stdout,
		[]string{"mode", "deliveries", "deliv/s", "q-refreshes", "q-cost", "v-cost", "total-cost", "repair-p50", "repair-p99", "unmet"},
		[][]string{row(cmp.Poll), row(cmp.Push)})
	fmt.Printf("shared refreshes (one payment serving >1 subscription): %d across %d views\n",
		cmp.Push.SharedRefreshes, cmp.Push.Views)
	fmt.Printf("refresh-cost ratio (poll/push) for the same delivered precision: %.2fx\n",
		cmp.RefreshCostRatio)
}

func batch(batchN, links int, seed int64) {
	const sources = 8
	fmt.Printf("E16 — one ExecuteBatch vs %d sequential ExecuteCtx with E13 drift between queries "+
		"(links=%d, sources=%d)\n", batchN, links, sources)
	cmp, err := experiment.BatchCompare(batchN, links, sources, seed, true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "batch benchmark: %v\n", err)
		os.Exit(1)
	}
	out.Batch = &cmp
	row := func(r experiment.BatchModeResult) []string {
		return []string{
			r.Mode,
			fmt.Sprintf("%d", r.QueryRefreshes),
			fmt.Sprintf("%.0f", r.QueryRefreshCost),
			fmt.Sprintf("%.0f", r.ValueRefreshCost),
			r.Elapsed.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", r.Unmet),
		}
	}
	experiment.WriteTable(os.Stdout,
		[]string{"mode", "q-refreshes", "q-cost", "v-cost", "exec-time", "unmet"},
		[][]string{row(cmp.Sequential), row(cmp.Batch)})
	fmt.Printf("refresh-cost ratio (sequential/batch): %.2fx; message ratio: %.2fx\n",
		cmp.CostRatio, cmp.MessageRatio)
	fmt.Printf("per-query answers verified bit-identical to standalone execution: %v\n", cmp.Verified)
}

func remote(addr string, clients, verifyN int, duration, warmup time.Duration, wire string, pipeline int) {
	if addr == "" {
		fmt.Fprintln(os.Stderr, "remote mode needs -remote <addr> (a live trappserver)")
		os.Exit(2)
	}
	fmt.Printf("E17 — closed-loop throughput over the %s wire against %s (clients=%d, pipeline=%d, verify=%d, window=%v)\n",
		wire, addr, clients, pipeline, verifyN, duration)
	res, err := experiment.Remote(addr, clients, verifyN, duration, warmup, wire, pipeline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "remote benchmark: %v\n", err)
		os.Exit(1)
	}
	out.Remote = &res
	if verifyN > 0 {
		fmt.Printf("verified %d wire answers bit-identical to in-process execution (over the %s wire)\n",
			res.Verified, res.Wire)
	}
	experiment.WriteTable(os.Stdout,
		[]string{"wire", "clients", "queries", "qps", "p50", "p99", "refresh-cost", "partial", "rejected", "allocs/op c|s", "plan-hit"},
		[][]string{{
			res.Wire,
			fmt.Sprintf("%d", res.Clients),
			fmt.Sprintf("%d", res.Queries),
			fmt.Sprintf("%.0f", res.QPS),
			res.P50.Round(time.Microsecond).String(),
			res.P99.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", res.RefreshCost),
			fmt.Sprintf("%d", res.PartialOutcomes),
			fmt.Sprintf("%d", res.Rejected),
			fmt.Sprintf("%.0f|%.0f", res.ClientAllocsPerOp, res.ServerAllocsPerOp),
			fmt.Sprintf("%.2f", res.PlanCacheHitRate),
		}})
}

func scale(remoteAddr string, opts experiment.ScaleOptions) {
	var res experiment.ScaleResult
	var err error
	if remoteAddr != "" {
		fmt.Printf("E18r — adversarial scale workload over HTTP against %s (clients=%d, phase=%d ticks)\n",
			remoteAddr, opts.Clients, opts.TicksPerPhase)
		res, err = experiment.ScaleRemote(remoteAddr, opts)
	} else {
		fmt.Printf("E18 — adversarial scale workload (objects=%d, tenants=%d, clients=%d, updaters=%d, subs=%d, zipf q/u=%.1f/%.1f, phase=%d ticks)\n",
			opts.Objects, opts.Tenants, opts.Clients, opts.Updaters, opts.Subscribers,
			opts.QueryS, opts.UpdateS, opts.TicksPerPhase)
		res, err = experiment.Scale(opts)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "scale benchmark: %v\n", err)
		os.Exit(1)
	}
	out.Scale = &res
	var cells [][]string
	for _, p := range res.Phases {
		cells = append(cells, []string{
			p.Name,
			fmt.Sprintf("%.1f", p.QueryS),
			fmt.Sprintf("%d", p.Queries),
			fmt.Sprintf("%.0f", p.QPS),
			p.P50.Round(time.Microsecond).String(),
			p.P99.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", p.Unmet),
			fmt.Sprintf("%.0f", p.PushRate),
			fmt.Sprintf("%.2f", p.HotShardPushShare),
			p.RepairP50.Round(time.Microsecond).String(),
			p.RepairP99.Round(time.Microsecond).String(),
		})
	}
	experiment.WriteTable(os.Stdout,
		[]string{"phase", "zipf-q", "queries", "qps", "p50", "p99", "unmet", "pushes/s", "hot-shard", "repair-p50", "repair-p99"}, cells)
	if remoteAddr == "" {
		fmt.Printf("build: %v for %d objects; max shard occupancy share %.3f (ideal %.3f); sched refresh cost %.0f; query refresh cost %.0f\n",
			res.Build.Round(time.Millisecond), res.Objects, res.MaxShardLenShare, 1.0/8,
			res.SchedRefreshCost, res.RefreshCost)
	}
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
