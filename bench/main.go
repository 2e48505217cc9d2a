// Command bench is the repository's benchmark: six workloads, each a
// seed-generated, operation-count-driven script driven against the
// program through its public API, with verified answers, seven
// end-to-end metrics and a traced run that attributes time to layers.
// README.md in this directory defines every metric and workload.
//
//	bash bench/run.sh --workload hot-shapes --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload all --out a.json      # one result file, all six
//	bash bench/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// benchProcs pins GOMAXPROCS: the reference box has two cores, and a
// run must not change shape with the machine it happens to land on.
const benchProcs = 2

// stamp says where and how a result was produced.
type stamp struct {
	Commit      string  `json:"commit"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"nproc"`
	FlushPolicy string  `json:"flush_policy"`
	Seconds     float64 `json:"seconds"`
}

// resultFile is what a run writes to the output directory and what
// -compare reads.
type resultFile struct {
	Stamp     stamp             `json:"stamp"`
	Workloads []*workloadResult `json:"workloads"`
}

// commit asks git for the checkout's commit; a checkout that is not a
// repository (the benchmark driver's) is stamped "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := flag.Int64("seed", 1, "seed the population and the script are generated from")
	seconds := flag.Float64("seconds", 10, "how long the timed segments of one workload measure")
	trace := flag.Int("trace", 0, "1: run the traced segment and the layer probes and report the per-layer metrics; 0: report the end-to-end metrics")
	smoke := flag.Bool("smoke", false, "run at about a fiftieth of the size (for tests; numbers mean nothing)")
	outDir := flag.String("outdir", filepath.Join("bench", "out"), "directory for result files, traces and scratch data")
	outFile := flag.String("out", "", "result file name (default: <outdir>/result-<workload>-seed<seed>-trace<trace>.json)")
	compare := flag.Bool("compare", false, "compare two result files given as arguments and exit non-zero on a regression")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	var defs []*workloadDef
	if *workload == "all" {
		defs = workloads
	} else if w := findWorkload(*workload); w != nil {
		defs = []*workloadDef{w}
	} else {
		fatal("unknown workload %q (want %s, or all)", *workload, workloadNames())
	}

	runtime.GOMAXPROCS(benchProcs)
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, outDir: *outDir}
	file := resultFile{Stamp: stamp{
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: benchProcs, NumCPU: runtime.NumCPU(),
		FlushPolicy: "SyncNever", Seconds: *seconds,
	}}
	var last *workloadResult
	for _, def := range defs {
		res, err := runWorkload(def, cfg)
		if err != nil {
			fatal("%v", err)
		}
		printResult(res)
		file.Workloads = append(file.Workloads, res)
		last = res
	}
	path := *outFile
	if path == "" {
		path = filepath.Join(*outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", *workload, *seed, *trace))
	}
	if err := writeJSON(path, file); err != nil {
		fatal("write %s: %v", path, err)
	}
	fmt.Printf("# wrote %s\n", path)

	// The last line is the machine-readable summary of the (last)
	// workload: exactly correct, attempted, failed and metrics.
	summary := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, make(map[string]metricValue)}
	for name, m := range last.Metrics {
		summary.Metrics[name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// printResult prints every metric of a run by name, with its unit and,
// where the metric has a value per segment, the spread between segments.
func printResult(res *workloadResult) {
	kind, defs := "end-to-end", endToEnd
	if res.Trace {
		kind, defs = "per-layer", perLayer
	}
	fmt.Printf("# %s seed=%d %s: %d segments of %d queries / %d pushes, %d operations attempted, %d failed, %.1fs\n",
		res.Workload, res.Seed, kind, res.Segments, res.Samples["queries"], res.Samples["pushes"], res.Attempted, res.Failed, res.WallS)
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Printf("%-42s %16.6g %-10s", d.Name, m.Value, m.Unit)
		if m.Spread > 0 {
			fmt.Printf(" %s.spread %.3f", d.Name, m.Spread)
		}
		fmt.Println()
	}
	for name, v := range res.Extra {
		fmt.Printf("# extra %-34s %16.6g\n", name, v)
	}
}
