package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is the outcome of comparing one end-to-end metric of one
// workload between a base run and a changed run.
type verdict string

const (
	ok         verdict = "ok"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge applies the rule: a metric regressed when the change's median is
// worse than the base's by more than the bound; but where either run's
// own spread between segments is wider than the bound, the runs cannot
// resolve a difference that small, and the pair is reported unresolved
// instead of unchanged or regressed.
func judge(d metricDef, base, change metricValue) verdict {
	if base.Spread > d.Bound || change.Spread > d.Bound {
		return unresolved
	}
	worse := change.Value - base.Value
	if d.Better == "higher" {
		worse = -worse
	}
	if base.Value != 0 && worse/base.Value > d.Bound {
		return regressed
	}
	return ok
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	return f, json.Unmarshal(buf, &f)
}

// compareFiles prints one row per (workload, end-to-end metric) present
// in both files and returns the process exit code: 1 if any row
// regressed, 2 if a file could not be read.
func compareFiles(w io.Writer, basePath, changePath string) int {
	base, err := readResults(basePath)
	if err == nil {
		var change resultFile
		if change, err = readResults(changePath); err == nil {
			return compareResults(w, base, change)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: compare: %v\n", err)
	return 2
}

func compareResults(w io.Writer, base, change resultFile) int {
	fmt.Fprintf(w, "base %s (%s, GOMAXPROCS %d)  change %s (%s, GOMAXPROCS %d)\n",
		base.Stamp.Commit, base.Stamp.GoVersion, base.Stamp.GOMAXPROCS,
		change.Stamp.Commit, change.Stamp.GoVersion, change.Stamp.GOMAXPROCS)
	fmt.Fprintf(w, "%-16s %-24s %14s %8s %14s %8s %6s  %s\n",
		"workload", "metric", "base", "spread", "change", "spread", "bound", "verdict")
	code := 0
	for _, b := range base.Workloads {
		for _, c := range change.Workloads {
			if c.Workload != b.Workload || b.Trace || c.Trace {
				continue
			}
			for _, d := range endToEnd {
				bm, cm := b.Metrics[d.Name], c.Metrics[d.Name]
				v := judge(d, bm, cm)
				if v == regressed {
					code = 1
				}
				fmt.Fprintf(w, "%-16s %-24s %14.6g %8.3f %14.6g %8.3f %6.2f  %s\n",
					b.Workload, d.Name, bm.Value, bm.Spread, cm.Value, cm.Spread, d.Bound, v)
			}
			if b.Failed+c.Failed > 0 {
				code = 1
				fmt.Fprintf(w, "%-16s %-24s %14d %8s %14d %8s %6s  %s\n",
					b.Workload, "failed", b.Failed, "", c.Failed, "", "0", regressed)
			}
		}
	}
	return code
}
