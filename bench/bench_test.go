package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	"trapp"
)

// smokeRun runs one workload at smoke size with tracing on, which
// reports the per-layer counts and, in Extra, the end-to-end counts of
// the untraced segments before it.
func smokeRun(t *testing.T, name string, seed int64) *workloadResult {
	t.Helper()
	res, err := runWorkload(findWorkload(name), runConfig{seed: seed, trace: true, smoke: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed", name, seed, res.Failed, res.Attempted)
	}
	return res
}

// counts are the numbers a seed must reproduce exactly on a
// single-driver workload.
func counts(res *workloadResult) map[string]float64 {
	out := map[string]float64{"refresh_cost_per_query": res.Extra["refresh_cost_per_query"]}
	for _, name := range []string{
		"refresh.tuples_refreshed_per_query",
		"query.plancache_hit_share",
		"query.plancache_invalidations_per_tick",
		"netsim.query_refresh_msgs_per_query",
		"relation.wal_bytes_per_record",
	} {
		out[name] = res.Metrics[name].Value
	}
	return out
}

// TestSmokeCountsRepeat runs every workload at smoke size: every
// per-layer metric is reported, no operation fails, two runs of a seed
// agree exactly on every count of the single-driver workloads, and
// another seed moves them.
func TestSmokeCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b, c := smokeRun(t, w.name, 1), smokeRun(t, w.name, 1), smokeRun(t, w.name, 2)
			for _, d := range perLayer {
				if _, ok := a.Metrics[d.Name]; !ok {
					t.Errorf("per-layer metric %s not reported", d.Name)
				}
			}
			if w.loop == openLoop {
				// Two goroutines: the reader's refreshes land in the log
				// beside the writer's pushes, so bytes per push repeat
				// only approximately.
				x, y := a.Metrics["relation.wal_bytes_per_push"].Value, b.Metrics["relation.wal_bytes_per_push"].Value
				if x <= 0 || y <= 0 || x/y > 1.25 || y/x > 1.25 {
					t.Errorf("relation.wal_bytes_per_push %g and %g differ by more than a quarter", x, y)
				}
				return
			}
			ca, cb, cc := counts(a), counts(b), counts(c)
			moved := false
			for name, v := range ca {
				if cb[name] != v {
					t.Errorf("%s: %v and %v on the same seed", name, v, cb[name])
				}
				moved = moved || cc[name] != v
			}
			if !moved {
				t.Errorf("seed 2 reproduced every count of seed 1: %v", ca)
			}
		})
	}
}

// TestEndToEndMetricsReported runs one workload untraced and checks the
// run prints every end-to-end metric, none of them zero.
func TestEndToEndMetricsReported(t *testing.T) {
	res, err := runWorkload(findWorkload("tight-precision"), runConfig{seed: 3, smoke: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if m, ok := res.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
			t.Errorf("end-to-end metric %s = %+v", d.Name, m)
		}
	}
}

// lying is a target that returns an interval its engine did not compute.
type lying struct{ target }

func (l lying) exec(ctx context.Context, q *queryOp, rec *recorder, parent, req int32) (trapp.Result, error) {
	res, err := l.target.exec(ctx, q, rec, parent, req)
	res.Answer = trapp.NewInterval(res.Answer.Hi+1, res.Answer.Hi+2)
	return res, err
}

// TestWrongIntervalCountsAsFailed feeds the verify pass a deliberately
// wrong interval and expects it in the failed count.
func TestWrongIntervalCountsAsFailed(t *testing.T) {
	def := findWorkload("hot-shapes")
	pop, err := def.populate(def.smoke, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := def.build(def, def.smoke, pop, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()

	x := &run{cfg: runConfig{seed: 1, smoke: true}, def: def, env: e}
	x.r = newRunner(def.name, e.pop, e.dep, e.tg, &x.fails)
	if err := x.verify(); err != nil || x.failed != 0 {
		t.Fatalf("honest verify pass: err %v, %d failed", err, x.failed)
	}
	queries := x.attempted

	e.tg = lying{e.tg}
	x.r.tg = e.tg
	if err := x.verify(); err != nil {
		t.Fatal(err)
	}
	if x.failed == 0 {
		t.Fatalf("%d answers moved off the exact value and none failed", queries)
	}

	// The oracle itself, on one answer.
	or := newOracle(e.pop)
	q := e.shapes[0]
	res, qerr := e.dep.systems[0].ExecuteCtx(context.Background(), q.q)
	if why := or.check(q, res, qerr); why != "" {
		t.Fatalf("honest answer rejected: %s", why)
	}
	res.Answer = trapp.NewInterval(res.Answer.Hi+1, res.Answer.Hi+2)
	if why := or.check(q, res, qerr); why == "" {
		t.Fatal("interval beside the exact value accepted")
	}
}

// TestJudge is the -compare rule, case by case.
func TestJudge(t *testing.T) {
	lower := metricDef{Name: "query_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name         string
		def          metricDef
		base, change metricValue
		want         verdict
	}{
		{"unchanged", lower, metricValue{Value: 100}, metricValue{Value: 100}, ok},
		{"worse within the bound", lower, metricValue{Value: 100}, metricValue{Value: 109}, ok},
		{"worse beyond the bound", lower, metricValue{Value: 100}, metricValue{Value: 111}, regressed},
		{"better", lower, metricValue{Value: 100}, metricValue{Value: 50}, ok},
		{"throughput down beyond the bound", higher, metricValue{Value: 1000}, metricValue{Value: 880}, regressed},
		{"throughput down within the bound", higher, metricValue{Value: 1000}, metricValue{Value: 950}, ok},
		{"throughput up", higher, metricValue{Value: 1000}, metricValue{Value: 2000}, ok},
		{"base too noisy to tell", lower, metricValue{Value: 100, Spread: 0.3}, metricValue{Value: 150}, unresolved},
		{"change too noisy to tell", lower, metricValue{Value: 100}, metricValue{Value: 100, Spread: 0.11}, unresolved},
		{"spread at the bound still resolves", lower, metricValue{Value: 100, Spread: 0.10}, metricValue{Value: 120, Spread: 0.10}, regressed},
	} {
		if got := judge(c.def, c.base, c.change); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSelfTime checks a span's self time excludes the union of its
// children, overlapping or not.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{name: spSegment, parent: -1, start: 0, end: 100},
		{name: spCluster, parent: 0, start: 10, end: 90},
		{name: spNodeCall, parent: 1, start: 20, end: 50}, // two scatter legs
		{name: spNodeCall, parent: 1, start: 30, end: 70}, // overlapping
		{name: spNodeCall, parent: 1, start: 80, end: 95}, // clipped to its parent
	}
	tot := totals(spans)
	if got := tot[spSegment].SelfNS; got != 20 {
		t.Errorf("root self %d, want 20", got)
	}
	if got := tot[spCluster].SelfNS; got != 80-50-10 {
		t.Errorf("cluster self %d, want 20", got)
	}
	if got := tot[spNodeCall].Count; got != 3 {
		t.Errorf("node calls %d, want 3", got)
	}
}

// TestManifestMatchesRegistry keeps BENCHMARK.json and the metric and
// workload tables of this package the same list.
func TestManifestMatchesRegistry(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %s here", i, m.Workloads[i], w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d here", len(got), kind, len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v here", kind, i, g, d)
			}
		}
	}
	same("end-to-end", m.EndToEnd, endToEnd)
	same("per-layer", m.PerLayer, perLayer)
}

// TestSpread checks the quartile spread against the values Python's
// statistics.quantiles(xs, n=4) gives.
func TestSpread(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5}, (4.5 - 1.5) / 3},
		{[]float64{10, 10, 10, 10}, 0},
		{[]float64{5, 1, 3, 2, 4, 6, 8, 7, 10, 9}, (8.25 - 2.75) / 5.5},
		{[]float64{7}, 0},
	} {
		if got := spread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
