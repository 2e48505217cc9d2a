package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"trapp"
	"trapp/internal/netsim"
	"trapp/internal/partition"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	outDir  string
}

const (
	// setups is how many times a run builds its workload; setup_s is the
	// median, and the last build is the one measured.
	setups = 3
	// minSegments is the least number of timed segments; counts that
	// must repeat exactly for a seed are taken from the first
	// minSegments, however many more the time allows.
	minSegments = 5
	// maxSegments bounds a run on a machine far faster than intended.
	maxSegments = 60
	// verifyQueries is the length of the verify pass, and verifyTickEvery
	// caps its queries per tick so the pass crosses several ticks.
	verifyQueries   = 200
	verifyTickEvery = 20
	// tracedBaseline is the number of untraced segments a traced run
	// times first, as the base of obs.trace_overhead_share.
	tracedBaseline = 3
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is the distance between the quartiles over the median,
	// taken over the run's timed segments, for metrics that have a value
	// per segment.
	Spread float64 `json:"spread,omitempty"`
}

// workloadResult is what one run of one workload produced.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Smoke     bool                   `json:"smoke"`
	Sizes     sizes                  `json:"sizes"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Segments  int                    `json:"segments"`
	Samples   map[string]int         `json:"samples_per_segment"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Extra holds numbers that explain the metrics but are not part of
	// the vocabulary: cross-checks and the open-loop generator's lag.
	Extra     map[string]float64 `json:"extra,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
	WallS     float64            `json:"wall_s"`
}

// counters are the program's own exported counters, summed over a
// deployment's systems.
type counters struct {
	planHits, planMisses, planInval int64
	queryMsgs                       int64
	valueCost                       float64
	sub                             trapp.SubscriptionMetrics
}

func readCounters(d *deployment) counters {
	var c counters
	for _, s := range d.systems {
		pc := s.Metrics().Counters()
		c.planHits += pc["plan_cache_hits"]
		c.planMisses += pc["plan_cache_misses"]
		c.planInval += pc["plan_cache_invalidations"]
		st := s.Stats()
		c.queryMsgs += st.Messages[netsim.QueryRefresh]
		c.valueCost += st.ValueRefreshCost
		sm := s.SubscriptionMetrics()
		c.sub.Rounds += sm.Rounds
		c.sub.Notifications += sm.Notifications
		c.sub.RefreshedObjects += sm.RefreshedObjects
		c.sub.SharedRefreshes += sm.SharedRefreshes
	}
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// run is one workload run in progress.
type run struct {
	cfg   runConfig
	def   *workloadDef
	env   *env
	r     *runner
	fails failureLog
	ops   []op
	arena []float64

	attempted, failed int64
	goroutinesPeak    int
}

func (x *run) count(st segStats) segStats {
	x.attempted += int64(st.allQueries + st.pushes)
	x.failed += int64(st.failed)
	x.goroutinesPeak = max(x.goroutinesPeak, st.goroutines)
	return st
}

// nextSegment generates and runs the next segment of the script on
// runner r, traced when a recorder is given (a second one for the
// open-loop writer).
func (x *run) nextSegment(r *runner, gen *generator, queries int, rec, wrec *recorder) segStats {
	e := x.env
	x.ops, x.arena = x.ops[:0], x.arena[:0]
	switch {
	case x.def.loop == openLoop:
		x.ops, x.arena = gen.age(e.sz.SegmentTicks, x.ops, x.arena)
		return x.count(r.segmentOpenLoop(x.ops, e.reader, x.arena, gen.nvals, wrec, rec))
	case x.def.loop == pipelined && rec == nil:
		if _, wire := r.tg.(framed); wire {
			x.ops, x.arena = gen.segment(queries+e.sz.PipelinedQueries, x.ops, x.arena)
			split := 0
			for n := 0; n < queries; split++ {
				if x.ops[split].kind == opQuery {
					n++
				}
			}
			return x.count(r.segmentPipelined(x.ops, split, x.arena, gen.nvals))
		}
	}
	x.ops, x.arena = gen.segment(queries, x.ops, x.arena)
	return x.count(r.segment(x.ops, x.arena, gen.nvals, rec))
}

// runWorkload runs one workload start to finish and returns its result.
func runWorkload(def *workloadDef, cfg runConfig) (res *workloadResult, err error) {
	began := time.Now()
	sz := def.full
	if cfg.smoke {
		sz = def.smoke
	}
	x := &run{cfg: cfg, def: def}

	// Set-up, several times: setup_s is the median of population
	// generation plus build, the last build is the one measured. Heap is
	// read around the last build, after a forced collection each time.
	var setupS []float64
	var heapBefore, heapAfter uint64
	setups := setups
	if cfg.smoke {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		pop, err := def.populate(sz, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		took := time.Since(t0)
		if i == setups-1 {
			heapBefore = heapInUse()
		}
		t0 = time.Now()
		e, err := def.build(def, sz, pop, cfg.seed, cfg.outDir)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setupS = append(setupS, (took + time.Since(t0)).Seconds())
		if i < setups-1 {
			e.close()
			continue
		}
		x.env = e
	}
	e := x.env
	defer e.close()
	heapAfter = heapInUse()
	x.r = newRunner(def.name, e.pop, e.dep, e.tg, &x.fails)

	if err := x.verify(); err != nil {
		return nil, err
	}

	// Bring bound ages to their stationary distribution, then one
	// discarded warm-up segment.
	x.ops, x.arena = e.gen.age(sz.AgeTicks, x.ops[:0], x.arena[:0])
	x.count(x.r.segment(x.ops, x.arena, e.gen.nvals, nil))
	x.nextSegment(x.r, e.gen, sz.SegmentQueries, nil, nil)

	// Timed segments, tracing off.
	var segs []segStats
	var timed time.Duration
	want := time.Duration(cfg.seconds * float64(time.Second))
	least := minSegments
	if cfg.trace {
		want, least = 0, tracedBaseline
	}
	wal0 := x.walBytes()
	for len(segs) < least || (timed < want && len(segs) < maxSegments) {
		st := x.nextSegment(x.r, e.gen, sz.SegmentQueries, nil, nil)
		segs = append(segs, st)
		timed += st.wall
	}
	walPerPush := ratio(float64(x.walBytes()-wal0), float64(sumOf(segs, func(s segStats) float64 { return float64(s.pushes) })))

	res = &workloadResult{
		Workload: def.name, Seed: cfg.seed, Trace: cfg.trace, Smoke: cfg.smoke, Sizes: sz,
		Segments: len(segs),
		Samples:  map[string]int{"queries": len(segs[0].qLat), "pushes": len(segs[0].pushLat)},
		Metrics:  make(map[string]metricValue),
		Extra:    make(map[string]float64),
	}
	if !cfg.trace {
		x.endToEnd(res, segs, setupS, heapAfter-heapBefore)
	} else {
		pl := map[string]float64{
			"relation.heap_bytes_per_object": ratio(float64(heapAfter)-float64(heapBefore), float64(e.pop.len())),
			"relation.wal_bytes_per_push":    walPerPush,
		}
		if err := x.traced(res, segs, pl); err != nil {
			return nil, err
		}
		res.Extra["refresh_cost_per_query"] = perQueryOverHead(segs, func(s segStats) float64 { return s.cost })
		for _, d := range perLayer {
			v, ok := pl[d.Name]
			if !ok {
				return nil, fmt.Errorf("%s: per-layer metric %s was not measured", def.name, d.Name)
			}
			res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	if lag := flatten(segs, func(s segStats) []int64 { return s.lagLat }); len(lag) > 0 {
		res.Extra["driver.generator_lag_p99_us"] = float64(percentile(sortedCopy(lag), 0.99)) / 1e3
	}
	res.Attempted, res.Failed = x.attempted, x.failed
	res.Correct = x.failed == 0
	res.WallS = time.Since(began).Seconds()
	return res, nil
}

// heapInUse is HeapAlloc after a forced collection.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func sumOf(segs []segStats, f func(segStats) float64) float64 {
	t := 0.0
	for _, s := range segs {
		t += f(s)
	}
	return t
}

func flatten(segs []segStats, f func(segStats) []int64) []int64 {
	var out []int64
	for _, s := range segs {
		out = append(out, f(s)...)
	}
	return out
}

// walBytes is the durable deployment's appended log volume so far. No
// checkpoint falls in the timed segments (walOptions), so LogBytes, which
// restarts at a checkpoint, only grows there.
func (x *run) walBytes() int64 {
	if c := x.env.dep.cache; c != nil {
		return c.WAL().LogBytes()
	}
	return 0
}

// embeddedCopy deploys a second copy of the workload's population,
// generated from the same seed, as one embedded system.
func (x *run) embeddedCopy() (*population, *deployment, error) {
	pop, err := x.def.populate(x.env.sz, x.cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	dep, err := deploy(pop, nil, "")
	return pop, dep, err
}

// verify is the untimed verify pass: the head of the script replayed one
// operation at a time, every answer checked against the oracle and, on
// workloads with a wire or a coordinator in the path, compared
// bit-identically with an embedded mirror driven in lockstep.
func (x *run) verify() error {
	e := x.env
	or := newOracle(e.pop)
	var mirror *deployment
	var mtg target
	if _, direct := e.tg.(embedded); !direct {
		var err error
		if _, mirror, err = x.embeddedCopy(); err != nil {
			return err
		}
		defer mirror.close()
		mtg = embedded{sys: mirror.systems[0]}
	}
	g := e.gen
	saved := g.queriesPerTick
	g.queriesPerTick = min(saved, verifyTickEvery)
	n := verifyQueries
	if x.cfg.smoke {
		n /= 4
	}
	x.ops, x.arena = g.segment(n, x.ops[:0], x.arena[:0])
	g.queriesPerTick, g.sinceTick = saved, saved
	ctx := context.Background()
	for i, o := range x.ops {
		switch o.kind {
		case opTick:
			e.dep.tick()
			if mirror != nil {
				mirror.tick()
			}
		case opPush:
			vals := x.arena[o.vals : int(o.vals)+g.nvals]
			x.attempted++
			if err := x.r.doPush(o, x.arena, g.nvals, nil, -1, -1); err != nil {
				return fmt.Errorf("%s: verify: push: %w", x.def.name, err)
			}
			if mirror != nil {
				if err := mirror.srcs[o.obj].SetValue(e.pop.keys[o.obj], vals); err != nil {
					return fmt.Errorf("%s: verify: mirror push: %w", x.def.name, err)
				}
			}
			or.applied(int(o.obj), vals)
		case opQuery:
			x.attempted++
			res, err := e.tg.exec(ctx, o.q, nil, -1, int32(i))
			why := or.check(o.q, res, err)
			if why == "" && mirror != nil {
				mres, merr := mtg.exec(ctx, o.q, nil, -1, int32(i))
				why = sameOutcome(res, err, mres, merr)
			}
			if why != "" {
				x.failed++
				x.fails.report(x.def.name, "verify", o.q.sql, why)
			}
		}
	}
	return nil
}

// endToEnd fills in the end-to-end metrics from the timed segments.
func (x *run) endToEnd(res *workloadResult, segs []segStats, setupS []float64, heap uint64) {
	per := func(f func(s segStats) float64) []float64 {
		out := make([]float64, len(segs))
		for i, s := range segs {
			out[i] = f(s)
		}
		return out
	}
	// Each segment's samples are sorted once, in place: nothing reads
	// them in arrival order after this.
	for _, s := range segs {
		slices.Sort(s.qLat)
	}
	pct := func(p float64) []float64 {
		return per(func(s segStats) float64 { return float64(percentile(s.qLat, p)) / 1e3 })
	}
	put := func(name string, xs []float64) {
		res.Metrics[name] = metricValue{Value: median(xs), Spread: spread(xs)}
	}
	put("setup_s", setupS)
	put("queries_per_s", per(func(s segStats) float64 { return float64(s.queries) / s.elapsed.Seconds() }))
	put("query_p50_us", pct(0.50))
	put("query_p99_us", pct(0.99))
	// Refresh cost and allocations are counts the script fixes: a single
	// driver's segments differ in them because their operations differ,
	// not because of noise, and a second run of the seed reproduces them
	// (the cost exactly, the allocations to a part in a thousand). So
	// they are taken over the first minSegments segments and carry no
	// spread; beside a concurrent writer they move from run to run like
	// any timing, and carry the segments' spread.
	cost := func(s segStats) float64 { return s.cost }
	mallocs := func(s segStats) float64 { return float64(s.mallocs) }
	for name, count := range map[string]func(segStats) float64{"refresh_cost_per_query": cost, "allocs_per_query": mallocs} {
		m := metricValue{Value: perQueryOverHead(segs, count)}
		if x.def.loop == openLoop {
			m.Spread = spread(per(func(s segStats) float64 { return count(s) / float64(s.allQueries) }))
		}
		res.Metrics[name] = m
	}
	res.Metrics["heap_mb"] = metricValue{Value: float64(heap) / 1e6}
	for _, d := range endToEnd {
		m := res.Metrics[d.Name]
		m.Unit = d.Unit
		res.Metrics[d.Name] = m
	}
}

// perQueryOverHead is Σ count / Σ queries over the first minSegments
// segments: the same stretch of the script however many more segments
// the time allowed.
func perQueryOverHead(segs []segStats, count func(segStats) float64) float64 {
	head := segs[:min(len(segs), minSegments)]
	return ratio(sumOf(head, count), sumOf(head, func(s segStats) float64 { return float64(s.allQueries) }))
}

// tracedSeg is one traced segment: what it measured, its script, its
// spans and the program's counters read around it.
type tracedSeg struct {
	runner        *runner
	st            segStats
	ops           []op
	spans         []span
	tot           [numSpanNames]spanTotals
	before, after counters
}

// tracedSegment runs the next segment of the script on r with rec
// recording (and, beside an open-loop writer, a recorder of its own for
// the writer, merged in afterwards).
func (x *run) tracedSegment(r *runner, gen *generator, rec *recorder) tracedSeg {
	var wrec *recorder
	if x.def.loop == openLoop {
		wrec = &recorder{t0: rec.t0}
	}
	t := tracedSeg{runner: r, before: readCounters(r.dep)}
	t.st = x.nextSegment(r, gen, x.env.sz.TracedQueries, rec, wrec)
	t.ops = append([]op(nil), x.ops...)
	t.after = readCounters(r.dep)
	rec.finish()
	t.spans = rec.spans
	if wrec != nil {
		off := int32(len(t.spans))
		for _, s := range wrec.spans {
			if s.parent >= 0 {
				s.parent += off
			}
			t.spans = append(t.spans, s)
		}
	}
	t.tot = totals(t.spans)
	return t
}

// traced runs the traced segment(s) and the layer probes and fills pl
// with every per-layer metric.
func (x *run) traced(res *workloadResult, base []segStats, pl map[string]float64) error {
	e, sz := x.env, x.env.sz
	merge := func(m map[string]float64, err error) error {
		for k, v := range m {
			pl[k] = v
		}
		return err
	}

	// The traced segment on the workload's own target.
	tg := e.tg
	var tc *tracedCluster
	if e.cl != nil {
		nodes := make([]partition.Node, len(e.addrs))
		for i, a := range e.addrs {
			nodes[i] = partition.NewRemoteNode(e.ids[i], a)
		}
		var err error
		if tc, err = newTracedCluster(nodes); err != nil {
			return err
		}
		defer tc.cl.Close()
		tg = tc
	}
	rec := newRecorder()
	if tc != nil {
		rec = tc.rec
	}
	main := x.tracedSegment(newRunner(x.def.name, e.pop, e.dep, tg, &x.fails), e.gen, rec)
	tot := main.tot

	perQuery := func(s segStats) float64 { return float64(s.wall) / float64(s.allQueries) }
	baseNS := make([]float64, len(base))
	for i, s := range base {
		baseNS[i] = perQuery(s)
	}
	pl["obs.trace_overhead_share"] = perQuery(main.st)/median(baseNS) - 1
	// Push latency as a source sees it, from the untraced segments.
	for name, p := range map[string]float64{"source.push_p50_us": 0.50, "source.push_p99_us": 0.99} {
		per := make([]float64, len(base))
		for i, s := range base {
			per[i] = float64(percentile(sortedCopy(s.pushLat), p)) / 1e3
		}
		pl[name] = median(per)
	}
	pl["obs.driver_self_share"] = ratio(float64(tot[spSegment].SelfNS), float64(tot[spSegment].TotalNS))

	// Engine-layer spans: the traced segment itself on an embedded
	// workload; otherwise a second traced segment of the same script on
	// an embedded system holding the same population (the served system
	// on the wire workload, a single-system copy on the cluster one).
	eng := main
	if _, ok := e.tg.(embedded); !ok {
		gen, r := e.gen, newRunner(x.def.name, e.pop, e.dep, embedded{sys: e.dep.systems[0], parse: true}, &x.fails)
		if len(e.dep.systems) > 1 {
			pop, dep, err := x.embeddedCopy()
			if err != nil {
				return err
			}
			defer dep.close()
			gen = newGenerator(pop, e.gen.scriptParams, x.cfg.seed+1)
			r = newRunner(x.def.name, pop, dep, embedded{sys: dep.systems[0]}, &x.fails)
			x.ops, x.arena = gen.age(sz.AgeTicks, x.ops[:0], x.arena[:0])
			x.count(r.segment(x.ops, x.arena, gen.nvals, nil))
		}
		eng = x.tracedSegment(r, gen, newRecorder())
	}
	x.engineLayer(pl, eng)
	// The probe below overwrites aggregate.scan_ns_per_row; keep the
	// spans' figure beside it as the cross-check.
	res.Extra["aggregate.scan_ns_per_row_traced"] = pl["aggregate.scan_ns_per_row"]
	embeddedDep, engPop := eng.runner.dep, eng.runner.pop

	// Layer probes, each on the embedded system.
	sys := embeddedDep.systems[0]
	div := 1 // a smoke run's probes loop a hundredth as long
	if x.cfg.smoke {
		div = 100
	}
	if err := merge(probeSQL(sys, e.shapes, div)); err != nil {
		return err
	}
	if err := merge(probeBatch(embeddedDep, e.shapes, div)); err != nil {
		return err
	}
	merge(probeScan(sys, engPop, div), nil)
	if err := merge(probeRelation(sys, engPop, x.cfg.outDir, div)); err != nil {
		return err
	}
	if err := merge(probeCodec(sys, e.shapes[0], div)); err != nil {
		return err
	}
	if err := merge(probeWire(sys, e.shapes, div)); err != nil {
		return err
	}
	if e.srv != nil {
		merge(serverCounters(e.srv), nil)
	}
	if e.cl != nil {
		if err := merge(probePartition(e.dep, e.ids, e.shapes, div)); err != nil {
			return err
		}
		merge(coordMetrics(tot), nil)
		merge(clusterCounters(tc.cl), nil)
	} else if err := merge(probePartition(embeddedDep, singleID, e.shapes, div)); err != nil {
		return err
	}

	// Runtime, over the baseline and traced segments.
	all := append(append([]segStats(nil), base...), main.st)
	pl["runtime.gc_pause_ms"] = sumOf(all, func(s segStats) float64 { return float64(s.gcPauseNS) }) / 1e6
	pl["runtime.gc_cycles"] = sumOf(all, func(s segStats) float64 { return float64(s.gcCycles) })
	pl["runtime.goroutines_peak"] = float64(x.goroutinesPeak)

	if x.def.loop == openLoop {
		erec := &recorder{t0: rec.t0}
		if err := x.durableEpilogue(pl, erec); err != nil {
			return err
		}
		main.spans = append(main.spans, erec.spans...)
	}
	if err := os.MkdirAll(x.cfg.outDir, 0o755); err != nil {
		return err
	}
	res.TraceFile = filepath.Join(x.cfg.outDir, "trace-"+x.def.name+".json")
	return writeTrace(res.TraceFile, x.def.name, x.cfg.seed, main.spans)
}

// engineLayer derives the engine layers' metrics from a traced segment
// on an embedded system: the benchmark's spans, the program's WithTrace
// phases grafted under them, and the program's own counters.
func (x *run) engineLayer(pl map[string]float64, t tracedSeg) {
	tot, st, before, after := t.tot, t.st, t.before, t.after
	wall := float64(st.wall)
	queries := float64(st.allQueries)
	tableRows := func(req int32) float64 {
		var q *queryOp
		if x.def.loop == openLoop {
			q = x.env.reader[int(req)%len(x.env.reader)]
		} else {
			q = t.ops[req].q
		}
		return float64(len(x.env.pop.tables[q.table].objs))
	}
	var scanRows, chooseRows float64
	for _, s := range t.spans {
		switch s.name {
		case spScan, spFold:
			scanRows += tableRows(s.req)
		case spChoose:
			chooseRows += tableRows(s.req)
		}
	}
	scanNS := float64(tot[spScan].TotalNS + tot[spFold].TotalNS)
	hits, misses, inval := float64(after.planHits-before.planHits), float64(after.planMisses-before.planMisses), float64(after.planInval-before.planInval)
	pushes := float64(st.pushes)

	pl["query.execute_self_ns"] = ratio(float64(tot[spExecute].SelfNS), float64(tot[spExecute].Count))
	pl["query.plancache_hit_share"] = ratio(hits, hits+misses+inval)
	pl["query.plancache_invalidations_per_tick"] = ratio(inval, float64(st.ticks))
	pl["cache.sync_ns_per_object"] = ratio(float64(tot[spSync].TotalNS), float64(t.runner.syncedObjects))
	pl["cache.sync_share"] = float64(tot[spSync].TotalNS+tot[spSyncProbe].TotalNS) / wall
	pl["aggregate.scan_ns_per_row"] = ratio(scanNS, scanRows)
	pl["aggregate.scan_share"] = scanNS / wall
	pl["aggregate.rows_scanned_per_query"] = scanRows / queries
	pl["refresh.choose_ns_per_candidate"] = ratio(float64(tot[spChoose].TotalNS), chooseRows)
	pl["refresh.choose_share"] = float64(tot[spChoose].TotalNS) / wall
	pl["refresh.tuples_refreshed_per_query"] = float64(st.refreshed) / queries
	pl["source.refresh_ns_per_key"] = ratio(float64(tot[spRefresh].TotalNS), float64(st.refreshed))
	pl["source.refresh_share"] = float64(tot[spRefresh].TotalNS) / wall
	pl["source.refresh_batches_per_query"] = float64(tot[spBatch].Count) / queries
	pl["source.push_ns"] = ratio(float64(tot[spSetValue].TotalNS), float64(tot[spSetValue].Count))
	pl["netsim.query_refresh_msgs_per_query"] = float64(after.queryMsgs-before.queryMsgs) / queries
	pl["netsim.value_refresh_cost_per_push"] = ratio(after.valueCost-before.valueCost, pushes)
	pl["continuous.notifications_per_push"] = ratio(float64(after.sub.Notifications-before.sub.Notifications), pushes)
	pl["continuous.rounds_per_push"] = ratio(float64(after.sub.Rounds-before.sub.Rounds), pushes)
	pl["continuous.settle_ns_per_push"] = ratio(float64(tot[spSettle].TotalNS), pushes)
	pl["continuous.shared_refresh_share"] = ratio(float64(after.sub.SharedRefreshes-before.sub.SharedRefreshes), float64(after.sub.RefreshedObjects-before.sub.RefreshedObjects))
}

var errDigest = errors.New("recovered store's value digest differs from the digest before close")

// durableEpilogue ends the durable workload the way a restart would:
// checkpoint, close, reopen from the directory, re-handshake, and
// compare the value digest with the one taken before the close. Its
// checkpoint and recovery numbers replace the scratch-copy probe's.
func (x *run) durableEpilogue(pl map[string]float64, rec *recorder) error {
	e := x.env
	c := e.dep.cache
	sp := rec.begin(spCheckpoint, -1, -1)
	err := c.Checkpoint()
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	pl["relation.checkpoint_s"] = float64(rec.spans[sp].end-rec.spans[sp].start) / 1e9
	pl["relation.checkpoints"] = float64(c.WAL().Gen())
	pl["relation.snapshot_bytes_per_object"] = ratio(float64(dirBytes(e.dir, ".snap")), float64(e.pop.len()))
	digest := c.Store().ValueDigest()

	sp = rec.begin(spReopen, -1, -1)
	if err := e.dep.systems[0].CloseDurable(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	dep, recovered, err := reopen(e.pop, e.dir)
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	took := time.Duration(rec.spans[sp].end - rec.spans[sp].start)
	e.dep = dep
	x.attempted++
	if dep.cache.Store().ValueDigest() != digest {
		x.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: recovery FAILED: %v\n", x.def.name, errDigest)
	}
	pl["relation.recovery_s"] = took.Seconds()
	pl["relation.recovery_ns_per_record"] = ratio(float64(took), float64(recovered.Tuples+recovered.RecordsReplayed))
	return nil
}
