package main

import (
	"context"
	"math/rand"
	"os"

	"trapp/internal/partition"
	"trapp/internal/server"
	"trapp/internal/workload"
)

// sizes fixes how big one workload is. Each workload has a full size,
// chosen so that a segment takes about a second on two shared cores and
// holds at least 2 000 latency samples, and a smoke size about a
// fiftieth of it for `go test`.
type sizes struct {
	Objects int `json:"objects"`
	Tenants int `json:"tenants,omitempty"`
	// SegmentQueries is the number of queries per closed-loop segment
	// (depth-1 queries on the wire workload); PipelinedQueries the wire
	// workload's pipelined queries per segment; SegmentTicks the
	// open-loop writer's ticks per segment (PushesPerTick pushes each).
	SegmentQueries   int `json:"segment_queries,omitempty"`
	PipelinedQueries int `json:"pipelined_queries,omitempty"`
	SegmentTicks     int `json:"segment_ticks,omitempty"`
	// TracedQueries is the traced segment's query count.
	TracedQueries  int `json:"traced_queries,omitempty"`
	QueriesPerTick int `json:"queries_per_tick,omitempty"`
	PushesPerTick  int `json:"pushes_per_tick,omitempty"`
	PushesPerQuery int `json:"pushes_per_query,omitempty"`
	// AgeTicks ticks (with their pushes) run before the warm-up segment.
	AgeTicks int `json:"age_ticks"`
	Standing int `json:"standing_queries,omitempty"`
}

// loop says how a workload's segment is driven.
type loop int

const (
	closedLoop loop = iota // one driver, every operation in script order
	pipelined              // the wire: a depth-1 part, then a pipelined part
	openLoop               // a scheduled writer beside a closed-loop reader
)

// workloadDef is one of the six workloads.
type workloadDef struct {
	name  string
	why   string
	loop  loop
	full  sizes
	smoke sizes
	// build deploys a freshly generated population as the systems under
	// test. setup_s times the generation and the build; the heap is read
	// between the two, so heap_mb is the program's and not the
	// generator's.
	build func(w *workloadDef, sz sizes, pop *population, seed int64, outDir string) (*env, error)
}

// env is one built workload: the population, the deployment under test
// and how queries reach it.
type env struct {
	sz   sizes
	pop  *population
	dep  *deployment
	tg   target
	gen  *generator
	ids  []string // partition ids of dep's systems
	srv  *server.Server
	cl   *partition.Cluster
	dir  string // data directory of a durable deployment
	stop []func()
	// shapes are the statements probes exercise; reader the queries the
	// open-loop workload's reader cycles through.
	shapes []*queryOp
	reader []*queryOp
	// addrs are the framed listeners of a served cluster's partitions.
	addrs []string
}

func (e *env) close() {
	for i := len(e.stop) - 1; i >= 0; i-- {
		e.stop[i]()
	}
	e.dep.close()
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}

var singleID = []string{"p0"}

// populate generates the workload's population from the seed.
func (w *workloadDef) populate(sz sizes, seed int64) (*population, error) {
	if sz.Tenants > 0 {
		return newScalePopulation(sz.Objects, sz.Tenants, seed)
	}
	return newLinkPopulation(sz.Objects, seed)
}

// newEnv deploys the population.
func newEnv(w *workloadDef, sz sizes, pop *population, ids []string, dir string) (*env, error) {
	dep, err := deploy(pop, ids, dir)
	if err != nil {
		return nil, err
	}
	e := &env{sz: sz, pop: pop, dep: dep, ids: singleID, dir: dir}
	if len(ids) > 0 {
		e.ids = ids
	}
	return e, nil
}

// script wires the env's generator; the generator's own seed is derived
// from the run's so data and script do not share a stream.
func (e *env) script(seed int64, pick func(g *generator) *queryOp) {
	e.gen = newGenerator(e.pop, scriptParams{
		queriesPerTick: e.sz.QueriesPerTick,
		pushesPerTick:  e.sz.PushesPerTick,
		pushesPerQuery: e.sz.PushesPerQuery,
		pick:           pick,
	}, seed+1)
}

// pushShare is the share of objects pushed per tick.
func (sz sizes) pushShare() float64 {
	return float64(sz.PushesPerTick+sz.PushesPerQuery*sz.QueriesPerTick) / float64(sz.Objects)
}

// pickFrom draws the statements in rotation.
func pickFrom(qs []*queryOp) func(g *generator) *queryOp {
	return func(g *generator) *queryOp {
		return qs[g.rng.Intn(len(qs))]
	}
}

func buildHotShapes(w *workloadDef, sz sizes, pop *population, seed int64, _ string) (*env, error) {
	e, err := newEnv(w, sz, pop, nil, "")
	if err != nil {
		return nil, err
	}
	e.tg = embedded{sys: e.dep.systems[0], parse: true}
	e.shapes = hotShapes(e.pop, meanWidth(sz.pushShare()))
	e.script(seed, pickFrom(e.shapes))
	return e, nil
}

func buildTightPrecision(w *workloadDef, sz sizes, pop *population, seed int64, _ string) (*env, error) {
	e, err := newEnv(w, sz, pop, nil, "")
	if err != nil {
		return nil, err
	}
	e.tg = embedded{sys: e.dep.systems[0]}
	bases, ref := tightBases(e.pop), meanWidth(sz.pushShare())
	e.script(seed, func(g *generator) *queryOp { return tightQuery(g, bases, ref) })
	e.shapes = probeShapes(e, 16)
	return e, nil
}

// probeShapes draws n queries from a scratch copy of the env's
// generator, for the probes of workloads whose queries are not a fixed
// list.
func probeShapes(e *env, n int) []*queryOp {
	g := newGenerator(e.pop, e.gen.scriptParams, 12345)
	out := make([]*queryOp, n)
	for i := range out {
		out[i] = g.pick(g)
	}
	return out
}

func buildScaleTick(w *workloadDef, sz sizes, pop *population, seed int64, _ string) (*env, error) {
	e, err := newEnv(w, sz, pop, nil, "")
	if err != nil {
		return nil, err
	}
	e.tg = embedded{sys: e.dep.systems[0]}
	tenants, ref := workload.MustZipf(sz.Tenants, 1.1), meanWidth(sz.pushShare())
	e.script(seed, func(g *generator) *queryOp { return scaleQuery(g, tenants.Rank(g.rng), ref) })
	e.shapes = probeShapes(e, 16)
	return e, nil
}

// readerStatements is the number of distinct statements the durable
// workload's reader cycles through.
const readerStatements = 4096

func buildPushDurable(w *workloadDef, sz sizes, pop *population, seed int64, outDir string) (*env, error) {
	dir, err := scratchDir(outDir, "durable")
	if err != nil {
		return nil, err
	}
	e, err := newEnv(w, sz, pop, nil, dir)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	sys := e.dep.systems[0]
	e.tg = embedded{sys: sys}
	ref := meanWidth(sz.pushShare())
	e.reader = readerQueries(e.pop, readerStatements, ref, rand.New(rand.NewSource(seed+2)))
	e.shapes = e.reader[:16]
	e.script(seed, pickFrom(e.reader))
	for _, q := range standingQueries(e.pop, sz.Standing, ref) {
		if _, err := sys.Subscribe(q); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

func buildWireFramed(w *workloadDef, sz sizes, pop *population, seed int64, _ string) (*env, error) {
	e, err := newEnv(w, sz, pop, nil, "")
	if err != nil {
		return nil, err
	}
	e.srv = server.New(e.dep.systems[0], server.Config{})
	e.stop = append(e.stop, func() { _ = e.srv.Shutdown(context.Background()) })
	ln, err := e.srv.ListenAndServeFramed("127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	c, err := dialFramed(ln.Addr().String())
	if err != nil {
		e.close()
		return nil, err
	}
	e.stop = append(e.stop, c.close)
	e.tg = framed{c}
	e.shapes = hotShapes(e.pop, meanWidth(sz.pushShare()))
	e.script(seed, pickFrom(e.shapes))
	return e, nil
}

func buildCluster3(w *workloadDef, sz sizes, pop *population, seed int64, _ string) (*env, error) {
	ids := []string{"p0", "p1", "p2"}
	e, err := newEnv(w, sz, pop, ids, "")
	if err != nil {
		return nil, err
	}
	cl, addrs, stop, err := servedPartitions(e.dep, ids)
	if err != nil {
		e.close()
		return nil, err
	}
	e.stop = append(e.stop, stop)
	e.cl, e.addrs, e.tg = cl, addrs, clustered{cl}
	ref := meanWidth(sz.pushShare())
	hot, bases := hotShapes(e.pop, ref), tightBases(e.pop)
	e.script(seed, func(g *generator) *queryOp {
		if g.rng.Intn(2) == 0 {
			return hot[g.rng.Intn(len(hot))]
		}
		return tightQuery(g, bases, ref)
	})
	e.shapes = probeShapes(e, 16)
	return e, nil
}

// workloads are the six workloads, in the order `-workload all` runs
// them. BENCHMARK.json carries the same names and reasons.
var workloads = []*workloadDef{
	{
		name:  "hot-shapes",
		why:   "16 repeated shapes sent as SQL text over 2000 links, one tick per 2000 queries: parse, admission and the plan cache do the work; scan, sync and refresh do little",
		full:  sizes{Objects: 2000, SegmentQueries: 400000, TracedQueries: 60000, QueriesPerTick: 2000, PushesPerTick: 100, AgeTicks: 100},
		smoke: sizes{Objects: 40, SegmentQueries: 2000, TracedQueries: 1000, QueriesPerTick: 400, PushesPerTick: 2, AgeTicks: 20},
		build: buildHotShapes,
	},
	{
		name:  "scale-tick",
		why:   "100000 objects in 32 Zipf-sized tenant tables, a tick per 50 queries, 10 pushes per query: the per-tick bound rewrite and rescans dominate and the plan cache dies every tick",
		full:  sizes{Objects: 100000, Tenants: 32, SegmentQueries: 4000, TracedQueries: 2000, QueriesPerTick: 50, PushesPerQuery: 10, AgeTicks: 1200},
		smoke: sizes{Objects: 2000, Tenants: 32, SegmentQueries: 100, TracedQueries: 100, QueriesPerTick: 50, PushesPerQuery: 1, AgeTicks: 30},
		build: buildScaleTick,
	},
	{
		name:  "tight-precision",
		why:   "a tick and 5% of 2000 links pushed before every query, R at 0.1-0.5 of the cached width, one query in eight budgeted: CHOOSE_REFRESH, the source round trip and install dominate",
		full:  sizes{Objects: 2000, SegmentQueries: 2000, TracedQueries: 2000, QueriesPerTick: 1, PushesPerTick: 100, AgeTicks: 100},
		smoke: sizes{Objects: 40, SegmentQueries: 100, TracedQueries: 100, QueriesPerTick: 1, PushesPerTick: 2, AgeTicks: 20},
		build: buildTightPrecision,
	},
	{
		name:  "push-durable",
		loop:  openLoop,
		why:   "WAL-backed store (SyncNever) of 20000 links, 32 standing queries, open-loop writer at 5000 pushes/s beside a closed-loop reader: WAL append and subscription upkeep share the store with reads",
		full:  sizes{Objects: 20000, SegmentTicks: 1, QueriesPerTick: 20, PushesPerTick: 10000, AgeTicks: 6, Standing: 32},
		smoke: sizes{Objects: 400, SegmentTicks: 1, QueriesPerTick: 20, PushesPerTick: 100, AgeTicks: 4, Standing: 8},
		build: buildPushDurable,
	},
	{
		name:  "wire-framed",
		loop:  pipelined,
		why:   "the hot-shapes population and shapes through server.New on one loopback framed connection, depth 1 then depth 16: frame codec, server admission and flush dominate",
		full:  sizes{Objects: 2000, SegmentQueries: 20000, PipelinedQueries: 200000, TracedQueries: 10000, QueriesPerTick: 2000, PushesPerTick: 100, AgeTicks: 100},
		smoke: sizes{Objects: 40, SegmentQueries: 300, PipelinedQueries: 1200, TracedQueries: 300, QueriesPerTick: 400, PushesPerTick: 2, AgeTicks: 20},
		build: buildWireFramed,
	},
	{
		name:  "cluster-3",
		why:   "2000 links on 3 partitions served on loopback behind the coordinator, hot and tight shapes mixed, a tick per 20 queries: scatter, state merge, central planning and the partition wire dominate",
		full:  sizes{Objects: 2000, SegmentQueries: 4000, TracedQueries: 2000, QueriesPerTick: 20, PushesPerTick: 100, AgeTicks: 100},
		smoke: sizes{Objects: 40, SegmentQueries: 100, TracedQueries: 100, QueriesPerTick: 20, PushesPerTick: 2, AgeTicks: 20},
		build: buildCluster3,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
