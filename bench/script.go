package main

import (
	"fmt"
	"math"
	"math/rand"

	"trapp"
)

// A script is the seed-generated operation stream a workload drives:
// queries, logical-clock ticks and source pushes in a fixed order. The
// driver advances the clock and issues the pushes itself, so the ratio of
// ticks to queries — and with it every count the program reports — is a
// property of the script, not of the scheduler.

type opKind uint8

const (
	opQuery opKind = iota
	opTick
	opPush
)

// op is one scripted operation. A push carries the object index and the
// offset of its new values in the segment's value arena.
type op struct {
	kind opKind
	obj  int32
	vals int32
	q    *queryOp
}

// queryOp is one query as every target needs it: the compiled query for
// embedded and clustered execution, its SQL text for the parser and the
// wire, and the per-request options.
type queryOp struct {
	q      trapp.Query
	sql    string
	budget float64 // cost budget, 0 for none
	table  int32   // index into population.tables

	opts   []trapp.ExecOption
	traced []trapp.ExecOption // opts plus WithTrace
}

func newQueryOp(q trapp.Query, table int, budget float64) *queryOp {
	qo := &queryOp{q: q, sql: q.String(), budget: budget, table: int32(table)}
	if budget > 0 {
		qo.opts = []trapp.ExecOption{trapp.WithCostBudget(budget)}
	}
	qo.traced = append(append([]trapp.ExecOption(nil), qo.opts...), trapp.WithTrace())
	return qo
}

// scriptParams fixes a workload's operation mix.
type scriptParams struct {
	// queriesPerTick: a tick precedes every n-th query.
	queriesPerTick int
	// pushesPerTick pushes follow each tick; pushesPerQuery precede each
	// query. Pushed objects are drawn uniformly.
	pushesPerTick  int
	pushesPerQuery int
	// pick draws the next query.
	pick func(g *generator) *queryOp
}

// generator produces the script, segment by segment, from one seeded
// source of randomness; the same seed gives the same operations no
// matter how fast they are executed.
type generator struct {
	scriptParams
	pop       *population
	rng       *rand.Rand
	nvals     int // bounded columns per object
	sinceTick int
	// drawn counts the queries drawn so far and offset is a seeded start
	// in [0,1), for picks that stratify their draws.
	drawn  int
	offset float64
}

func newGenerator(pop *population, sp scriptParams, seed int64) *generator {
	rng := rand.New(rand.NewSource(seed))
	return &generator{
		scriptParams: sp,
		pop:          pop,
		rng:          rng,
		nvals:        len(pop.values(0)),
		sinceTick:    sp.queriesPerTick, // the script opens with a tick
		offset:       rng.Float64(),
	}
}

func (g *generator) push(ops []op, arena []float64) ([]op, []float64) {
	i := g.rng.Intn(g.pop.len())
	off := len(arena)
	arena = append(arena, g.pop.step(i, g.rng)...)
	return append(ops, op{kind: opPush, obj: int32(i), vals: int32(off)}), arena
}

func (g *generator) tick(ops []op, arena []float64, pushes int) ([]op, []float64) {
	ops = append(ops, op{kind: opTick})
	for j := 0; j < pushes; j++ {
		ops, arena = g.push(ops, arena)
	}
	return ops, arena
}

// segment appends the operations around the next n queries.
func (g *generator) segment(n int, ops []op, arena []float64) ([]op, []float64) {
	for k := 0; k < n; k++ {
		if g.sinceTick >= g.queriesPerTick {
			ops, arena = g.tick(ops, arena, g.pushesPerTick)
			g.sinceTick = 0
		}
		for j := 0; j < g.pushesPerQuery; j++ {
			ops, arena = g.push(ops, arena)
		}
		ops = append(ops, op{kind: opQuery, q: g.pick(g)})
		g.sinceTick++
	}
	return ops, arena
}

// age appends n ticks with the pushes that n ticks' worth of queries
// would carry, and no queries: it brings bound ages to their stationary
// distribution before anything is timed.
func (g *generator) age(n int, ops []op, arena []float64) ([]op, []float64) {
	for k := 0; k < n; k++ {
		ops, arena = g.tick(ops, arena, g.pushesPerTick+g.pushesPerQuery*g.queriesPerTick)
	}
	return ops, arena
}

// meanWidth is the stationary mean per-tuple bound width 2·W·E√age when
// a share p of the objects is pushed per tick (age geometric, mean 1/p).
func meanWidth(p float64) float64 {
	return 2 * boundWidth * math.Sqrt(math.Pi/(4*p))
}

// --- query shapes ------------------------------------------------------

// mustParse compiles one shape against the population's schemas. Shapes
// are benchmark constants, so a parse failure is a bug in this file.
func mustParse(pop *population, sql string) trapp.Query {
	schemas := make(map[string]*trapp.Schema, len(pop.tables))
	for _, t := range pop.tables {
		schemas[t.name] = t.schema
	}
	q, err := trapp.ParseQueryWith(sql, schemas)
	if err != nil {
		panic(fmt.Sprintf("bench: shape %q: %v", sql, err))
	}
	return q
}

// hotShapes are the 16 repeated shapes of the links workloads. Their
// structure is fixed (the seed moves the data, not the shapes); ref is
// the population's mean per-tuple bound width and n its cardinality.
// Fourteen constraints are loose — several mean widths, so the cached
// bounds answer them — and the last two sit just under the mean width,
// so the first execution after each tick pays a small, steady refresh.
func hotShapes(pop *population, ref float64) []*queryOp {
	n := float64(len(pop.tables[0].objs))
	nodes := float64(pop.links.Nodes)
	sqls := []string{
		fmt.Sprintf("SELECT SUM(latency) WITHIN %g FROM links", 3*ref*n),
		fmt.Sprintf("SELECT AVG(traffic) WITHIN %g FROM links", 3*ref),
		fmt.Sprintf("SELECT MIN(bandwidth) WITHIN %g FROM links", 5*ref),
		fmt.Sprintf("SELECT MAX(latency) WITHIN %g FROM links WHERE traffic > 120", 5*ref),
		"SELECT SUM(traffic) FROM links",
		fmt.Sprintf("SELECT COUNT(latency) WITHIN %g FROM links WHERE latency > 10", n/2),
		fmt.Sprintf("SELECT AVG(bandwidth) WITHIN %g FROM links WHERE to < %g", 3*ref, nodes/2),
		fmt.Sprintf("SELECT SUM(bandwidth) WITHIN %g FROM links WHERE to >= %g", 3*ref*n, nodes/2),
		fmt.Sprintf("SELECT MAX(traffic) WITHIN %g FROM links", 5*ref),
		fmt.Sprintf("SELECT MIN(latency) WITHIN %g FROM links WHERE bandwidth > 60", 5*ref),
		fmt.Sprintf("SELECT AVG(latency) WITHIN %g FROM links", 3*ref),
		fmt.Sprintf("SELECT SUM(latency) WITHIN %g FROM links WHERE to = 7", 3*ref*n),
		fmt.Sprintf("SELECT COUNT(traffic) WITHIN %g FROM links WHERE traffic > 100 AND bandwidth < 80", n),
		fmt.Sprintf("SELECT MAX(bandwidth) WITHIN %g FROM links WHERE to < %g", 5*ref, nodes/4),
		fmt.Sprintf("SELECT AVG(traffic) WITHIN %g FROM links", 0.8*ref),
		fmt.Sprintf("SELECT SUM(bandwidth) WITHIN %g FROM links", 0.8*ref*n),
	}
	out := make([]*queryOp, len(sqls))
	for i, s := range sqls {
		out[i] = newQueryOp(mustParse(pop, s), 0, 0)
	}
	return out
}

// tightQuery draws one query of the paper's Figure-6 regime: SUM, AVG,
// MIN or MAX over a bounded column with R at 0.2–0.8 of the width the
// cached bounds give, one in eight under a cost budget. The draw is
// stratified, not independent — aggregates in rotation, the R fraction
// and the budget from low-discrepancy sequences started at a seeded
// offset — because a SUM costs a thousand times what a MIN does, and
// independent draws leave refresh_cost_per_query ±1.5 % of sampling
// noise over 10 000 queries.
func tightQuery(g *generator, bases []trapp.Query, ref float64) *queryOp {
	k := g.drawn
	g.drawn++
	q := bases[(k+k/len(bases))%len(bases)]
	q.Within = (0.1 + 0.4*frac(g.offset+float64(k)*0.6180339887498949)) * ref
	if q.Agg == trapp.Sum {
		q.Within *= float64(len(g.pop.tables[0].objs))
	}
	budget := 0.0
	if k%8 == 0 {
		budget = 20 + 180*frac(g.offset+float64(k/8)*0.7548776662466927)
	}
	return newQueryOp(q, 0, budget)
}

func frac(x float64) float64 { return x - math.Floor(x) }

// tightBases are the aggregate × column combinations tightQuery draws
// from.
func tightBases(pop *population) []trapp.Query {
	var out []trapp.Query
	for _, s := range []string{
		"SELECT SUM(latency) FROM links",
		"SELECT AVG(bandwidth) FROM links",
		"SELECT MIN(latency) FROM links",
		"SELECT SUM(traffic) FROM links",
		"SELECT AVG(traffic) FROM links WHERE bandwidth > 50",
		"SELECT MAX(traffic) FROM links",
		"SELECT SUM(bandwidth) FROM links WHERE to >= 20",
		"SELECT AVG(latency) FROM links",
	} {
		out = append(out, mustParse(pop, s))
	}
	return out
}

// scaleQuery draws one query against a tenant table: mostly loose
// constraints, so the scan dominates and refresh stays a small share.
func scaleQuery(g *generator, tenant int, ref float64) *queryOp {
	name := g.pop.tables[tenant].name
	sz := float64(len(g.pop.tables[tenant].objs))
	r := g.rng
	var sql string
	switch r.Intn(5) {
	case 0:
		sql = fmt.Sprintf("SELECT SUM(value) WITHIN %g FROM %s", (2.5+r.Float64())*ref*sz, name)
	case 1:
		sql = fmt.Sprintf("SELECT AVG(load) WITHIN %g FROM %s", (2.5+r.Float64())*ref, name)
	case 2:
		sql = fmt.Sprintf("SELECT MIN(value) WITHIN %g FROM %s", (2+r.Float64())*ref, name)
	case 3:
		sql = fmt.Sprintf("SELECT COUNT(value) WITHIN %g FROM %s WHERE load > %d", sz/3, name, 20+r.Intn(60))
	default:
		sql = fmt.Sprintf("SELECT MAX(load) WITHIN %g FROM %s WHERE region = %d",
			(2+r.Float64())*ref, name, r.Intn(g.pop.scale.Config.Regions))
	}
	return newQueryOp(mustParse(g.pop, sql), tenant, 0)
}

// readerQueries are the n statements the durable workload's reader
// cycles through. Every one carries its own predicate constant, so no
// two share a plan-cache entry: a reader of repeated shapes would answer
// from the plan cache at a microsecond apiece whenever the writer stalls
// (a checkpoint, a view rebuild), and its throughput would count the
// stalls instead of the store. One statement in eight sits under the
// mean width and pays a refresh, which the WAL logs.
func readerQueries(pop *population, n int, ref float64, rng *rand.Rand) []*queryOp {
	rows := float64(len(pop.tables[0].objs))
	nodes := float64(pop.links.Nodes)
	out := make([]*queryOp, n)
	for i := range out {
		var sql string
		switch i % 8 {
		case 0, 4:
			sql = fmt.Sprintf("SELECT SUM(latency) WITHIN %g FROM links WHERE to >= %g", 3*ref*rows, rng.Float64()*nodes/2)
		case 1, 5:
			sql = fmt.Sprintf("SELECT AVG(traffic) WITHIN %g FROM links WHERE bandwidth > %g", 3*ref, 40+rng.Float64()*30)
		case 2:
			sql = fmt.Sprintf("SELECT MAX(bandwidth) WITHIN %g FROM links WHERE traffic > %g", 5*ref, 80+rng.Float64()*40)
		case 3:
			sql = fmt.Sprintf("SELECT COUNT(latency) WITHIN %g FROM links WHERE latency > %g", rows/2, 2+rng.Float64()*16)
		case 6:
			sql = fmt.Sprintf("SELECT MIN(latency) WITHIN %g FROM links WHERE to < %g", 5*ref, nodes/2+rng.Float64()*nodes/2)
		default:
			sql = fmt.Sprintf("SELECT AVG(traffic) WITHIN %g FROM links WHERE to >= %g", 0.8*ref, rng.Float64()*nodes/8)
		}
		out[i] = newQueryOp(mustParse(pop, sql), 0, 0)
	}
	return out
}

// standingQueries are the n subscriptions of the durable workload:
// per-endpoint aggregates whose constraints sit near the mean width, so
// pushes move their answers and some repairs are paid.
func standingQueries(pop *population, n int, ref float64) []trapp.Query {
	out := make([]trapp.Query, n)
	for i := range out {
		var sql string
		switch i % 4 {
		case 0:
			sql = fmt.Sprintf("SELECT SUM(traffic) WITHIN %g FROM links WHERE to = %d", 8*ref, i)
		case 1:
			sql = fmt.Sprintf("SELECT AVG(latency) WITHIN %g FROM links WHERE to = %d", ref, i)
		case 2:
			sql = fmt.Sprintf("SELECT MAX(bandwidth) WITHIN %g FROM links WHERE to = %d", 1.5*ref, i)
		default:
			sql = fmt.Sprintf("SELECT COUNT(traffic) WITHIN 4 FROM links WHERE traffic > 110 AND to = %d", i)
		}
		out[i] = mustParse(pop, sql)
	}
	return out
}
