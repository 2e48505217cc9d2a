package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"trapp"
	"trapp/internal/partition"
)

// target is how a workload's queries reach the engine: an embedded
// System, a framed connection to a server, or a cluster coordinator.
type target interface {
	exec(ctx context.Context, q *queryOp, rec *recorder, parent, req int32) (trapp.Result, error)
}

// embedded executes against one System through the root API; with
// parse set, every query arrives as SQL text and is compiled first.
type embedded struct {
	sys   *trapp.System
	parse bool
}

func (t embedded) exec(ctx context.Context, q *queryOp, rec *recorder, parent, req int32) (trapp.Result, error) {
	qq := q.q
	if t.parse {
		sp := rec.begin(spParse, parent, req)
		var err error
		qq, err = trapp.ParseQuery(q.sql, t.sys)
		rec.end(sp)
		if err != nil {
			return trapp.Result{}, err
		}
	}
	opts := q.opts
	if rec != nil {
		opts = q.traced
	}
	sp := rec.begin(spExecute, parent, req)
	res, err := t.sys.ExecuteCtx(ctx, qq, opts...)
	rec.end(sp)
	rec.graft(sp, res.Trace)
	return res, err
}

// framed executes over one framed connection, depth 1.
type framed struct{ c *framedClient }

func (t framed) exec(_ context.Context, q *queryOp, rec *recorder, parent, req int32) (trapp.Result, error) {
	return t.c.do(q, rec, parent, req)
}

// clustered executes through a scatter-gather coordinator.
type clustered struct{ cl *partition.Cluster }

func (t clustered) exec(ctx context.Context, q *queryOp, rec *recorder, parent, req int32) (trapp.Result, error) {
	sp := rec.begin(spCluster, parent, req)
	res, err := t.cl.ExecuteCtx(ctx, q.q, q.opts...)
	rec.end(sp)
	return res, err
}

// segStats is what one segment of the script measured.
type segStats struct {
	// elapsed and queries define queries_per_s: the whole segment, or
	// the pipelined part on the wire workload.
	elapsed time.Duration
	queries int
	// wall is the whole segment; allQueries every query in it.
	wall       time.Duration
	allQueries int
	qLat       []int64 // ns per query (depth-1 queries on the wire)
	pushLat    []int64 // ns per push, from its due time on an open-loop writer
	lagLat     []int64 // ns the open-loop writer started a push late
	cost       float64
	refreshed  int
	ticks      int
	pushes     int
	mallocs    uint64
	gcPauseNS  uint64
	gcCycles   uint32
	failed     int
	goroutines int
}

// failureLog prints the first few failed operations; every failure is
// counted whether printed or not.
type failureLog struct {
	mu      sync.Mutex
	printed int
}

func (f *failureLog) report(workload, what, subject, why string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.printed < 10 {
		f.printed++
		fmt.Fprintf(os.Stderr, "bench: %s: %s FAILED: %s: %s\n", workload, what, subject, why)
	}
}

// runner drives one deployment with one target.
type runner struct {
	workload string
	pop      *population
	dep      *deployment
	tg       target
	fails    *failureLog
	// syncedAt[t] is the tick table t was last synchronized at in a
	// traced segment (see syncBeforeQuery).
	syncedAt []int64
	// syncedObjects counts the tuples those synchronizations covered.
	syncedObjects int64
}

func newRunner(workload string, pop *population, dep *deployment, tg target, fails *failureLog) *runner {
	r := &runner{workload: workload, pop: pop, dep: dep, tg: tg, fails: fails, syncedAt: make([]int64, len(pop.tables))}
	for i := range r.syncedAt {
		r.syncedAt[i] = -1
	}
	return r
}

func (r *runner) doTick(rec *recorder, root, req int32) {
	sp := rec.begin(spAdvance, root, req)
	r.dep.tick()
	rec.end(sp)
}

func (r *runner) doPush(o op, arena []float64, nvals int, rec *recorder, root, req int32) error {
	sp := rec.begin(spSetValue, root, req)
	err := r.dep.srcs[o.obj].SetValue(r.pop.keys[o.obj], arena[o.vals:int(o.vals)+nvals])
	rec.end(sp)
	return err
}

// syncBeforeQuery, in a traced segment, synchronizes the query's table
// in a span of its own if the clock moved since the table's last
// query: the work ExecuteCtx would do first, made visible as cache.sync
// instead of hidden inside the first query after a tick.
func (r *runner) syncBeforeQuery(q *queryOp, rec *recorder, root, req int32) {
	if rec == nil || len(r.dep.systems) != 1 {
		return
	}
	now := r.dep.systems[0].Clock.Now()
	if r.syncedAt[q.table] == now {
		return
	}
	r.syncedAt[q.table] = now
	r.syncedObjects += int64(len(r.pop.tables[q.table].objs))
	if c := r.dep.systems[0].MountedCache(r.pop.tables[q.table].name); c != nil {
		sp := rec.begin(spSync, root, req)
		c.Sync()
		rec.end(sp)
	}
}

// settle drains the continuous engine — the upkeep of standing queries
// — in a span of its own.
func (r *runner) settle(rec *recorder, root, req int32) {
	sp := rec.begin(spSettle, root, req)
	for _, s := range r.dep.systems {
		s.Settle()
	}
	rec.end(sp)
}

// memBefore/memAfter bracket a segment's allocation and GC counters.
func memBefore() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func (st *segStats) memAfter(before runtime.MemStats) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	st.mallocs = m.Mallocs - before.Mallocs
	st.gcPauseNS = m.PauseTotalNs - before.PauseTotalNs
	st.gcCycles = m.NumGC - before.NumGC
	st.goroutines = runtime.NumGoroutine()
}

// segment runs one closed-loop, single-driver segment of the script:
// every operation in order, each query timed and cheaply checked. With a
// recorder, every call into the program is a span under one root.
func (r *runner) segment(ops []op, arena []float64, nvals int, rec *recorder) segStats {
	st := segStats{qLat: make([]int64, 0, len(ops)), pushLat: make([]int64, 0, len(ops))}
	ctx := context.Background()
	mem := memBefore()
	root := rec.begin(spSegment, -1, -1)
	start := time.Now()
	pendingSettle := false
	for i, o := range ops {
		req := int32(i)
		switch o.kind {
		case opTick:
			r.doTick(rec, root, req)
			st.ticks++
		case opPush:
			t0 := time.Now()
			if err := r.doPush(o, arena, nvals, rec, root, req); err != nil {
				st.failed++
				r.fails.report(r.workload, "push", fmt.Sprint("object ", o.obj), err.Error())
			}
			st.pushLat = append(st.pushLat, int64(time.Since(t0)))
			st.pushes++
			pendingSettle = true
		case opQuery:
			if pendingSettle && rec != nil {
				r.settle(rec, root, req)
			}
			pendingSettle = false
			r.syncBeforeQuery(o.q, rec, root, req)
			t0 := time.Now()
			res, err := r.tg.exec(ctx, o.q, rec, root, req)
			st.qLat = append(st.qLat, int64(time.Since(t0)))
			if why := checkCheap(o.q, res, err); why != "" {
				st.failed++
				r.fails.report(r.workload, "query", o.q.sql, why)
			}
			st.cost += res.RefreshCost
			st.refreshed += res.Refreshed
			st.queries++
		}
	}
	st.elapsed = time.Since(start)
	rec.end(root)
	st.wall, st.allQueries = st.elapsed, st.queries
	st.memAfter(mem)
	return st
}

// pipelineDepth is the number of requests in flight in the wire
// workload's pipelined part.
const pipelineDepth = 16

// segmentPipelined runs the wire workload's segment: the operations up
// to split at depth 1 (per-query latency), the rest with pipelineDepth
// requests in flight (throughput). Ticks and pushes are applied between
// bursts.
func (r *runner) segmentPipelined(ops []op, split int, arena []float64, nvals int) segStats {
	mem := memBefore()
	st := r.segment(ops[:split], arena, nvals, nil)
	c := r.tg.(framed).c
	start := time.Now()
	var burst []*queryOp
	flush := func() {
		if len(burst) == 0 {
			return
		}
		for _, q := range burst {
			if err := c.send(q); err != nil {
				st.failed++
				r.fails.report(r.workload, "send", q.sql, err.Error())
			}
		}
		err := c.bw.Flush()
		for _, q := range burst {
			var res trapp.Result
			if err == nil {
				var payload []byte
				if payload, err = c.recvPayload(); err == nil {
					_, res, err = decode(payload)
				}
			}
			if why := checkCheap(q, res, err); why != "" {
				st.failed++
				r.fails.report(r.workload, "pipelined query", q.sql, why)
			}
			st.cost += res.RefreshCost
			st.refreshed += res.Refreshed
		}
		st.allQueries += len(burst)
		burst = burst[:0]
	}
	piped := 0
	for _, o := range ops[split:] {
		switch o.kind {
		case opTick:
			flush()
			r.doTick(nil, -1, -1)
			st.ticks++
		case opPush:
			flush()
			t0 := time.Now()
			if err := r.doPush(o, arena, nvals, nil, -1, -1); err != nil {
				st.failed++
			}
			st.pushLat = append(st.pushLat, int64(time.Since(t0)))
			st.pushes++
		case opQuery:
			burst = append(burst, o.q)
			piped++
			if len(burst) == pipelineDepth {
				flush()
			}
		}
	}
	flush()
	st.elapsed, st.queries = time.Since(start), piped
	st.wall += st.elapsed
	st.memAfter(mem)
	return st
}

// writerRate is the open-loop writer's schedule in the durable
// workload, pushes per second.
const writerRate = 5000

// segmentOpenLoop runs the durable workload's segment on two
// goroutines: an open-loop writer that issues the script's ticks and
// pushes on a fixed schedule — each push timed from when it was due, so
// a stall charges every push queued behind it — and a closed-loop reader
// cycling through the queries until the writer is done. The writer
// settles the continuous engine itself after every push and tick: the
// upkeep of the standing queries is then part of the push it belongs to,
// and two goroutines share the two cores. Left to the engine's own
// maintainer goroutine, the same work makes a third busy goroutine, and
// on this box what the run then measures is the Go scheduler's 10 ms
// time slice (push p99 83–123 ms from run to run).
func (r *runner) segmentOpenLoop(ops []op, queries []*queryOp, arena []float64, nvals int, wrec, rrec *recorder) segStats {
	st := segStats{pushLat: make([]int64, 0, len(ops)), lagLat: make([]int64, 0, len(ops))}
	ctx := context.Background()
	mem := memBefore()
	var done sync.WaitGroup
	stop := make(chan struct{})
	wroot := wrec.begin(spSegment, -1, -1)
	rroot := rrec.begin(spSegment, -1, -1)
	start := time.Now()

	var wfailed int
	done.Add(1)
	go func() { // the writer
		defer done.Done()
		defer close(stop)
		interval := time.Second / writerRate
		n := 0
		for i, o := range ops {
			if o.kind == opTick {
				r.doTick(wrec, wroot, int32(i))
				r.settle(wrec, wroot, int32(i))
				st.ticks++
				continue
			}
			due := start.Add(time.Duration(n) * interval)
			n++
			for {
				wait := time.Until(due)
				if wait <= 0 {
					break
				}
				if wait > time.Millisecond {
					time.Sleep(wait - time.Millisecond/2)
				} else {
					runtime.Gosched()
				}
			}
			st.lagLat = append(st.lagLat, int64(time.Since(due)))
			if err := r.doPush(o, arena, nvals, wrec, wroot, int32(i)); err != nil {
				wfailed++
			}
			r.settle(wrec, wroot, int32(i))
			st.pushLat = append(st.pushLat, int64(time.Since(due)))
			st.pushes++
		}
	}()

	// the reader
	for i := 0; ; i++ {
		select {
		case <-stop:
		default:
			q := queries[i%len(queries)]
			r.syncBeforeQuery(q, rrec, rroot, int32(i))
			t0 := time.Now()
			res, err := r.tg.exec(ctx, q, rrec, rroot, int32(i))
			st.qLat = append(st.qLat, int64(time.Since(t0)))
			if why := checkCheap(q, res, err); why != "" {
				st.failed++
				r.fails.report(r.workload, "query", q.sql, why)
			}
			st.cost += res.RefreshCost
			st.refreshed += res.Refreshed
			st.queries++
			continue
		}
		break
	}
	done.Wait()
	st.elapsed = time.Since(start)
	wrec.end(wroot)
	rrec.end(rroot)
	st.failed += wfailed
	st.wall, st.allQueries = st.elapsed, st.queries
	st.memAfter(mem)
	return st
}

// sortedCopy returns the samples in ascending order.
func sortedCopy(xs []int64) []int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}
