package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"trapp"
)

// The benchmark's span recorder: spans are taken from outside the
// program, around calls into each layer's public functions, kept in
// memory while a traced segment runs and written out afterwards. The
// span tree query.WithTrace returns is grafted under the benchmark's own
// query.execute span, so the program's existing phases appear as its
// children without any new tracing inside the program.

// Span names. Names below the program-phase mark are the benchmark's
// own; the rest are the program's WithTrace phases under their layer's
// name.
const (
	spSegment    = iota // root: one traced segment
	spParse             // sql: ParseQuery
	spSync              // cache: Cache.Sync, called explicitly before the first query after a tick
	spExecute           // query: System.ExecuteCtx
	spSetValue          // source: Source.SetValue
	spAdvance           // netsim: Clock.Advance
	spSettle            // continuous: System.Settle
	spEncode            // server: AppendRequest
	spRoundTrip         // server: flush, server-side work, read
	spDecode            // server: DecodeResponse
	spCluster           // partition: Cluster.ExecuteCtx
	spNodeCall          // partition: one Node.State/Inputs/Refresh call
	spCheckpoint        // relation: Cache.Checkpoint
	spReopen            // relation: close, reopen, re-handshake
	spSyncProbe         // cache: the Sync every ExecuteCtx starts with (program phase)
	spPlanCache         // query: plan-cache lookup (program phase)
	spScan              // aggregate: step-1 scan (program phase)
	spChoose            // refresh: CHOOSE_REFRESH (program phase)
	spRefresh           // source: refresh fan-out (program phase)
	spBatch             // source: one per-source batch (program phase)
	spFold              // aggregate: step-3 refold (program phase)
	spOther             // a program phase this file does not know
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"bench.segment", "sql.parse", "cache.sync", "query.execute", "source.setvalue",
	"netsim.clock.advance", "continuous.settle", "server.frame.encode",
	"server.roundtrip", "server.frame.decode", "partition.cluster.execute",
	"partition.node.call", "relation.checkpoint", "relation.reopen",
	"cache.sync.in_query", "query.plancache", "aggregate.scan", "refresh.choose", "source.refresh",
	"source.refresh.batch", "aggregate.fold", "program.other",
}

// programSpan maps a WithTrace phase name to a span name.
func programSpan(name string) uint8 {
	switch name {
	case "sync":
		return spSyncProbe
	case "plancache":
		return spPlanCache
	case "scan":
		return spScan
	case "choose":
		return spChoose
	case "refresh":
		return spRefresh
	case "fold":
		return spFold
	}
	if len(name) > 7 && name[:7] == "source:" {
		return spBatch
	}
	return spOther
}

// span is one recorded interval; times are nanoseconds since the
// recorder started, parent is an index into the recorder's spans (-1 for
// the root) and req numbers the scripted operation it belongs to.
type span struct {
	name       uint8
	parent     int32
	req        int32
	start, end int64
}

// recorder collects the spans of one goroutine. All methods are safe on
// a nil receiver, so untraced segments run the same code with tracing a
// nil check.
type recorder struct {
	t0    time.Time
	spans []span
	// grafts are the program traces to attach once the segment is over:
	// snapshotting a trace allocates, and must not run between spans.
	grafts []graft
}

type graft struct {
	parent int32
	trace  *trapp.Trace
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its index.
func (r *recorder) begin(name uint8, parent, req int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: parent, req: req, start: r.now()})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.spans[id].end = r.now()
}

// graft schedules a program trace to become the children of span id.
func (r *recorder) graft(id int32, tr *trapp.Trace) {
	if r == nil || tr == nil {
		return
	}
	r.grafts = append(r.grafts, graft{parent: id, trace: tr})
}

// finish attaches the scheduled program traces. A program trace's root
// starts a few instructions after the query.execute span; it is aligned
// with the span's start, and children are clipped to their parent.
func (r *recorder) finish() {
	for _, g := range r.grafts {
		p := r.spans[g.parent]
		var walk func(parent int32, s trapp.SpanSnapshot)
		walk = func(parent int32, s trapp.SpanSnapshot) {
			for _, c := range s.Children {
				st := min(p.start+c.StartNS, r.spans[parent].end)
				en := min(st+c.DurationNS, r.spans[parent].end)
				r.spans = append(r.spans, span{name: programSpan(c.Name), parent: parent, req: p.req, start: st, end: en})
				walk(int32(len(r.spans)-1), c)
			}
		}
		walk(g.parent, g.trace.Snapshot().Root)
	}
	r.grafts = nil
}

// spanTotals aggregates one span name over a traced segment.
type spanTotals struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
	// SelfNS is total time minus the part child spans cover.
	SelfNS int64 `json:"self_ns"`
}

// totals computes per-name counts, durations and self times. A span's
// self time is its duration minus the union of its children's
// intervals (children of one parent may overlap: a scatter runs its
// node calls in parallel).
func totals(spans []span) [numSpanNames]spanTotals {
	var out [numSpanNames]spanTotals
	for i := range out {
		out[i].Name = spanNames[i]
	}
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	for i, s := range spans {
		t := &out[s.name]
		t.Count++
		t.TotalNS += s.end - s.start
		covered := int64(0)
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		at := s.start
		for _, k := range kids {
			st, en := max(spans[k].start, at), min(spans[k].end, s.end)
			if en > st {
				covered += en - st
				at = en
			}
		}
		t.SelfNS += s.end - s.start - covered
	}
	return out
}

// traceFileSpans caps how many spans the trace file lists; the totals
// always cover every span.
const traceFileSpans = 20000

// writeTrace writes the traced segment to path.
func writeTrace(path, workload string, seed int64, spans []span) error {
	type fileSpan struct {
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		Parent  int32  `json:"parent"`
		Req     int32  `json:"req"`
	}
	tot := totals(spans)
	doc := struct {
		Workload string       `json:"workload"`
		Seed     int64        `json:"seed"`
		Spans    int          `json:"spans"`
		Totals   []spanTotals `json:"totals"`
		First    []fileSpan   `json:"first_spans"`
	}{Workload: workload, Seed: seed, Spans: len(spans)}
	for _, t := range tot {
		if t.Count > 0 {
			doc.Totals = append(doc.Totals, t)
		}
	}
	for _, s := range spans[:min(len(spans), traceFileSpans)] {
		doc.First = append(doc.First, fileSpan{spanNames[s.name], s.start, s.end, s.parent, s.req})
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
