package continuous

import (
	"fmt"
	"sort"

	"trapp/internal/aggregate"
	"trapp/internal/interval"
	"trapp/internal/predicate"
	"trapp/internal/query"
	"trapp/internal/relation"
)

// view is the shared incremental state for one standing-query shape: all
// subscriptions whose queries differ only in their precision constraint
// attach to the same view, so a table with a thousand dashboards showing
// the same aggregate is maintained once. A view keeps, per object key,
// the object's current contribution to the aggregate (its classified,
// possibly shrunk bound on the aggregation column) and, per group, the
// folded bounded answer. Events update contributions only for the
// changed keys; answers are re-folded only for groups containing a
// changed contribution.
type view struct {
	sig        string
	table      string
	agg        aggregate.Func
	trivial    bool // no WHERE predicate
	classifier aggregate.Classifier

	groupBy  []string
	groupIdx []int // exact grouping columns, schema order

	subs []*Subscription

	built   bool
	contrib map[int64]*contrib
	groups  map[string]*group

	// attributedCost / attributedRefreshes accumulate, across scheduler
	// rounds, the cost and count of the refreshes this view's plans
	// demanded (whether or not another view shared them). Monitor polls
	// report deltas of these.
	attributedCost      float64
	attributedRefreshes int64
}

// contrib is one object's tracked contribution to a view.
type contrib struct {
	gkey        string
	in          aggregate.Input
	contributes bool // false for T− objects (tracked only for group row counts)
}

// group is one group's maintained answer; scalar views use the single
// group with key "".
type group struct {
	gkey   string
	vals   []float64
	rows   int // rows mapped to this group, including T−
	inputs map[int64]aggregate.Input
	dirty  bool
	answer interval.Interval
}

// newView builds an empty view for the query shape (constraint fields of
// q are ignored; each subscription carries its own).
func newView(sig string, q query.Query, col int, groupIdx []int) *view {
	return &view{
		sig:        sig,
		table:      q.Table,
		agg:        q.Agg,
		trivial:    predicate.IsTrivial(q.Where),
		classifier: aggregate.NewClassifier(col, q.Where, true),
		groupBy:    append([]string(nil), q.GroupBy...),
		groupIdx:   groupIdx,
	}
}

// scalar reports whether the view has no GROUP BY.
func (v *view) scalar() bool { return len(v.groupIdx) == 0 }

// groupOf maps a tuple to its group key. Grouping columns are exact, so
// membership is certain (their bounds are points).
func (v *view) groupOf(tu *relation.Tuple) (string, []float64) {
	if v.scalar() {
		return "", nil
	}
	vals := make([]float64, len(v.groupIdx))
	for i, ci := range v.groupIdx {
		vals[i] = tu.Bounds[ci].Lo
	}
	return fmt.Sprint(vals), vals
}

// reset clears the contribution state ahead of a rebuild. The engine
// then feeds every tuple through applyTuple, shard by shard, and calls
// finishRebuild. Used on first build and on clock ticks, when every
// bound has widened.
func (v *view) reset(capacity int) {
	v.contrib = make(map[int64]*contrib, capacity)
	v.groups = make(map[string]*group)
	if v.scalar() {
		v.groups[""] = &group{gkey: "", inputs: make(map[int64]aggregate.Input)}
	}
	v.built = false
}

// finishRebuild marks every group dirty (a rebuild recomputes all
// answers) and the view built.
func (v *view) finishRebuild() {
	for _, g := range v.groups {
		g.dirty = true
	}
	v.built = true
}

// updateKey refreshes one object's contribution from row i of its shard
// table, where i is t.ByKey(key): negative when the object is gone, and
// its contribution is removed. The caller holds the shard's read lock
// and looks the key up once for all views.
func (v *view) updateKey(t *relation.Table, key int64, i int) {
	if i < 0 {
		v.removeKey(key)
		return
	}
	v.applyTuple(t.At(i))
}

// applyTuple installs or updates the tuple's contribution, marking its
// group dirty only when the contribution actually changed.
func (v *view) applyTuple(tu *relation.Tuple) {
	gkey, vals := v.groupOf(tu)
	g := v.groups[gkey]
	if g == nil {
		g = &group{gkey: gkey, vals: vals, inputs: make(map[int64]aggregate.Input)}
		v.groups[gkey] = g
	}
	c := v.contrib[tu.Key]
	if c == nil {
		c = &contrib{gkey: gkey}
		v.contrib[tu.Key] = c
		g.rows++
		g.dirty = true
	}
	in, ok := v.classifier.Classify(tu)
	if !ok {
		if c.contributes {
			delete(g.inputs, tu.Key)
			g.dirty = true
		}
		c.contributes = false
		return
	}
	if c.contributes && c.in == in {
		return // unchanged contribution: nothing to recompute
	}
	g.inputs[tu.Key] = in
	c.in, c.contributes = in, true
	g.dirty = true
}

// removeKey drops an object's contribution (a propagated deletion).
func (v *view) removeKey(key int64) {
	c := v.contrib[key]
	if c == nil {
		return
	}
	delete(v.contrib, key)
	g := v.groups[c.gkey]
	if g == nil {
		return
	}
	g.rows--
	delete(g.inputs, key)
	g.dirty = true
	if g.rows <= 0 && !v.scalar() {
		delete(v.groups, c.gkey)
	}
}

// groupInputs materializes a group's contributions as an input slice in
// the canonical order (relation.CanonicalLess) — the order the query
// processor's scans produce and State.Feed requires — for EvalInputs and
// ChooseFromInputs, so the maintained answers and plans are
// bit-identical to what the query processor would compute over the same
// cache state, down to the sign of a ±0.0 MIN/MAX tie.
func (v *view) groupInputs(g *group) []aggregate.Input {
	out := make([]aggregate.Input, 0, len(g.inputs))
	for _, in := range g.inputs {
		out = append(out, in)
	}
	sort.Slice(out, func(a, b int) bool { return relation.CanonicalLess(out[a].Key, out[b].Key) })
	for i := range out {
		out[i].Index = i
	}
	return out
}

// recompute re-folds the answers of dirty groups. Notification
// suppression compares whole per-subscription updates (sameUpdate), so
// no change flag is tracked here.
func (v *view) recompute() {
	for _, g := range v.groups {
		if !g.dirty {
			continue
		}
		g.dirty = false
		g.answer = aggregate.EvalInputs(v.groupInputs(g), v.agg, v.trivial, g.rows)
	}
}

// sortedGroups returns the view's groups ordered by group key values,
// matching the row order of ExecuteGroupBy.
func (v *view) sortedGroups() []*group {
	out := make([]*group, 0, len(v.groups))
	for _, g := range v.groups {
		out = append(out, g)
	}
	sort.Slice(out, func(a, b int) bool {
		va, vb := out[a].vals, out[b].vals
		for i := range va {
			if va[i] != vb[i] {
				return va[i] < vb[i]
			}
		}
		return false
	})
	return out
}

// sameInterval reports interval equality with all empty intervals
// considered equal.
func sameInterval(a, b interval.Interval) bool {
	if a.IsEmpty() || b.IsEmpty() {
		return a.IsEmpty() && b.IsEmpty()
	}
	return a == b
}
