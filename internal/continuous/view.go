package continuous

import (
	"fmt"
	"maps"
	"math"
	"slices"
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
// the same aggregate is maintained once. Each group keeps its
// contributors (the T+ and T? rows' inputs) as one canonically ordered
// slice, and its folded answer. A tick rebuilds the slices by appending
// each shard's scan in shard order; a push classifies the one changed
// tuple and overwrites, inserts or removes its input by binary search.
// Only groups whose inputs changed are re-folded.
type view struct {
	sig        string
	table      string
	agg        aggregate.Func
	trivial    bool // no WHERE predicate
	classifier aggregate.Classifier

	groupIdx []int // exact grouping columns, schema order

	subs []*Subscription

	built  bool
	groups map[string]*group
	// rowGroup maps every row's key to its group, T− rows included, so a
	// deleted key's group can be found. Grouped views only.
	rowGroup map[int64]*group
	// shardRows holds each shard's row count as read under its lock; a
	// scalar view's row count is their sum. Scalar views only: they keep
	// no state for T− rows.
	shardRows []int

	// attributedCost / attributedRefreshes accumulate, across scheduler
	// rounds, the cost and count of the refreshes this view's plans
	// demanded (whether or not another view shared them). Monitor polls
	// report deltas of these.
	attributedCost      float64
	attributedRefreshes int64
}

// group is one group's maintained answer; scalar views use the single
// group with key "".
type group struct {
	vals []float64
	rows int // rows mapped to this group, including T−
	// inputs are the T+ and T? inputs in the canonical order
	// (relation.CanonicalLess), Index equal to position: what the query
	// processor's scan collects, so EvalInputs and ChooseFromInputs read
	// it as is and answers and plans match the processor's bit for bit,
	// down to a ±0.0 MIN/MAX tie. The choosers never reorder it.
	inputs []aggregate.Input
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
		groupIdx:   groupIdx,
	}
}

// scalar reports whether the view has no GROUP BY.
func (v *view) scalar() bool { return len(v.groupIdx) == 0 }

// holds reports whether the tuple's grouping values are g's, bit for bit
// (group keys tell ±0.0 apart). Grouping columns are exact, so
// membership is certain (their bounds are points).
func (v *view) holds(g *group, tu *relation.Tuple) bool {
	for i, ci := range v.groupIdx {
		if math.Float64bits(tu.Bounds[ci].Lo) != math.Float64bits(g.vals[i]) {
			return false
		}
	}
	return true
}

// reset empties the view ahead of a rebuild over a store of the given
// shard count, keeping the scalar group's capacity; the engine then
// scans every shard into it and marks it built. Used on first build and
// on clock ticks, when every bound has widened.
func (v *view) reset(shards int) {
	if v.scalar() {
		g := v.groups[""]
		if g == nil {
			g = &group{}
			v.groups = map[string]*group{"": g}
		}
		g.inputs, g.rows, g.dirty = g.inputs[:0], 0, true
		if len(v.shardRows) != shards {
			v.shardRows = make([]int, shards) // the scan overwrites every entry
		}
	} else {
		v.groups, v.rowGroup = make(map[string]*group), make(map[int64]*group)
	}
	v.built = false
}

// scanShard appends shard si's rows during a rebuild. Shards come in
// ascending order and a shard's rows are canonical, so appending keeps
// every group's inputs canonical without a sort. The caller holds the
// shard's read lock.
func (v *view) scanShard(si int, t *relation.Table) {
	if v.scalar() {
		g := v.groups[""]
		n := len(g.inputs)
		g.inputs = v.classifier.Scan(t, g.inputs)
		for i := n; i < len(g.inputs); i++ {
			g.inputs[i].Index = i
		}
		v.shardRows[si] = t.Len()
		g.rows += t.Len()
		return
	}
	for i := 0; i < t.Len(); i++ {
		tu := t.At(i)
		g := v.join(tu)
		if in, ok := v.classifier.Classify(tu); ok {
			in.Index = len(g.inputs)
			g.inputs = append(g.inputs, in)
		}
	}
}

// join counts a tuple's row in its group, creating the group when new.
// Grouped views only.
func (v *view) join(tu *relation.Tuple) *group {
	vals := make([]float64, len(v.groupIdx))
	for i, ci := range v.groupIdx {
		vals[i] = tu.Bounds[ci].Lo
	}
	gkey := fmt.Sprint(vals)
	g := v.groups[gkey]
	if g == nil {
		g = &group{vals: vals}
		v.groups[gkey] = g
	}
	v.rowGroup[tu.Key] = g
	g.rows++
	g.dirty = true
	return g
}

// updateKey refreshes one object's contribution from row i of shard si's
// table, where i is t.ByKey(key): negative when the object is gone, and
// its contribution is removed. The caller holds the shard's read lock
// and looks the key up once for all views.
func (v *view) updateKey(si int, t *relation.Table, key int64, i int) {
	g := v.groups[""]
	if v.scalar() {
		if n := t.Len(); n != v.shardRows[si] {
			g.rows += n - v.shardRows[si]
			v.shardRows[si], g.dirty = n, true
		}
	} else if g = v.rowGroup[key]; g != nil && (i < 0 || !v.holds(g, t.At(i))) {
		delete(v.rowGroup, key) // gone, or moved to another group
		g.put(aggregate.Input{Key: key}, false)
		g.rows--
		g.dirty = true
		g = nil
	}
	if i >= 0 {
		if g == nil {
			g = v.join(t.At(i))
		}
		g.put(v.classifier.Classify(t.At(i)))
	} else if g != nil {
		g.put(aggregate.Input{Key: key}, false)
	}
}

// put installs, updates or (contributes false) removes the input of
// in.Key, found by binary search in canonical order, and marks the group
// dirty only when its inputs actually changed.
func (g *group) put(in aggregate.Input, contributes bool) {
	j := sort.Search(len(g.inputs), func(k int) bool { return !relation.CanonicalLess(g.inputs[k].Key, in.Key) })
	found := j < len(g.inputs) && g.inputs[j].Key == in.Key
	switch {
	case found && contributes:
		if old := g.inputs[j]; old.Class == in.Class && old.Cost == in.Cost &&
			math.Float64bits(old.Bound.Lo) == math.Float64bits(in.Bound.Lo) &&
			math.Float64bits(old.Bound.Hi) == math.Float64bits(in.Bound.Hi) {
			return // unchanged bit for bit (a ±0.0 sign change is a change)
		}
		in.Index = j
		g.inputs[j] = in
	case found:
		g.inputs = slices.Delete(g.inputs, j, j+1)
	case contributes:
		g.inputs = slices.Insert(g.inputs, j, in)
	default:
		return
	}
	for k := j; k < len(g.inputs); k++ {
		g.inputs[k].Index = k
	}
	g.dirty = true
}

// recompute re-folds the answers of dirty groups and drops the groups
// that lost their last row. Notification suppression compares whole
// per-subscription updates (sameUpdate), so no change flag is tracked
// here.
func (v *view) recompute() {
	for gkey, g := range v.groups {
		if g.rows == 0 && !v.scalar() {
			delete(v.groups, gkey)
		} else if g.dirty {
			g.dirty = false
			g.answer = aggregate.EvalInputs(g.inputs, v.agg, v.trivial, g.rows)
		}
	}
}

// sortedGroups returns the view's groups ordered by group key values,
// matching the row order of ExecuteGroupBy.
func (v *view) sortedGroups() []*group {
	out := slices.Collect(maps.Values(v.groups))
	slices.SortFunc(out, func(a, b *group) int { return slices.Compare(a.vals, b.vals) })
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
