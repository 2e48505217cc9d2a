// Package aggregate computes bounded answers to the five standard
// relational aggregation functions over bounded data, with and without
// selection predicates (paper sections 5 and 6, Appendices C and E).
//
// A bounded answer is an interval [LA, HA] guaranteed to contain the
// precise answer that would be obtained from the master values, for every
// possible assignment of master values inside the cached bounds. The
// precision of the answer is its width HA − LA.
//
// The formulas are written once, in State (state.go): a mergeable fold
// fed one classified tuple at a time. Every answer in the engine is a
// State's — the streaming store scan (stream.go), a pre-collected Input
// slice (EvalInputs), and a cluster's merge of per-partition states
// alike. This file holds the tuple classification rule (Classifier),
// and the materializing Input scan that refresh planning needs.
package aggregate

import (
	"fmt"
	"math"
	"slices"

	"trapp/internal/interval"
	"trapp/internal/parallel"
	"trapp/internal/predicate"
	"trapp/internal/relation"
)

// Func identifies an aggregation function.
type Func int8

const (
	// Min is the MIN aggregate.
	Min Func = iota
	// Max is the MAX aggregate.
	Max
	// Sum is the SUM aggregate.
	Sum
	// Count is the COUNT aggregate.
	Count
	// Avg is the AVG aggregate.
	Avg
)

// String returns the SQL name of the aggregate.
func (f Func) String() string {
	switch f {
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	default:
		return "AVG"
	}
}

// ParseFunc parses a SQL aggregate name (upper case) into a Func.
func ParseFunc(name string) (Func, error) {
	switch name {
	case "MIN":
		return Min, nil
	case "MAX":
		return Max, nil
	case "SUM":
		return Sum, nil
	case "COUNT":
		return Count, nil
	case "AVG":
		return Avg, nil
	default:
		return 0, fmt.Errorf("aggregate: unknown function %q", name)
	}
}

// Input is the per-tuple view consumed by bounded-answer computation and
// by the CHOOSE_REFRESH algorithms: the tuple's (possibly shrunk) bound on
// the aggregation column, its refresh cost, its predicate classification,
// and its position among the collected inputs.
type Input struct {
	// Index is the input's position among the inputs it was collected
	// with, in canonical order.
	Index int
	// Key is the tuple's object key.
	Key int64
	// Bound is the tuple's bound on the aggregation column, after the
	// Appendix D shrinking refinement when applicable.
	Bound interval.Interval
	// Cost is the tuple's refresh cost.
	Cost float64
	// Class is Plus (T+) or Maybe (T?); Minus tuples are omitted.
	Class predicate.Class
}

// Classifier is the tuple classification rule of one query shape: the
// predicate's three-valued verdict on a tuple (T+, T?, T−) and, for T?
// tuples, the Appendix D shrink of the aggregation column's bound to the
// predicate's restriction on that column. A T? tuple whose shrunk bound
// is empty cannot satisfy the predicate and classifies T−. Build one per
// query shape and reuse it: NewClassifier derives the restriction.
type Classifier struct {
	col     int
	p       predicate.Expr
	trivial bool
	restr   interval.Interval
}

// NewClassifier prepares classification over column col under predicate
// p (nil or TruePred for none); shrink enables the Appendix D refinement.
func NewClassifier(col int, p predicate.Expr, shrink bool) Classifier {
	c := Classifier{col: col, p: p, trivial: predicate.IsTrivial(p), restr: interval.Unbounded}
	if shrink && !c.trivial {
		c.restr = predicate.Restriction(p, col)
	}
	return c
}

// Classify returns the tuple's Input (Index left zero: the caller knows
// the tuple's position) and whether the tuple contributes at all — false
// for T−.
func (c *Classifier) Classify(tu *relation.Tuple) (Input, bool) {
	cls, b := c.classify(tu)
	return Input{Key: tu.Key, Bound: b, Cost: tu.Cost, Class: cls}, cls != predicate.Minus
}

// classify returns the tuple's class and its bound on the aggregation
// column, shrunk for a T? tuple. Every classification except the
// streaming fold's (State.scanTable) runs through it.
func (c *Classifier) classify(tu *relation.Tuple) (predicate.Class, interval.Interval) {
	cls := predicate.Plus
	if !c.trivial {
		cls = predicate.ClassifyTuple(c.p, tu)
	}
	b := tu.Bounds[c.col]
	if cls == predicate.Maybe {
		if b = b.Intersect(c.restr); b.IsEmpty() {
			cls = predicate.Minus
		}
	}
	return cls, b
}

// Scan appends the T+ and T? inputs of t's tuples to out, with Index set
// to each tuple's position in t. The receiver is a value so that
// CollectStore's workers capture c by copy and it stays off the heap.
func (c Classifier) Scan(t *relation.Table, out []Input) []Input {
	for i := 0; i < t.Len(); i++ {
		tu := t.At(i)
		if cls, b := c.classify(tu); cls != predicate.Minus {
			out = append(out, Input{Index: i, Key: tu.Key, Bound: b, Cost: tu.Cost, Class: cls})
		}
	}
	return out
}

// sortCanonical orders inputs into the canonical order (see
// relation.CanonicalLess). Keys are unique, so the order — and therefore
// every order-sensitive fold over the inputs (floating-point summation,
// cost-tie breaking in CHOOSE_REFRESH) — is fully determined by the
// tuple set, independent of physical layout. This is what makes answers
// over any store or table bit-identical to answers over any other layout
// holding the same tuples. The already-sorted pre-check keeps the call
// linear for inputs that are canonical already.
func sortCanonical(inputs []Input) {
	sorted := true
	for i := 1; i < len(inputs); i++ {
		if relation.CanonicalLess(inputs[i].Key, inputs[i-1].Key) {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	slices.SortFunc(inputs, func(a, b Input) int {
		switch {
		case relation.CanonicalLess(a.Key, b.Key):
			return -1
		case relation.CanonicalLess(b.Key, a.Key):
			return 1
		default:
			return 0
		}
	})
}

// CollectStore classifies the store's tuples against the predicate and
// returns the T+ and T? tuples' inputs for aggregation over column col.
// T− tuples are omitted: they contribute to no aggregate. When shrink is
// true the Appendix D refinement is applied: T? bounds are intersected
// with the predicate's restriction on the aggregation column, and tuples
// whose shrunk bound would be empty are reclassified as T−.
//
// The scan runs shard-natively — up to workers goroutines (0 means
// GOMAXPROCS), each scanning whole shards under their read locks — and
// concatenates the shard runs in index order, which is the canonical
// order for every store (relation.NewStore), so the inputs (and every
// answer or refresh plan computed from them) are bit-identical across
// shard counts without a sort. Input.Index holds the input's position in
// the canonical order. The returned tableLen is the store cardinality at
// scan time, consistent with the scanned shards.
func CollectStore(st *relation.Store, col int, p predicate.Expr, shrink bool, workers int) (inputs []Input, tableLen int) {
	c := NewClassifier(col, p, shrink)
	ns := st.NumShards()
	if workers = parallel.Workers(workers); workers > ns {
		workers = ns
	}
	if workers <= 1 {
		inputs = make([]Input, 0, st.Len())
		for si := 0; si < ns; si++ {
			st.ViewShard(si, func(t *relation.Table) {
				tableLen += t.Len()
				inputs = c.Scan(t, inputs)
			})
		}
	} else {
		parts := make([][]Input, ns)
		lens := make([]int, ns)
		parallel.ForEachChunk(ns, workers, func(_, lo, hi int) {
			for si := lo; si < hi; si++ {
				st.ViewShard(si, func(t *relation.Table) {
					lens[si] = t.Len()
					parts[si] = c.Scan(t, make([]Input, 0, t.Len()))
				})
			}
		})
		total := 0
		for si := range parts {
			total += len(parts[si])
			tableLen += lens[si]
		}
		inputs = make([]Input, 0, total)
		for si := range parts {
			inputs = append(inputs, parts[si]...)
		}
	}
	for i := range inputs {
		inputs[i].Index = i
	}
	return inputs, tableLen
}

// EvalInputs computes the bounded answer from pre-collected inputs in
// canonical order (CollectStore): it is StateOf(...).Answer().
// noPredicate selects the section 5 formulas (all tuples count as T+);
// tableLen is the full table cardinality, needed by COUNT without a
// predicate. For AVG with a predicate it is the tight O(n log n) bound of
// Appendix E; EvalLooseAvgInputs is the linear-time loose variant.
//
// Conventions for empty inputs follow the paper's min(∅) = +∞ /
// max(∅) = −∞: MIN/MAX/AVG over a certainly empty selection return
// interval.Empty; SUM returns [0, 0]; COUNT returns [0, 0].
func EvalInputs(inputs []Input, fn Func, noPredicate bool, tableLen int) interval.Interval {
	s := StateOf(inputs, fn, noPredicate, tableLen)
	return s.Answer()
}

// canonicalFloatCmp is a total order on endpoint values: ascending, with
// −0.0 ordered before +0.0. sort.Float64s treats the two zeros as equal,
// which would leave the fold sequence — and hence the folded sum's sign
// bits — dependent on input order; the tie-break makes the sorted
// sequence a pure function of the value multiset, so partitioned and
// single-node folds over the same multiset are bit-identical.
func canonicalFloatCmp(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	sa, sb := math.Signbit(a), math.Signbit(b)
	switch {
	case sa == sb:
		return 0
	case sa:
		return -1
	default:
		return 1
	}
}

// foldAvg performs the Appendix E prefix-averaging fold. s and k are the
// T+ seed sum and count and maybes the T? bounds. minimize folds lower
// endpoints in increasing order to minimize the average (the answer's
// lower bound); otherwise upper endpoints are folded in decreasing order
// to maximize it (the upper bound).
func foldAvg(s float64, k int, maybes []interval.Interval, minimize bool) float64 {
	vals := make([]float64, len(maybes))
	for i, b := range maybes {
		if minimize {
			vals[i] = b.Lo
		} else {
			vals[i] = b.Hi
		}
	}
	slices.SortFunc(vals, canonicalFloatCmp)
	if !minimize {
		slices.Reverse(vals)
	}
	i := 0
	if k == 0 {
		// Empty T+: seed with the extreme T? endpoint.
		s, k, i = vals[0], 1, 1
	}
	for ; i < len(vals); i++ {
		avg := s / float64(k)
		if minimize {
			if vals[i] >= avg {
				break
			}
		} else {
			if vals[i] <= avg {
				break
			}
		}
		s += vals[i]
		k++
	}
	return s / float64(k)
}

// EvalLooseAvgInputs computes the linear-time loose AVG bound of section
// 6.4.1 over pre-collected inputs in canonical order: divide the SUM bound
// endpoints (its State's answer) by the COUNT bound endpoints and take
// the widest combination. When the count lower bound is zero (possibly
// empty selection) the division degenerates, so the bound falls back to
// [min of L, max of H] over contributing tuples — sound because an
// average always lies between the minimum and maximum element.
func EvalLooseAvgInputs(inputs []Input, noPredicate bool, tableLen int) interval.Interval {
	if len(inputs) == 0 {
		return interval.Empty
	}
	sum := EvalInputs(inputs, Sum, noPredicate, tableLen)
	cnt := EvalInputs(inputs, Count, noPredicate, tableLen)
	if cnt.Lo <= 0 {
		lo, hi := interval.Empty, interval.Empty
		for _, in := range inputs {
			lo = lo.Min(interval.Point(in.Bound.Lo))
			hi = hi.Max(interval.Point(in.Bound.Hi))
		}
		return interval.Interval{Lo: lo.Lo, Hi: hi.Hi}
	}
	la := sum.Lo / cnt.Hi
	if v := sum.Lo / cnt.Lo; v < la {
		la = v
	}
	ha := sum.Hi / cnt.Lo
	if v := sum.Hi / cnt.Hi; v > ha {
		ha = v
	}
	return interval.Interval{Lo: la, Hi: ha}
}
