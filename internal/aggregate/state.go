package aggregate

import (
	"fmt"

	"trapp/internal/interval"
	"trapp/internal/predicate"
	"trapp/internal/relation"
)

// This file defines State, the engine's one bounded-answer accumulator:
// the §5/§6 MIN/MAX/SUM/COUNT formulas and the Appendix E tight AVG,
// folded one classified tuple at a time. A single node's answer is one
// State fed its whole relation; a cluster partition folds its own tuples
// into a State and ships it to the scatter-gather coordinator, which
// merges the partitions' states and answers from the merge.
//
// Bit-identity across the split is by construction, not by luck
// (DESIGN.md §14): every order-sensitive accumulation is
// bucket-structured (per-canonical-bucket subtotals combined in
// ascending bucket order), and a partition owns whole canonical buckets.
// A partition's local canonical scan therefore produces exactly the
// per-bucket subtotals the single-node scan would produce for those
// buckets, and merging states replays the single-node combination
// operation for operation:
//
//   - MIN/MAX are selections. Feed keeps the first of equal values (±0.0)
//     in canonical order; Merge breaks the same ties by the key each
//     Selection carries, so merged selections pick the tuple a
//     single-node scan would.
//   - COUNT is integer arithmetic — exactly associative.
//   - SUM and the AVG T+ seed carry per-bucket float subtotals plus a
//     presence mask; the merged fold adds present buckets in ascending
//     bucket order, the same sequence of float additions a single node
//     performs. An untouched bucket is absent, not +0.0, so it cannot
//     flip a −0.0 subtotal's sign.
//   - AVG's T? endpoints participate through the Appendix E
//     prefix-averaging fold, which sorts the merged endpoint multiset
//     under a total order (canonicalFloatCmp) — a pure function of the
//     multiset, so concatenation order across partitions is irrelevant.
//
// Merging states whose bucket presence masks overlap is still sound
// (subtotals add), but bit-identity with a single-node fold is only
// guaranteed for bucket-disjoint states.

// Selection is one MIN/MAX reduction: the best endpoint value seen plus
// the key of the tuple it came from, used by Merge to break exact-value
// ties (±0.0) by canonical order.
type Selection struct {
	Valid bool
	Val   float64
	Key   int64
}

// min offers a fed candidate to a MIN selection. Feeding is in canonical
// order, so a strict compare keeps the canonically first of equal values.
func (s *Selection) min(val float64, key int64) {
	if !s.Valid || val < s.Val {
		*s = Selection{Valid: true, Val: val, Key: key}
	}
}

// max is min's MAX counterpart.
func (s *Selection) max(val float64, key int64) {
	if !s.Valid || val > s.Val {
		*s = Selection{Valid: true, Val: val, Key: key}
	}
}

// merge folds another partition's selection into s. better reports
// whether o's value strictly beats s's; on equal values the canonically
// earlier key wins — the tuple a single-node canonical scan meets first.
func (s *Selection) merge(o Selection, better bool) {
	if o.Valid && (!s.Valid || better || o.Val == s.Val && relation.CanonicalLess(o.Key, s.Key)) {
		*s = o
	}
}

// State is a mergeable partial bounded-answer fold for one aggregate
// over a tuple subset. Produce one with CollectState (a store scan) or
// StateOf (pre-collected inputs), combine bucket-disjoint states with
// Merge, and finalize with Answer. All fields are exported so states can
// cross a wire.
type State struct {
	Fn     Func
	NoPred bool
	// TableLen is the scanned cardinality of the subset (all tuples, not
	// just contributing ones) — summed by Merge, consumed by COUNT
	// without a predicate.
	TableLen int

	// MIN state: Lo = min L over T+∪T?, HiPlus = min H over T+.
	// MAX state: Hi = max H over T+∪T?, LoPlus = max L over T+.
	MinLo, MinHiPlus Selection
	MaxHi, MaxLoPlus Selection

	// SUM per-bucket endpoint subtotals.
	SumLo, SumHi [relation.NumCanonicalBuckets]float64
	SumPresent   uint64

	// COUNT tallies.
	Plus, Maybe int

	// AVG T+ per-bucket seed subtotals, seed count, and the retained T?
	// bounds for the Appendix E fold. AvgAny records whether any input
	// contributed at all (Empty answer otherwise).
	AvgSeedLo, AvgSeedHi [relation.NumCanonicalBuckets]float64
	AvgSeedPresent       uint64
	AvgK                 int
	AvgAny               bool
	AvgMaybes            []interval.Interval
}

// NewState returns an empty state for the aggregate.
func NewState(fn Func, noPred bool) State {
	return State{Fn: fn, NoPred: noPred}
}

// scanTable feeds t's contributing tuples in row order. It writes out
// the classification rule of Classifier.classify inline rather than
// calling it: this is the engine's hottest loop, and a call per row
// costs about a nanosecond.
func (s *State) scanTable(t *relation.Table, c Classifier) {
	for i := 0; i < t.Len(); i++ {
		tu := t.At(i)
		cls := predicate.Plus
		if !c.trivial {
			cls = predicate.ClassifyTuple(c.p, tu)
		}
		if cls == predicate.Minus {
			continue
		}
		b := tu.Bounds[c.col]
		if cls == predicate.Maybe {
			if b = b.Intersect(c.restr); b.IsEmpty() {
				continue // cannot satisfy the restriction: effectively T−
			}
		}
		s.Feed(tu.Key, b, cls)
	}
}

// Feed folds one contributing bound — a T+ tuple's, or a T? tuple's
// after the Appendix D shrink — for the keyed tuple.
//
// Inputs must arrive in canonical order (relation.CanonicalLess). SUM
// and the AVG seed add within a bucket in arrival order, and MIN/MAX
// keep the first of equal values, so canonical arrival is what makes a
// fold over any layout bit-identical to a fold over any other. Every
// store scan and every Collect is canonical; partitions meet in Merge.
func (s *State) Feed(key int64, b interval.Interval, cls predicate.Class) {
	switch s.Fn {
	case Min:
		s.MinLo.min(b.Lo, key)
		if cls == predicate.Plus {
			s.MinHiPlus.min(b.Hi, key)
		}
	case Max:
		s.MaxHi.max(b.Hi, key)
		if cls == predicate.Plus {
			s.MaxLoPlus.max(b.Lo, key)
		}
	case Sum:
		// T? tuples may contribute nothing, so their bound is extended to
		// include 0: only a negative L lowers the sum, only a positive H
		// raises it (section 6.2).
		bk := relation.CanonicalBucket(key)
		lo, hi := b.Lo, b.Hi
		if !(s.NoPred || cls == predicate.Plus) {
			if lo >= 0 {
				lo = 0
			}
			if hi <= 0 {
				hi = 0
			}
		}
		s.SumLo[bk] += lo
		s.SumHi[bk] += hi
		s.SumPresent |= 1 << bk
	case Count:
		if cls == predicate.Plus {
			s.Plus++
		} else {
			s.Maybe++
		}
	case Avg:
		s.AvgAny = true
		if cls == predicate.Plus {
			bk := relation.CanonicalBucket(key)
			s.AvgSeedLo[bk] += b.Lo
			s.AvgSeedHi[bk] += b.Hi
			s.AvgSeedPresent |= 1 << bk
			s.AvgK++
		} else {
			s.AvgMaybes = append(s.AvgMaybes, b)
		}
	}
}

// mergeBuckets adds o's present per-bucket subtotals into s's.
func mergeBuckets(lo, hi *[relation.NumCanonicalBuckets]float64, present *uint64,
	olo, ohi *[relation.NumCanonicalBuckets]float64, opresent uint64) {
	for b := 0; b < relation.NumCanonicalBuckets; b++ {
		if opresent&(1<<b) == 0 {
			continue
		}
		if *present&(1<<b) == 0 {
			lo[b], hi[b] = olo[b], ohi[b]
		} else {
			lo[b] += olo[b]
			hi[b] += ohi[b]
		}
		*present |= 1 << b
	}
}

// foldBuckets combines the present buckets' subtotals in ascending
// bucket order — the one combination order every layout and every
// partition merge uses.
func foldBuckets(lo, hi *[relation.NumCanonicalBuckets]float64, present uint64) (l, h float64) {
	for b := 0; b < relation.NumCanonicalBuckets; b++ {
		if present&(1<<b) == 0 {
			continue
		}
		l += lo[b]
		h += hi[b]
	}
	return l, h
}

// Merge folds another state (same Fn and NoPred) into s. Merging is
// commutative and associative for bucket-disjoint states; see the file
// comment for the overlap caveat.
func (s *State) Merge(o *State) {
	s.TableLen += o.TableLen
	switch s.Fn {
	case Min:
		s.MinLo.merge(o.MinLo, o.MinLo.Val < s.MinLo.Val)
		s.MinHiPlus.merge(o.MinHiPlus, o.MinHiPlus.Val < s.MinHiPlus.Val)
	case Max:
		s.MaxHi.merge(o.MaxHi, o.MaxHi.Val > s.MaxHi.Val)
		s.MaxLoPlus.merge(o.MaxLoPlus, o.MaxLoPlus.Val > s.MaxLoPlus.Val)
	case Sum:
		mergeBuckets(&s.SumLo, &s.SumHi, &s.SumPresent, &o.SumLo, &o.SumHi, o.SumPresent)
	case Count:
		s.Plus += o.Plus
		s.Maybe += o.Maybe
	case Avg:
		s.AvgAny = s.AvgAny || o.AvgAny
		mergeBuckets(&s.AvgSeedLo, &s.AvgSeedHi, &s.AvgSeedPresent, &o.AvgSeedLo, &o.AvgSeedHi, o.AvgSeedPresent)
		s.AvgK += o.AvgK
		s.AvgMaybes = append(s.AvgMaybes, o.AvgMaybes...)
	}
}

// Answer finalizes the fold into the bounded answer. Conventions for
// empty inputs follow the paper's min(∅) = +∞ / max(∅) = −∞: MIN/MAX/AVG
// over a certainly empty selection return interval.Empty, an empty T+
// leaves MIN unbounded above (MAX below), and SUM and COUNT return
// [0, 0].
func (s *State) Answer() interval.Interval {
	switch s.Fn {
	case Min:
		// Sections 5.1 and 6.1: [min over T+∪T? of L, min over T+ of H].
		if !s.MinLo.Valid {
			return interval.Empty
		}
		if !s.MinHiPlus.Valid {
			return interval.Interval{Lo: s.MinLo.Val, Hi: interval.Unbounded.Hi}
		}
		return interval.Interval{Lo: s.MinLo.Val, Hi: s.MinHiPlus.Val}
	case Max:
		// Appendix C: [max over T+ of L, max over T+∪T? of H].
		if !s.MaxHi.Valid {
			return interval.Empty
		}
		if !s.MaxLoPlus.Valid {
			return interval.Interval{Lo: interval.Unbounded.Lo, Hi: s.MaxHi.Val}
		}
		return interval.Interval{Lo: s.MaxLoPlus.Val, Hi: s.MaxHi.Val}
	case Sum:
		lo, hi := foldBuckets(&s.SumLo, &s.SumHi, s.SumPresent)
		return interval.Interval{Lo: lo, Hi: hi}
	case Count:
		// Sections 5.3 and 6.3: the cached cardinality is exact without a
		// predicate; with one, [|T+|, |T+| + |T?|].
		if s.NoPred {
			return interval.Point(float64(s.TableLen))
		}
		return interval.Interval{Lo: float64(s.Plus), Hi: float64(s.Plus + s.Maybe)}
	case Avg:
		// Appendix E: start from the T+ endpoints' average and fold in T?
		// endpoints while each lowers (raises) it. Without a predicate
		// every tuple is T+ and this is [mean of L, mean of H].
		if !s.AvgAny {
			return interval.Empty
		}
		sl, sh := foldBuckets(&s.AvgSeedLo, &s.AvgSeedHi, s.AvgSeedPresent)
		return interval.Interval{
			Lo: foldAvg(sl, s.AvgK, s.AvgMaybes, true),
			Hi: foldAvg(sh, s.AvgK, s.AvgMaybes, false),
		}
	default:
		panic(fmt.Sprintf("aggregate: unknown func %d", s.Fn))
	}
}

// StateOf folds pre-collected inputs, which must be in canonical order
// (see Feed), into a state.
func StateOf(inputs []Input, fn Func, noPred bool, tableLen int) State {
	s := NewState(fn, noPred)
	s.TableLen = tableLen
	for i := range inputs {
		s.Feed(inputs[i].Key, inputs[i].Bound, inputs[i].Class)
	}
	return s
}

// MergeInputs concatenates per-partition input snapshots into the
// single canonical snapshot a whole-relation scan would produce: the
// union is sorted into canonical order and Index reassigned to the
// canonical position (per-partition indexes are partition-local).
// Plans chosen from the merged snapshot are bit-identical to plans a
// single node holding all tuples would choose, because the inputs are.
func MergeInputs(parts ...[]Input) []Input {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	merged := make([]Input, 0, n)
	for _, p := range parts {
		merged = append(merged, p...)
	}
	sortCanonical(merged)
	for i := range merged {
		merged[i].Index = i
	}
	return merged
}

// MergeStates merges bucket-disjoint per-partition states (in any
// order) into the global state. The slice is not modified; an empty
// slice yields the zero state for the aggregate.
func MergeStates(fn Func, noPred bool, states []*State) State {
	out := NewState(fn, noPred)
	for _, st := range states {
		if st != nil {
			out.Merge(st)
		}
	}
	return out
}
