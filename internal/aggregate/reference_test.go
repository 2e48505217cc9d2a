package aggregate

import (
	"slices"

	"trapp/internal/interval"
	"trapp/internal/predicate"
	"trapp/internal/relation"
)

// This file keeps the slice fold the engine answered with before State
// became its only accumulator: one function per aggregate over a
// canonical Input slice. It is a test-only reference, so the property
// tests compare State's arithmetic with an independent copy of the
// formulas rather than with itself.

// refEvalInputs is the reference bounded answer over canonical inputs.
func refEvalInputs(inputs []Input, fn Func, noPredicate bool, tableLen int) interval.Interval {
	switch fn {
	case Min:
		return refMin(inputs)
	case Max:
		return refMax(inputs)
	case Sum:
		return refSum(inputs, noPredicate)
	case Count:
		return refCount(inputs, noPredicate, tableLen)
	default:
		return refAvgTight(inputs)
	}
}

// refMin is sections 5.1 and 6.1: [min over T+∪T? of L, min over T+ of H].
func refMin(inputs []Input) interval.Interval {
	lo, hi := interval.Empty, interval.Empty
	for _, in := range inputs {
		if lo.IsEmpty() || in.Bound.Lo < lo.Lo {
			lo = interval.Point(in.Bound.Lo)
		}
		if in.Class == predicate.Plus {
			if hi.IsEmpty() || in.Bound.Hi < hi.Lo {
				hi = interval.Point(in.Bound.Hi)
			}
		}
	}
	if lo.IsEmpty() {
		return interval.Empty
	}
	if hi.IsEmpty() {
		return interval.Interval{Lo: lo.Lo, Hi: interval.Unbounded.Hi}
	}
	return interval.Interval{Lo: lo.Lo, Hi: hi.Lo}
}

// refMax is Appendix C: [max over T+ of L, max over T+∪T? of H].
func refMax(inputs []Input) interval.Interval {
	lo, hi := interval.Empty, interval.Empty
	for _, in := range inputs {
		if hi.IsEmpty() || in.Bound.Hi > hi.Lo {
			hi = interval.Point(in.Bound.Hi)
		}
		if in.Class == predicate.Plus {
			if lo.IsEmpty() || in.Bound.Lo > lo.Lo {
				lo = interval.Point(in.Bound.Lo)
			}
		}
	}
	if hi.IsEmpty() {
		return interval.Empty
	}
	if lo.IsEmpty() {
		return interval.Interval{Lo: interval.Unbounded.Lo, Hi: hi.Lo}
	}
	return interval.Interval{Lo: lo.Lo, Hi: hi.Lo}
}

// refBuckets is a pair of per-canonical-bucket running sums plus a
// presence mask, folded in ascending bucket order.
type refBuckets struct {
	lo, hi  [relation.NumCanonicalBuckets]float64
	present uint64
}

func (s *refBuckets) add(bucket int, lo, hi float64) {
	s.lo[bucket] += lo
	s.hi[bucket] += hi
	s.present |= 1 << bucket
}

func (s *refBuckets) fold() (lo, hi float64) {
	for b := 0; b < relation.NumCanonicalBuckets; b++ {
		if s.present&(1<<b) != 0 {
			lo += s.lo[b]
			hi += s.hi[b]
		}
	}
	return lo, hi
}

// refSum is sections 5.2 and 6.2, bucket-structured.
func refSum(inputs []Input, noPredicate bool) interval.Interval {
	var s refBuckets
	for _, in := range inputs {
		lo, hi := in.Bound.Lo, in.Bound.Hi
		if !noPredicate && in.Class != predicate.Plus {
			if lo >= 0 {
				lo = 0
			}
			if hi <= 0 {
				hi = 0
			}
		}
		s.add(relation.CanonicalBucket(in.Key), lo, hi)
	}
	l, h := s.fold()
	return interval.Interval{Lo: l, Hi: h}
}

// refCount is sections 5.3 and 6.3.
func refCount(inputs []Input, noPredicate bool, tableLen int) interval.Interval {
	if noPredicate {
		return interval.Point(float64(tableLen))
	}
	plus, maybe := 0, 0
	for _, in := range inputs {
		if in.Class == predicate.Plus {
			plus++
		} else {
			maybe++
		}
	}
	return interval.Interval{Lo: float64(plus), Hi: float64(plus + maybe)}
}

// refAvgTight is the Appendix E tight AVG bound.
func refAvgTight(inputs []Input) interval.Interval {
	if len(inputs) == 0 {
		return interval.Empty
	}
	var seeds refBuckets
	k := 0
	var maybes []Input
	for _, in := range inputs {
		if in.Class == predicate.Plus {
			seeds.add(relation.CanonicalBucket(in.Key), in.Bound.Lo, in.Bound.Hi)
			k++
		} else {
			maybes = append(maybes, in)
		}
	}
	sl, sh := seeds.fold()
	lo := refFoldAvg(sl, k, maybes, func(in Input) float64 { return in.Bound.Lo }, true)
	hi := refFoldAvg(sh, k, maybes, func(in Input) float64 { return in.Bound.Hi }, false)
	return interval.Interval{Lo: lo, Hi: hi}
}

// refFoldAvg is the Appendix E prefix-averaging fold.
func refFoldAvg(s float64, k int, maybes []Input, endpoint func(Input) float64, minimize bool) float64 {
	vals := make([]float64, len(maybes))
	for i, in := range maybes {
		vals[i] = endpoint(in)
	}
	slices.SortFunc(vals, canonicalFloatCmp)
	if !minimize {
		for i, j := 0, len(vals)-1; i < j; i, j = i+1, j-1 {
			vals[i], vals[j] = vals[j], vals[i]
		}
	}
	i := 0
	if k == 0 {
		s, k, i = vals[0], 1, 1
	}
	for ; i < len(vals); i++ {
		avg := s / float64(k)
		if minimize && vals[i] >= avg || !minimize && vals[i] <= avg {
			break
		}
		s += vals[i]
		k++
	}
	return s / float64(k)
}
