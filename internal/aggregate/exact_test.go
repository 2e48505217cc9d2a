package aggregate

import (
	"trapp/internal/interval"
	"trapp/internal/predicate"
	"trapp/internal/relation"
)

// eval is the bounded answer over a store, by its streaming fold.
func eval(st *relation.Store, col int, fn Func, p predicate.Expr) interval.Interval {
	ans, _ := EvalStoreStream(st, col, fn, p)
	return ans
}

// evalLooseAvg is the section 6.4.1 loose AVG bound over a store.
func evalLooseAvg(st *relation.Store, col int, p predicate.Expr) interval.Interval {
	inputs, n := CollectStore(st, col, p, true, 1)
	return EvalLooseAvgInputs(inputs, predicate.IsTrivial(p), n)
}

// collect returns the store's classified inputs in canonical order.
func collect(st *relation.Store, col int, p predicate.Expr, shrink bool) []Input {
	inputs, _ := CollectStore(st, col, p, shrink, 1)
	return inputs
}

// Exact computes the precise aggregate from master values, the ground
// truth the bounded answers are checked against. The master map holds,
// for each tuple key, exact values for the store's bounded columns in
// schema order; exact columns take their cached point values. ok is false
// when the aggregate is undefined (MIN/MAX/AVG over an empty selection).
func Exact(st *relation.Store, col int, fn Func, p predicate.Expr, master map[int64][]float64) (result float64, ok bool) {
	schema := st.Schema()
	bcols := schema.BoundedColumns()
	bpos := make(map[int]int, len(bcols))
	for j, c := range bcols {
		bpos[c] = j
	}
	var vals []float64
	count := 0
	var sum float64
	best := 0.0
	haveBest := false
	for _, key := range st.SortedKeys() {
		tu, _ := st.Get(key)
		mv := master[key]
		if vals == nil {
			vals = make([]float64, schema.NumColumns())
		}
		for c := 0; c < schema.NumColumns(); c++ {
			if j, isBounded := bpos[c]; isBounded {
				vals[c] = mv[j]
			} else {
				vals[c] = tu.Bounds[c].Lo
			}
		}
		if p != nil && !p.EvalExact(vals) {
			continue
		}
		v := vals[col]
		count++
		sum += v
		switch fn {
		case Min:
			if !haveBest || v < best {
				best, haveBest = v, true
			}
		case Max:
			if !haveBest || v > best {
				best, haveBest = v, true
			}
		}
	}
	switch fn {
	case Count:
		return float64(count), true
	case Sum:
		return sum, true
	case Avg:
		if count == 0 {
			return 0, false
		}
		return sum / float64(count), true
	default: // Min, Max
		if !haveBest {
			return 0, false
		}
		return best, true
	}
}
