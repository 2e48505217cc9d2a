package aggregate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"trapp/internal/interval"
	"trapp/internal/predicate"
	"trapp/internal/relation"
)

// bitsEqual compares two intervals bit for bit — the cluster-merge
// contract is bit-identity, not approximate equality.
func bitsEqual(a, b interval.Interval) bool {
	return math.Float64bits(a.Lo) == math.Float64bits(b.Lo) &&
		math.Float64bits(a.Hi) == math.Float64bits(b.Hi)
}

// TestQuickMergedStateBitIdentical is the cluster-merge contract as a
// property: splitting a table's inputs into bucket-disjoint partitions,
// folding each partition into a State, and merging the states yields an
// answer bit-identical to the single-scan fold — for random tables,
// predicates, partition counts, and bucket→partition assignments.
func TestQuickMergedStateBitIdentical(t *testing.T) {
	fns := []Func{Min, Max, Sum, Count, Avg}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab, _ := randTableAndMaster(r, 1+r.Intn(24))
		p := randPred(r)
		noPred := predicate.IsTrivial(p)
		nparts := 1 + r.Intn(4)
		owner := make([]int, relation.NumCanonicalBuckets)
		for b := range owner {
			owner[b] = r.Intn(nparts)
		}
		// Per-partition scanned cardinality: every tuple counts toward its
		// owner, contributing or not (a partition's TableLen is its local
		// store cardinality).
		partLen := make([]int, nparts)
		for _, key := range tab.SortedKeys() {
			partLen[owner[relation.CanonicalBucket(key)]]++
		}
		for _, fn := range fns {
			for _, c := range []int{0, 1} {
				inputs := collect(tab, c, p, true)
				want := EvalInputs(inputs, fn, noPred, tab.Len())

				parts := make([][]Input, nparts)
				for _, in := range inputs {
					pi := owner[relation.CanonicalBucket(in.Key)]
					parts[pi] = append(parts[pi], in)
				}
				states := make([]*State, nparts)
				for pi := range parts {
					st := StateOf(parts[pi], fn, noPred, partLen[pi])
					states[pi] = &st
				}
				// Merge in a random order: the result must not depend on it.
				r.Shuffle(len(states), func(i, j int) { states[i], states[j] = states[j], states[i] })
				merged := MergeStates(fn, noPred, states)
				got := merged.Answer()
				if !bitsEqual(got, want) {
					t.Logf("seed %d: %v col %d pred %v nparts %d: merged %v want %v",
						seed, fn, c, p, nparts, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randEdgeTable builds a random two-bounded-column table whose endpoints
// are drawn partly from edge values — ±0.0, ±Inf and small repeated
// integers, so selections tie, straddle zero and overflow — under random
// keys that spread over the canonical buckets.
func randEdgeTable(r *rand.Rand, n int) *relation.Store {
	edges := []float64{math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1), -2, -1, 1, 2}
	endpoint := func() float64 {
		if r.Intn(2) == 0 {
			return edges[r.Intn(len(edges))]
		}
		return r.Float64()*60 - 30
	}
	bound := func() interval.Interval {
		lo, hi := endpoint(), endpoint()
		if r.Intn(4) == 0 {
			hi = lo
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		return interval.Interval{Lo: lo, Hi: hi}
	}
	tab := relation.NewStore(relation.NewSchema(
		relation.Column{Name: "a", Kind: relation.Bounded},
		relation.Column{Name: "b", Kind: relation.Bounded},
	), 1)
	for tab.Len() < n {
		tu := relation.Tuple{Key: r.Int63n(1<<20) - 1<<19, Bounds: []interval.Interval{bound(), bound()}, Cost: 1}
		if _, dup := tab.Get(tu.Key); !dup {
			tab.MustInsert(tu)
		}
	}
	return tab
}

// TestQuickCollectStateMatchesStream: State — fed by the streaming store
// scan at every shard count, by a one-shard CollectStore, or merged from
// bucket-disjoint partitions — answers bit-identically to a test-only
// copy of the slice fold the engine used before State was its only
// accumulator (reference_test.go), for every aggregate, over tables rich
// in ±0.0, ±Inf, empty and T?-only selections. The run must hit each of
// those cases.
func TestQuickCollectStateMatchesStream(t *testing.T) {
	fns := []Func{Min, Max, Sum, Count, Avg}
	var sawZeroTie, sawInf, sawEmpty, sawMaybeOnly int
	for seed := int64(0); seed < 1000; seed++ {
		r := rand.New(rand.NewSource(seed))
		tab := randEdgeTable(r, r.Intn(40))
		p := randPred(r)
		noPred := predicate.IsTrivial(p)
		stores := map[string]*relation.Store{}
		for _, ns := range []int{1, 4, 8, 16, 64} {
			stores[fmt.Sprintf("%d shards", ns)] = storeOf(tab, ns, nil)
		}
		nparts := 1 + r.Intn(4)
		owner := make([]int, relation.NumCanonicalBuckets)
		for b := range owner {
			owner[b] = r.Intn(nparts)
		}
		parts := make([]*relation.Store, nparts)
		for pi := range parts {
			parts[pi] = storeOf(tab, 0, func(key int64) bool { return owner[relation.CanonicalBucket(key)] == pi })
		}
		for _, c := range []int{0, 1} {
			inputs := collect(tab, c, p, true)
			zeros, maybes := 0, 0
			for _, in := range inputs {
				if in.Bound.Lo == 0 || in.Bound.Hi == 0 {
					zeros++
				}
				if math.IsInf(in.Bound.Lo, 0) || math.IsInf(in.Bound.Hi, 0) {
					sawInf++
				}
				if in.Class == predicate.Maybe {
					maybes++
				}
			}
			if zeros > 1 {
				sawZeroTie++
			}
			if len(inputs) == 0 {
				sawEmpty++
			} else if maybes == len(inputs) {
				sawMaybeOnly++
			}
			for _, fn := range fns {
				want := refEvalInputs(inputs, fn, noPred, tab.Len())
				check := func(layout string, got interval.Interval) {
					t.Helper()
					if !bitsEqual(got, want) {
						t.Fatalf("seed %d: %v col %d pred %v, %s: %v (bits %x/%x), reference %v (bits %x/%x)",
							seed, fn, c, p, layout, got, math.Float64bits(got.Lo), math.Float64bits(got.Hi),
							want, math.Float64bits(want.Lo), math.Float64bits(want.Hi))
					}
				}
				check("one-shard collected", EvalInputs(inputs, fn, noPred, tab.Len()))
				for name, st := range stores {
					got, n := EvalStoreStream(st, c, fn, p)
					if n != tab.Len() {
						t.Fatalf("seed %d %s: scanned %d rows, want %d", seed, name, n, tab.Len())
					}
					check(name, got)
					in, n := CollectStore(st, c, p, true, 2)
					check(name+" collected", EvalInputs(in, fn, noPred, n))
				}
				states := make([]*State, nparts)
				for pi, st := range parts {
					s := CollectState(st, c, fn, p)
					states[pi] = &s
				}
				r.Shuffle(len(states), func(i, j int) { states[i], states[j] = states[j], states[i] })
				merged := MergeStates(fn, noPred, states)
				check(fmt.Sprintf("%d merged partitions", nparts), merged.Answer())
			}
		}
	}
	if sawZeroTie == 0 || sawInf == 0 || sawEmpty == 0 || sawMaybeOnly == 0 {
		t.Errorf("edge cases not reached: zero ties %d, infinities %d, empty %d, T?-only %d",
			sawZeroTie, sawInf, sawEmpty, sawMaybeOnly)
	}
}

// storeOf copies the store's tuples accepted by keep (all when nil) into
// a store with nshards shards.
func storeOf(tab *relation.Store, nshards int, keep func(int64) bool) *relation.Store {
	st := relation.NewStore(tab.Schema(), nshards)
	for _, key := range tab.SortedKeys() {
		if keep == nil || keep(key) {
			tu, _ := tab.Get(key)
			st.MustInsert(tu)
		}
	}
	return st
}

// TestSignedZeroSelectionMerge pins the ±0.0 tie-break: when −0.0 and
// +0.0 both appear, MIN/MAX pick the canonically-first occurrence, and
// the merged selection must reproduce that exact sign bit regardless of
// which partition held which zero.
func TestSignedZeroSelectionMerge(t *testing.T) {
	s := relation.NewSchema(relation.Column{Name: "v", Kind: relation.Bounded})
	negZero := math.Copysign(0, -1)
	for swap := 0; swap < 2; swap++ {
		tab := relation.NewStore(s, 1)
		vals := []float64{negZero, 0}
		if swap == 1 {
			vals[0], vals[1] = vals[1], vals[0]
		}
		for i, v := range vals {
			tab.MustInsert(relation.Tuple{
				Key:    int64(i + 1),
				Bounds: []interval.Interval{interval.Point(v)},
				Cost:   1,
			})
		}
		for _, fn := range []Func{Min, Max, Sum} {
			inputs := collect(tab, 0, nil, true)
			want := EvalInputs(inputs, fn, true, tab.Len())
			var states []*State
			for _, in := range inputs {
				st := StateOf([]Input{in}, fn, true, 1)
				states = append(states, &st)
			}
			// Both merge orders must reproduce the single-scan answer.
			for ord := 0; ord < 2; ord++ {
				ss := []*State{states[ord], states[1-ord]}
				merged := MergeStates(fn, true, ss)
				got := merged.Answer()
				if !bitsEqual(got, want) {
					t.Errorf("swap %d %v order %d: merged %v (bits %x/%x) want %v (bits %x/%x)",
						swap, fn, ord, got, math.Float64bits(got.Lo), math.Float64bits(got.Hi),
						want, math.Float64bits(want.Lo), math.Float64bits(want.Hi))
				}
			}
		}
	}
}
