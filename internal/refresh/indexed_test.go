package refresh

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"trapp/internal/aggregate"
	"trapp/internal/relation"
	"trapp/internal/workload"
)

// stockStoreWithIndexes loads a stock day into a store with nshards
// shards plus lower/upper endpoint indexes over price.
func stockStoreWithIndexes(n int, nshards int, seed int64) (*relation.Store, *relation.ShardedIndex, *relation.ShardedIndex, int) {
	st := clone(workload.StockStore(workload.StockDay(n, seed)), nshards)
	price := st.Schema().MustLookup("price")
	lower := relation.NewShardedIndex(st, price, relation.LowerEndpoint)
	upper := relation.NewShardedIndex(st, price, relation.UpperEndpoint)
	return st, lower, upper, price
}

func sortedKeys(keys []int64) []int64 {
	out := append([]int64(nil), keys...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// samePlan reports whether two plans select the same key set at the
// same cost.
func samePlan(a, b Plan) bool {
	ka, kb := sortedKeys(a.Keys), sortedKeys(b.Keys)
	if len(ka) != len(kb) || math.Abs(a.Cost-b.Cost) > 1e-9 {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func TestChooseMinIndexedMatchesScan(t *testing.T) {
	st, lower, upper, price := stockStoreWithIndexes(90, 0, 7)
	for _, r := range []float64{0, 5, 20, 100} {
		scan, err := ChooseStore(st, price, aggregate.Min, nil, r, Options{})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := ChooseMinIndexedStore(st, lower, upper, r)
		if err != nil {
			t.Fatal(err)
		}
		if !samePlan(scan, idx) {
			t.Fatalf("R=%g: scan %v (cost %g), indexed %v (cost %g)", r, sortedKeys(scan.Keys), scan.Cost, sortedKeys(idx.Keys), idx.Cost)
		}
	}
}

func TestChooseMaxIndexedMatchesScan(t *testing.T) {
	st, lower, upper, price := stockStoreWithIndexes(90, 0, 9)
	for _, r := range []float64{0, 5, 20, 100} {
		scan, err := ChooseStore(st, price, aggregate.Max, nil, r, Options{})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := ChooseMaxIndexedStore(st, lower, upper, r)
		if err != nil {
			t.Fatal(err)
		}
		if !samePlan(scan, idx) {
			t.Fatalf("R=%g: scan %v, indexed %v", r, sortedKeys(scan.Keys), sortedKeys(idx.Keys))
		}
	}
}

func TestIndexedInfiniteAndEmpty(t *testing.T) {
	st, lower, upper, _ := stockStoreWithIndexes(10, 0, 1)
	if p, err := ChooseMinIndexedStore(st, lower, upper, math.Inf(1)); err != nil || p.Len() != 0 {
		t.Error("infinite R not empty plan")
	}
	if _, err := ChooseMinIndexedStore(st, lower, upper, -1); err == nil {
		t.Error("negative R accepted")
	}
	if _, err := ChooseMaxIndexedStore(st, lower, upper, math.NaN()); err == nil {
		t.Error("NaN R accepted")
	}

	empty := relation.NewStore(workload.StockSchema(), 0)
	price := empty.Schema().MustLookup("price")
	el := relation.NewShardedIndex(empty, price, relation.LowerEndpoint)
	eu := relation.NewShardedIndex(empty, price, relation.UpperEndpoint)
	if p, err := ChooseMinIndexedStore(empty, el, eu, 5); err != nil || p.Len() != 0 {
		t.Error("empty store plan not empty")
	}
	if p, err := ChooseMaxIndexedStore(empty, el, eu, 5); err != nil || p.Len() != 0 {
		t.Error("empty store max plan not empty")
	}
}

// TestQuickIndexedEqualsScan compares indexed and scan plans on random
// stores after random refresh churn (indexes updated incrementally).
func TestQuickIndexedEqualsScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st, lower, upper, price := stockStoreWithIndexes(1+r.Intn(40), 1<<r.Intn(4), seed)
		keys := st.SortedKeys()
		// Random churn: refresh a few tuples and update indexes.
		for j := 0; j < r.Intn(5); j++ {
			key := keys[r.Intn(len(keys))]
			tu, _ := st.Get(key)
			v := tu.Bounds[price].Lo + r.Float64()*tu.Bounds[price].Width()
			if _, err := st.Refresh(key, []float64{v}); err != nil {
				return false
			}
			if lower.Update(key) != nil || upper.Update(key) != nil {
				return false
			}
		}
		R := r.Float64() * 30
		scan, err := ChooseStore(st, price, aggregate.Min, nil, R, Options{})
		if err != nil {
			return false
		}
		idx, err := ChooseMinIndexedStore(st, lower, upper, R)
		if err != nil {
			return false
		}
		return samePlan(scan, idx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestChooseIndexedStoreMatchesFlat checks the indexed MIN/MAX planners
// select the same key sets at equal cost over a one-shard store and an
// 8-shard store holding the same tuples.
func TestChooseIndexedStoreMatchesFlat(t *testing.T) {
	flat := workload.StockStore(workload.StockDay(90, 7))
	price := flat.Schema().MustLookup("price")
	flatLower := relation.NewShardedIndex(flat, price, relation.LowerEndpoint)
	flatUpper := relation.NewShardedIndex(flat, price, relation.UpperEndpoint)
	st, lower, upper, _ := stockStoreWithIndexes(90, 8, 7)
	for _, r := range []float64{0, 5, 20, 100, math.Inf(1)} {
		flatMin, err := ChooseMinIndexedStore(flat, flatLower, flatUpper, r)
		if err != nil {
			t.Fatal(err)
		}
		shMin, err := ChooseMinIndexedStore(st, lower, upper, r)
		if err != nil {
			t.Fatal(err)
		}
		if !samePlan(flatMin, shMin) {
			t.Fatalf("R=%g MIN: 1 shard %v (cost %g), 8 shards %v (cost %g)", r, sortedKeys(flatMin.Keys), flatMin.Cost, sortedKeys(shMin.Keys), shMin.Cost)
		}
		flatMax, err := ChooseMaxIndexedStore(flat, flatLower, flatUpper, r)
		if err != nil {
			t.Fatal(err)
		}
		shMax, err := ChooseMaxIndexedStore(st, lower, upper, r)
		if err != nil {
			t.Fatal(err)
		}
		if !samePlan(flatMax, shMax) {
			t.Fatalf("R=%g MAX: 1 shard %v, 8 shards %v", r, sortedKeys(flatMax.Keys), sortedKeys(shMax.Keys))
		}
	}
	// The sharded planners also agree with the plain scans.
	for _, r := range []float64{0, 5, 20} {
		scan, err := ChooseStore(st, price, aggregate.Min, nil, r, Options{})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := ChooseMinIndexedStore(st, lower, upper, r)
		if err != nil {
			t.Fatal(err)
		}
		if !samePlan(scan, idx) {
			t.Fatalf("R=%g: scan vs indexed key sets differ", r)
		}
	}
}
