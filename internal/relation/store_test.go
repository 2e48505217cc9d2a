package relation

import (
	"math/rand"
	"sort"
	"testing"

	"trapp/internal/interval"
)

func storeSchema() *Schema {
	return NewSchema(
		Column{Name: "id", Kind: Exact},
		Column{Name: "v", Kind: Bounded},
	)
}

func storeTuple(key int64, lo, hi, cost float64) Tuple {
	return Tuple{
		Key:    key,
		Cost:   cost,
		Bounds: []interval.Interval{interval.Point(float64(key)), interval.New(lo, hi)},
	}
}

func TestStoreShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, DefaultShards}, {-3, DefaultShards}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32},
		{64, 64}, {65, 64}, {128, 64},
	} {
		st := NewStore(storeSchema(), tc.ask)
		if st.NumShards() != tc.want {
			t.Errorf("NewStore(%d): %d shards, want %d", tc.ask, st.NumShards(), tc.want)
		}
	}
}

func TestStoreShardOfDeterministicAndInRange(t *testing.T) {
	a := NewStore(storeSchema(), 8)
	b := NewStore(storeSchema(), 8)
	counts := make([]int, a.NumShards())
	for key := int64(-500); key < 500; key++ {
		sa, sb := a.ShardOf(key), b.ShardOf(key)
		if sa != sb {
			t.Fatalf("ShardOf(%d) differs across equal stores: %d vs %d", key, sa, sb)
		}
		if sa < 0 || sa >= a.NumShards() {
			t.Fatalf("ShardOf(%d) = %d out of range", key, sa)
		}
		counts[sa]++
	}
	// Fibonacci hashing spreads consecutive keys: no shard may be empty
	// or hold a wildly disproportionate share of 1000 consecutive keys.
	for si, n := range counts {
		if n == 0 || n > 4*1000/a.NumShards() {
			t.Errorf("shard %d holds %d of 1000 keys", si, n)
		}
	}
}

func TestStoreSingleShardIsFlat(t *testing.T) {
	st := NewStore(storeSchema(), 1)
	if st.NumShards() != 1 {
		t.Fatalf("shards = %d", st.NumShards())
	}
	for key := int64(0); key < 100; key++ {
		if st.ShardOf(key) != 0 {
			t.Fatalf("ShardOf(%d) = %d in single-shard store", key, st.ShardOf(key))
		}
	}
}

func TestStoreInsertDeleteGet(t *testing.T) {
	st := NewStore(storeSchema(), 4)
	for key := int64(1); key <= 40; key++ {
		st.MustInsert(storeTuple(key, 0, 10, float64(key)))
	}
	if st.Len() != 40 {
		t.Fatalf("Len = %d", st.Len())
	}
	if err := st.Insert(storeTuple(7, 0, 1, 1)); err == nil {
		t.Error("duplicate key accepted")
	}
	tu, ok := st.Get(7)
	if !ok || tu.Key != 7 || tu.Cost != 7 {
		t.Fatalf("Get(7) = %+v, %v", tu, ok)
	}
	// Get returns a deep copy: mutating it must not touch the store.
	tu.Bounds[1] = interval.Point(-999)
	if got, _ := st.Get(7); got.Bounds[1] == interval.Point(-999) {
		t.Error("Get returned aliased bounds")
	}
	if !st.Delete(7) || st.Delete(7) {
		t.Error("delete/double-delete misbehaved")
	}
	if st.Len() != 39 {
		t.Errorf("Len after delete = %d", st.Len())
	}
	if _, ok := st.Get(7); ok {
		t.Error("deleted key still present")
	}
}

func TestStoreRefreshAndUpdateLockOnlyOwningShard(t *testing.T) {
	st := NewStore(storeSchema(), 4)
	for key := int64(1); key <= 16; key++ {
		st.MustInsert(storeTuple(key, 0, 10, 1))
	}
	// Holding every other shard's write lock must not block a refresh of
	// key 5's shard.
	own := st.ShardOf(5)
	for si := 0; si < st.NumShards(); si++ {
		if si != own {
			st.shards[si].mu.Lock()
		}
	}
	ok, err := st.Refresh(5, []float64{3.5})
	if !ok || err != nil {
		t.Fatalf("Refresh(5) = %v, %v", ok, err)
	}
	for si := 0; si < st.NumShards(); si++ {
		if si != own {
			st.shards[si].mu.Unlock()
		}
	}
	tu, _ := st.Get(5)
	if !tu.Bounds[1].IsPoint() || tu.Bounds[1].Lo != 3.5 {
		t.Errorf("refreshed bound = %v", tu.Bounds[1])
	}
	if ok, _ := st.Refresh(999, []float64{1}); ok {
		t.Error("refresh of missing key reported installed")
	}
}

func TestStoreSortedKeys(t *testing.T) {
	st := NewStore(storeSchema(), 8)
	rng := rand.New(rand.NewSource(42))
	want := make([]int64, 0, 100)
	for _, key := range rng.Perm(100) {
		st.MustInsert(storeTuple(int64(key), 0, 1, 1))
		want = append(want, int64(key))
	}
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	got := st.SortedKeys()
	if len(got) != len(want) {
		t.Fatalf("SortedKeys len = %d", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("SortedKeys[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestShardedIndexMatchesFlat maintains ShardedIndexes over a one-shard
// and a four-shard store holding the same evolving tuple set and checks
// every probe agrees.
func TestShardedIndexMatchesFlat(t *testing.T) {
	schema := storeSchema()
	st := NewStore(schema, 4)
	one := NewStore(schema, 1)
	rng := rand.New(rand.NewSource(7))
	for key := int64(1); key <= 60; key++ {
		lo := rng.Float64() * 100
		tu := storeTuple(key, lo, lo+rng.Float64()*20, 1)
		st.MustInsert(tu)
		one.MustInsert(tu)
	}
	for _, kind := range []EndpointKind{LowerEndpoint, UpperEndpoint} {
		flat := NewShardedIndex(one, 1, kind)
		sharded := NewShardedIndex(st, 1, kind)
		check := func(stage string) {
			t.Helper()
			if flat.Len() != sharded.Len() {
				t.Fatalf("%s %v: len %d vs %d", stage, kind, flat.Len(), sharded.Len())
			}
			fq, fk, fok := flat.Min()
			sq, _, sok := sharded.Min()
			if fok != sok || fq != sq {
				t.Fatalf("%s %v: Min (%g,%d,%v) vs (%g,_,%v)", stage, kind, fq, fk, fok, sq, sok)
			}
			fq, _, fok = flat.Max()
			sq, _, sok = sharded.Max()
			if fok != sok || fq != sq {
				t.Fatalf("%s %v: Max %g vs %g", stage, kind, fq, sq)
			}
			for _, pivot := range []float64{-5, 20, 50, 80, 500} {
				a, b := flat.KeysLess(pivot), sharded.KeysLess(pivot)
				if !sameKeySet(a, b) {
					t.Fatalf("%s %v: KeysLess(%g) %v vs %v", stage, kind, pivot, a, b)
				}
				a, b = flat.KeysGreater(pivot), sharded.KeysGreater(pivot)
				if !sameKeySet(a, b) {
					t.Fatalf("%s %v: KeysGreater(%g) %v vs %v", stage, kind, pivot, a, b)
				}
			}
		}
		check("build")
		// Mutate some bounds and keep both indexes updated.
		for i := 0; i < 30; i++ {
			key := int64(rng.Intn(60) + 1)
			lo := rng.Float64() * 100
			b := interval.New(lo, lo+rng.Float64()*20)
			if _, ok := one.Get(key); !ok {
				continue
			}
			for _, s := range []*Store{st, one} {
				s.Update(key, func(tt *Table, j int) {
					if err := tt.SetBound(j, 1, b); err != nil {
						t.Fatal(err)
					}
				})
			}
			if err := flat.Update(key); err != nil {
				t.Fatal(err)
			}
			if err := sharded.Update(key); err != nil {
				t.Fatal(err)
			}
		}
		check("update")
		// Remove a few tuples.
		for _, key := range []int64{3, 17, 42} {
			one.Delete(key)
			st.Delete(key)
			flat.Remove(key)
			sharded.Remove(key)
		}
		check("remove")
		sharded.Rebuild()
		check("rebuild")
		if err := sharded.Update(999); err == nil {
			t.Error("sharded index update of unknown key accepted")
		}
	}
}

func sameKeySet(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int64(nil), a...)
	bs := append([]int64(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
