package experiment

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"trapp/internal/join"
	"trapp/internal/quantile"
	"trapp/internal/relation"
	"trapp/internal/workload"
)

// reshard copies st's tuples, inserted in an order shuffled by rng, into a
// new store with nshards shards.
func reshard(rng *rand.Rand, st *relation.Store, nshards int) *relation.Store {
	keys := st.SortedKeys()
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	out := relation.NewStore(st.Schema(), nshards)
	for _, key := range keys {
		tu, _ := st.Get(key)
		out.MustInsert(tu)
	}
	return out
}

// dump renders every tuple's bounds in key order: which tuples a run
// refreshed, and to what.
func dump(st *relation.Store) string {
	var b strings.Builder
	for _, key := range st.SortedKeys() {
		tu, _ := st.Get(key)
		fmt.Fprintf(&b, "%d:%v ", key, tu.Bounds)
	}
	return b.String()
}

// TestJoinAndMedianLayoutIndependent builds the E9 join and E12 median
// instances with their keys inserted in shuffled order into one-shard and
// eight-shard stores, and checks every run returns the same Result (the
// answer printed in shortest round-trip form, Refreshed and RefreshCost),
// plans the same keys and refreshes the same tuples. Equal-cost
// candidates are broken by key, never by insertion order or layout.
func TestJoinAndMedianLayoutIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(DefaultSeed))
	check := func(name string, run func(layout func(*relation.Store) *relation.Store) string) {
		t.Helper()
		want := run(func(st *relation.Store) *relation.Store { return st })
		for _, nshards := range []int{1, 8} {
			for trial := 0; trial < 3; trial++ {
				got := run(func(st *relation.Store) *relation.Store { return reshard(rng, st, nshards) })
				if got != want {
					t.Errorf("%s, %d shards, shuffle %d:\n got %s\nwant %s", name, nshards, trial, got, want)
				}
			}
		}
	}
	for _, planner := range joinPlanners {
		check("E9 "+planner.name, func(layout func(*relation.Store) *relation.Store) string {
			left, right, lm, rm := joinTables(8, DefaultSeed)
			left, right = layout(left), layout(right)
			spec := joinSpec(left, 5)
			plan, err := join.BatchGreedy(left, right, spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := planner.run(left, right, spec, lm, rm)
			return fmt.Sprintf("plan %+v result %+v err %v | %s| %s", plan, res, err, dump(left), dump(right))
		})
	}
	quotes := workload.StockDay(90, DefaultSeed)
	for _, r := range []float64{50, 20, 10, 5, 2, 1, 0} {
		check(fmt.Sprintf("E12 R=%g", r), func(layout func(*relation.Store) *relation.Store) string {
			st := layout(workload.StockStore(quotes))
			res, err := quantile.ExecuteMedian(st, st.Schema().MustLookup("price"), r, workload.StockMaster(quotes))
			return fmt.Sprintf("result %+v err %v | %s", res, err, dump(st))
		})
	}
}
