package relation_test

import (
	"sync"
	"testing"

	"trapp/internal/aggregate"
	"trapp/internal/interval"
	"trapp/internal/predicate"
	"trapp/internal/relation"
)

// TestShardScansBesideInsertDelete hammers one shard with inserts and
// deletes — each one shifts the shard's row arrays, and a growth
// reallocates them — beside streaming scans of the same shard. Under
// -race this is the check that nothing reads a row outside the shard
// lock; the answers check that no scan ever saw a half-moved row (every
// row's bound is [key, key+1], so a torn read breaks the sums).
func TestShardScansBesideInsertDelete(t *testing.T) {
	schema := relation.NewSchema(
		relation.Column{Name: "g", Kind: relation.Exact},
		relation.Column{Name: "v", Kind: relation.Bounded},
	)
	st := relation.NewStore(schema, 0)
	// Keys of shard 0 only: permanent residents, and a churn set the
	// writers insert and delete.
	var resident, churn []int64
	for key := int64(0); len(churn) < 400; key++ {
		if st.ShardOf(key) != 0 {
			continue
		}
		if len(resident) < 100 {
			resident = append(resident, key)
		} else {
			churn = append(churn, key)
		}
	}
	row := func(key int64) relation.Tuple {
		return relation.Tuple{Key: key, Cost: 1, Bounds: []interval.Interval{
			interval.Point(0), interval.New(float64(key), float64(key+1)),
		}}
	}
	var residentLo float64
	for _, key := range resident {
		st.MustInsert(row(key))
		residentLo += float64(key)
	}
	var churnLo float64
	for _, key := range churn {
		churnLo += float64(key)
	}

	const writers, rounds = 2, 30
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(mine []int64) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, key := range mine {
					if err := st.Insert(row(key)); err != nil {
						t.Error(err)
						return
					}
				}
				for _, key := range mine {
					if !st.Delete(key) {
						t.Errorf("churn key %d vanished", key)
						return
					}
				}
			}
		}(churn[w*len(churn)/writers : (w+1)*len(churn)/writers])
	}
	var scans sync.WaitGroup
	gt := predicate.NewCmp(predicate.Column(1, "v"), predicate.Gt, predicate.Const(-1))
	for s := 0; s < 2; s++ {
		scans.Add(1)
		go func(p predicate.Expr) {
			defer scans.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sum, n := aggregate.EvalStoreStream(st, 1, aggregate.Sum, p)
				if n < len(resident) || n > len(resident)+len(churn) {
					t.Errorf("scan saw %d rows", n)
					return
				}
				// Lo sums keys, Hi sums key+1 over the same n rows.
				if sum.Hi-sum.Lo != float64(n) || sum.Lo < residentLo || sum.Lo > residentLo+churnLo {
					t.Errorf("scan of %d rows answered %v", n, sum)
					return
				}
			}
		}([]predicate.Expr{nil, gt}[s])
	}
	wg.Wait()
	close(stop)
	scans.Wait()
	if st.Len() != len(resident) {
		t.Fatalf("%d rows left, want the %d residents", st.Len(), len(resident))
	}
}
