package relation

import (
	"math/rand"
	"testing"

	"trapp/internal/boundfn"
	"trapp/internal/interval"
)

// Model-based property tests for the row-array layout: random mutations
// are applied to a store's shards and to a plain map,
// and after every step the row arrays must be aligned, ordered as the
// layout promises, and hold exactly the model's rows — each row's
// promise and sequence number included, wherever the row moved.

// modelRow is everything one row stores.
type modelRow struct {
	bounds  []interval.Interval
	cost    float64
	source  string
	promise []boundfn.Bound
	seq     int64
}

func layoutSchema() *Schema {
	return NewSchema(
		Column{Name: "g", Kind: Exact},
		Column{Name: "v", Kind: Bounded},
		Column{Name: "w", Kind: Bounded},
	)
}

// checkRows asserts the alignment invariant of t's row arrays and that
// the rows are exactly the model's. peak is the largest row count the
// table has held, which bounds its capacity.
func checkRows(t *testing.T, tab *Table, model map[int64]*modelRow, peak int) {
	t.Helper()
	n, nc, nb := tab.Len(), tab.nc, len(tab.bcols)
	if len(tab.arena) != n*nc || len(tab.promises) != n*nb || len(tab.seqs) != n {
		t.Fatalf("row arrays disagree: %d tuples, arena %d/%d, promises %d/%d, seqs %d",
			n, len(tab.arena), nc, len(tab.promises), nb, len(tab.seqs))
	}
	if rows := cap(tab.tuples); rows > peak+max(peak/8, 16) ||
		cap(tab.arena) != rows*nc || cap(tab.promises) != rows*nb || cap(tab.seqs) != rows {
		t.Fatalf("capacity %d rows (arena %d, promises %d, seqs %d) for a peak of %d",
			rows, cap(tab.arena), cap(tab.promises), cap(tab.seqs), peak)
	}
	for i := 0; i < n; i++ {
		tu := tab.At(i)
		if len(tu.Bounds) != nc || cap(tu.Bounds) != nc || &tu.Bounds[0] != &tab.arena[i*nc] {
			t.Fatalf("row %d (key %d): Bounds is not the arena's row %d", i, tu.Key, i)
		}
		if got := tab.ByKey(tu.Key); got != i {
			t.Fatalf("ByKey(%d) = %d, row is at %d", tu.Key, got, i)
		}
		m, ok := model[tu.Key]
		if !ok {
			t.Fatalf("row %d holds key %d, which the model does not", i, tu.Key)
		}
		if tu.Cost != m.cost || tu.SourceID != m.source {
			t.Fatalf("key %d: cost/source %g/%q, want %g/%q", tu.Key, tu.Cost, tu.SourceID, m.cost, m.source)
		}
		for c := range m.bounds {
			if tu.Bounds[c] != m.bounds[c] {
				t.Fatalf("key %d column %d: bound %v, want %v", tu.Key, c, tu.Bounds[c], m.bounds[c])
			}
		}
		if tab.Seq(i) != m.seq || tab.HasPromise(i) != (m.seq != NoPromise) {
			t.Fatalf("key %d: seq %d (has promise %v), want %d", tu.Key, tab.Seq(i), tab.HasPromise(i), m.seq)
		}
		for j, p := range tab.Promise(i) {
			want := boundfn.Bound{}
			if m.promise != nil {
				want = m.promise[j]
			}
			if p != want {
				t.Fatalf("key %d: promise[%d] = %v, want %v", tu.Key, j, p, want)
			}
		}
	}
}

// randomRow draws a row for the key.
func randomRow(rng *rand.Rand, key int64) (Tuple, *modelRow) {
	v, w := rng.Float64()*100, rng.Float64()*100
	tu := Tuple{
		Key:      key,
		Cost:     float64(1 + rng.Intn(10)),
		SourceID: []string{"", "s0", "s1"}[rng.Intn(3)],
		Bounds: []interval.Interval{
			interval.Point(float64(key % 7)), interval.New(v, v+rng.Float64()), interval.New(w-rng.Float64(), w),
		},
	}
	return tu, &modelRow{bounds: tu.Clone().Bounds, cost: tu.Cost, source: tu.SourceID, seq: NoPromise}
}

// randomPromise installs a fresh promise and the intervals it evaluates
// to on row i, the way a refresh install does, and records both.
func randomPromise(rng *rand.Rand, tab *Table, i int, m *modelRow, now int64) {
	seq := max(m.seq, 0) + 1 + int64(rng.Intn(3))
	ps := make([]boundfn.Bound, len(tab.bcols))
	for j, col := range tab.bcols {
		ps[j] = boundfn.Bound{Value: rng.Float64() * 100, Width: rng.Float64(), RefreshedAt: now - int64(rng.Intn(5))}
		iv := ps[j].At(now)
		tab.At(i).Bounds[col] = iv
		m.bounds[col] = iv
	}
	tab.SetPromise(i, ps, seq)
	m.promise, m.seq = ps, seq
}

func TestStoreLayoutMatchesModel(t *testing.T) {
	for _, nshards := range []int{1, 4, NumCanonicalBuckets} {
		rng := rand.New(rand.NewSource(int64(nshards)))
		st := NewStore(layoutSchema(), nshards)
		model := make(map[int64]*modelRow)
		peaks := make([]int, st.NumShards())
		const keys = 300
		for step := 0; step < 4000; step++ {
			key := int64(rng.Intn(keys)) - keys/3 // negative keys too
			switch op := rng.Intn(10); {
			case op < 4:
				tu, m := randomRow(rng, key)
				err := st.Insert(tu)
				if _, dup := model[key]; dup != (err != nil) {
					t.Fatalf("step %d: Insert(%d) = %v with the key present: %v", step, key, err, dup)
				}
				if err == nil {
					model[key] = m
				}
			case op < 6:
				_, present := model[key]
				if st.Delete(key) != present {
					t.Fatalf("step %d: Delete(%d) disagrees with the model (present %v)", step, key, present)
				}
				delete(model, key)
			case op < 9:
				m := model[key]
				found := st.Update(key, func(tab *Table, i int) { randomPromise(rng, tab, i, m, int64(step)) })
				if found != (m != nil) {
					t.Fatalf("step %d: Update(%d) found %v", step, key, found)
				}
			default:
				// A tick over one shard: every promised row re-evaluated.
				now := int64(step)
				st.UpdateShard(rng.Intn(st.NumShards()), func(tab *Table) bool {
					for i := 0; i < tab.Len(); i++ {
						if !tab.HasPromise(i) {
							continue
						}
						m := model[tab.At(i).Key]
						for j, col := range tab.bcols {
							iv := tab.Promise(i)[j].At(now)
							tab.At(i).Bounds[col] = iv
							m.bounds[col] = iv
						}
					}
					return true
				})
			}
			total := 0
			for si := 0; si < st.NumShards(); si++ {
				tab := st.shards[si].tab
				total += tab.Len()
				peaks[si] = max(peaks[si], tab.Len())
				checkRows(t, tab, model, peaks[si])
				for i := 0; i < tab.Len(); i++ {
					if key := tab.At(i).Key; st.ShardOf(key) != si {
						t.Fatalf("step %d: key %d sits in shard %d, belongs to %d", step, key, si, st.ShardOf(key))
					}
					if i > 0 && !CanonicalLess(tab.At(i-1).Key, tab.At(i).Key) {
						t.Fatalf("step %d: shard %d rows %d,%d out of canonical order", step, si, i-1, i)
					}
				}
			}
			if total != len(model) || st.Len() != len(model) {
				t.Fatalf("step %d: %d rows in shards, Len %d, model has %d", step, total, st.Len(), len(model))
			}
			if _, ok := model[key]; !ok && st.shards[st.ShardOf(key)].tab.ByKey(key) != -1 {
				t.Fatalf("step %d: ByKey finds absent key %d", step, key)
			}
		}
	}
}
