package cache

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"trapp/internal/boundfn"
	"trapp/internal/interval"
	"trapp/internal/netsim"
	"trapp/internal/relation"
	"trapp/internal/source"
)

// TestTableBoundsArePromisesAtNow drives a durable cache through random
// ticks, pushes, query-initiated refreshes, late (out-of-order) replies,
// drops, new subscriptions and reopens with partial re-handshakes, and
// keeps its own record of the promise each accepted refresh carried. The
// cache holds promises only in its table rows, so after every step and a
// Sync each bounded column of each row must be exactly the recorded
// promise evaluated at the current tick — Unbounded for a recovered row
// no source has re-promised — and the row must hold that very promise.
func TestTableBoundsArePromisesAtNow(t *testing.T) {
	const width = 0.5
	schema := relation.NewSchema(
		relation.Column{Name: "g", Kind: relation.Exact},
		relation.Column{Name: "v", Kind: relation.Bounded},
		relation.Column{Name: "w", Kind: relation.Bounded},
	)
	bcols := schema.BoundedColumns()
	dir := t.TempDir()
	clock := netsim.NewClock()
	rng := rand.New(rand.NewSource(14))

	// object is the test's record of one cached object: its master values
	// and the promise of the last refresh the cache accepted for it (nil
	// while the recovered row is unattached).
	type object struct {
		vals    []float64
		src     int
		promise []boundfn.Bound
	}
	objs := make(map[int64]*object)
	nextKey := int64(0)
	// promiseNow is what a source promises for o at this instant: sources
	// here use a static width and the default shape.
	promiseNow := func(o *object) []boundfn.Bound {
		ps := make([]boundfn.Bound, len(o.vals))
		for j, v := range o.vals {
			ps[j] = boundfn.Bound{Value: v, Width: width, RefreshedAt: clock.Now()}
		}
		return ps
	}

	var c *Cache
	var srcs []*source.Source
	var lmu sync.Mutex // guards accepted
	accepted := 0
	open := func() {
		var rec Recovery
		var err error
		c, rec, err = OpenDurableSharded("c", clock, schema, 4, dir, relation.WALOptions{Sync: relation.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Rewidened != len(objs) || c.Len() != len(objs) {
			t.Fatalf("recovered %d rows, re-widened %d, want %d", c.Len(), rec.Rewidened, len(objs))
		}
		net := netsim.NewNetwork()
		srcs = srcs[:0]
		for _, id := range []string{"s0", "s1", "s2"} {
			srcs = append(srcs, source.New(id, clock, net, nil))
		}
		for key, o := range objs {
			o.promise = nil
			if err := srcs[o.src].AddObject(key, o.vals, float64(1+key%10), boundfn.StaticWidth(width)); err != nil {
				t.Fatal(err)
			}
		}
		// Every refresh that reaches the table is reported here, on the
		// applying goroutine (one per source in a Refresh fan-out),
		// while master values and clock are still those the source built
		// the refresh from.
		c.SetListener(func(ev Event) {
			if ev.Kind == RefreshApplied {
				lmu.Lock()
				defer lmu.Unlock()
				accepted++
				objs[ev.Key].promise = promiseNow(objs[ev.Key])
			}
		})
	}
	open()

	check := func(step int) {
		t.Helper()
		c.Sync()
		now := clock.Now()
		var unattached []int64
		for key, o := range objs {
			tu := tupleOf(t, c, key)
			if tu.Bounds[0] != interval.Point(float64(key%5)) || tu.SourceID != srcs[o.src].ID() {
				t.Fatalf("step %d key %d: exact column %v, source %q", step, key, tu.Bounds[0], tu.SourceID)
			}
			if o.promise == nil {
				unattached = append(unattached, key)
			}
			for j, col := range bcols {
				want := interval.Unbounded
				if o.promise != nil {
					want = o.promise[j].At(now)
				}
				if tu.Bounds[col] != want {
					t.Fatalf("step %d key %d column %d: table holds %v, recorded promise at %d is %v",
						step, key, col, tu.Bounds[col], now, want)
				}
			}
			c.store.View(key, func(tab *relation.Table, i int) {
				if tab.HasPromise(i) != (o.promise != nil) {
					t.Fatalf("step %d key %d: row has promise %v, model %v", step, key, tab.HasPromise(i), o.promise != nil)
				}
				if o.promise != nil && !slices.Equal(tab.Promise(i), o.promise) {
					t.Fatalf("step %d key %d: row promise %v, recorded %v", step, key, tab.Promise(i), o.promise)
				}
			})
		}
		slices.Sort(unattached)
		if got := c.Unattached(); !slices.Equal(got, unattached) || c.Len() != len(objs) {
			t.Fatalf("step %d: %d rows, unattached %v; model has %d, unattached %v", step, c.Len(), got, len(objs), unattached)
		}
	}
	anyKey := func() (int64, *object) {
		keys := make([]int64, 0, len(objs))
		for key := range objs {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		key := keys[rng.Intn(len(keys))]
		return key, objs[key]
	}
	move := func(key int64, o *object) {
		for j := range o.vals {
			o.vals[j] += 0.05 + rng.Float64()*1.5*float64(1-2*rng.Intn(2))
		}
		if err := srcs[o.src].SetValue(key, o.vals); err != nil {
			t.Fatal(err)
		}
	}
	subscribe := func() {
		key := nextKey
		nextKey++
		o := &object{vals: []float64{rng.Float64() * 100, rng.Float64() * 100}, src: rng.Intn(3)}
		objs[key] = o
		if err := srcs[o.src].AddObject(key, o.vals, float64(1+key%10), boundfn.StaticWidth(width)); err != nil {
			t.Fatal(err)
		}
		if err := c.Subscribe(srcs[o.src], key, []float64{float64(key % 5)}); err != nil {
			t.Fatal(err)
		}
		o.promise = promiseNow(o)
	}
	rehandshake := func(key int64, o *object) {
		if err := c.Rehandshake(srcs[o.src], key); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		subscribe()
	}
	check(-1)

	for step := 0; step < 1200; step++ {
		key, o := anyKey()
		switch op := rng.Intn(100); {
		case op < 15:
			clock.Advance(int64(1 + rng.Intn(3)))
		case op < 50:
			move(key, o) // pushes when the value escapes its promise
		case op < 65:
			// Query-initiated: one key through Master, several through
			// Refresh; exactly the attached ones are refreshed, and
			// until the next Sync their bounds are the exact values.
			keys := []int64{key}
			for n := rng.Intn(4); n > 0; n-- {
				if k, _ := anyKey(); !slices.Contains(keys, k) {
					keys = append(keys, k)
				}
			}
			got := make(map[int64][]float64)
			if len(keys) == 1 {
				if vals, ok := c.Master(key); ok {
					got[key] = vals
				}
			} else {
				set, err := c.Refresh(context.Background(), keys)
				if err != nil {
					t.Fatal(err)
				}
				for i, k := range keys {
					if set.Installed[i] {
						got[k] = set.Row(i)
					}
				}
			}
			for _, k := range keys {
				vals, refreshed := got[k]
				if refreshed != (objs[k].promise != nil) {
					t.Fatalf("step %d key %d: refreshed %v, attached %v", step, k, refreshed, objs[k].promise != nil)
				}
				if !refreshed {
					continue
				}
				tu := tupleOf(t, c, k)
				for j, col := range bcols {
					if vals[j] != objs[k].vals[j] || tu.Bounds[col] != interval.Point(vals[j]) {
						t.Fatalf("step %d key %d: refresh returned %v, table holds %v, master %v",
							step, k, vals, tu.Bounds[col], objs[k].vals)
					}
				}
			}
		case op < 75:
			// A reply overtaken by a push: the source answers a refresh
			// request, the value then escapes the answer's promise and is
			// pushed, and only then does the reply arrive. It is older
			// than what the row holds and must leave no trace.
			if o.promise == nil {
				break
			}
			late := pullRefresh(t, srcs[o.src], key, c)
			before := accepted
			move(key, o)
			if accepted != before+1 {
				t.Fatalf("step %d key %d: escaping a point promise pushed %d refreshes", step, key, accepted-before)
			}
			c.ApplyRefresh(late)
			late.Kind = source.ValueInitiated
			c.ApplyRefresh(late)
			if accepted != before+1 {
				t.Fatalf("step %d key %d: a reply older than the row's sequence number was installed", step, key)
			}
		case op < 80:
			if len(objs) > 10 {
				if !c.Drop(key) {
					t.Fatalf("step %d: Drop(%d) found nothing", step, key)
				}
				delete(objs, key)
			}
		case op < 90:
			subscribe()
		case op < 97:
			if o.promise == nil {
				rehandshake(key, o)
			}
		default:
			// Power cycle: promises do not survive it; re-attach about
			// half the objects now, the rest whenever a later step does.
			if rng.Intn(2) == 0 {
				if err := c.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.CloseWAL(); err != nil {
				t.Fatal(err)
			}
			open()
			check(step)
			for key, o := range objs {
				if key%2 == int64(step%2) {
					rehandshake(key, o)
				}
			}
		}
		check(step)
	}
}
