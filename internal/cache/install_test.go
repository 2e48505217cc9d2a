package cache

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"trapp/internal/boundfn"
	"trapp/internal/interval"
	"trapp/internal/netsim"
	"trapp/internal/relation"
	"trapp/internal/source"
	"trapp/internal/workload"
)

// applyPerKey is the install routine the cache ran for every refreshed
// key before a reply was installed in one locked pass per shard: the
// state mutex per key, a read-locked search for the sequence check, a
// write-locked second search for the write, one SetBound per column. It
// lives on as the reference the batch install is compared against.
func (c *Cache) applyPerKey(r source.Refresh) bool {
	sh, si := c.shardFor(r.Key)
	sh.mu.Lock()
	installed, tk := c.applyPerKeyLocked(sh, r)
	sh.mu.Unlock()
	if installed {
		if err := c.commitWAL(tk); err != nil {
			c.latchWALError(err)
		}
		c.notify(Event{Kind: RefreshApplied, Key: r.Key, Shard: si, Refresh: r.Kind})
	}
	return installed
}

func (c *Cache) applyPerKeyLocked(sh *cacheShard, r source.Refresh) (bool, relation.Ticket) {
	var tk relation.Ticket
	if r.Seq != 0 {
		stale := false
		c.store.View(r.Key, func(t *relation.Table, i int) { stale = r.Seq <= t.Seq(i) })
		if stale {
			return false, tk
		}
	}
	now := c.clock.Now()
	var pushed []interval.Interval
	installed := c.store.Update(r.Key, func(t *relation.Table, i int) {
		bcols := t.Schema().BoundedColumns()
		if r.Kind != source.QueryInitiated && c.wal != nil {
			pushed = make([]interval.Interval, len(bcols))
		}
		for j, col := range bcols {
			if r.Kind == source.QueryInitiated {
				_ = t.SetBound(i, col, interval.Point(r.Values[j]))
			} else {
				iv := r.Bounds[j].At(now)
				_ = t.SetBound(i, col, iv)
				if pushed != nil {
					pushed[j] = iv
				}
			}
		}
		t.SetPromise(i, r.Bounds, r.Seq)
	})
	if !installed {
		return false, tk
	}
	if r.Kind == source.QueryInitiated {
		sh.dirty = append(sh.dirty, r.Key)
		return true, c.logRefresh(r.Key, r.Values)
	}
	return true, c.logPush(r.Key, pushed)
}

// installWorld is one of the two identical worlds the differential test
// drives in lockstep: a cache of 120 objects on three sources (keys of
// all three share every shard) that counts the listener events it sees.
type installWorld struct {
	clock  *netsim.Clock
	c      *Cache
	dir    string
	events map[Event]int
}

var installSchema = relation.NewSchema(
	relation.Column{Name: "g", Kind: relation.Exact},
	relation.Column{Name: "v", Kind: relation.Bounded},
	relation.Column{Name: "w", Kind: relation.Bounded},
)

const installKeys, installSources, installShards = 120, 3, 4

func newInstallWorld(t *testing.T, durable bool) *installWorld {
	t.Helper()
	w := &installWorld{clock: netsim.NewClock(), events: make(map[Event]int)}
	if durable {
		w.dir = t.TempDir()
		var err error
		w.c, _, err = OpenDurableSharded("c", w.clock, installSchema, installShards, w.dir, relation.WALOptions{Sync: relation.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
	} else {
		w.c = NewSharded("c", w.clock, installSchema, installShards)
	}
	net := netsim.NewNetwork()
	for s := 0; s < installSources; s++ {
		src := source.New(fmt.Sprintf("s%d", s), w.clock, net, nil)
		for key := int64(s); key < installKeys; key += installSources {
			if err := src.AddObject(key, []float64{float64(key), float64(2 * key)}, float64(1+key%7), boundfn.StaticWidth(0.5)); err != nil {
				t.Fatal(err)
			}
			if err := w.c.Subscribe(src, key, []float64{float64(key % 5)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.c.SetListener(func(ev Event) { w.events[ev]++ })
	return w
}

// installRowDump is everything one row holds.
type installRowDump struct {
	Tuple   relation.Tuple
	Promise []boundfn.Bound
	Seq     int64
}

// rows dumps every row of every shard, in shard and row order.
func (w *installWorld) rows() []installRowDump {
	var out []installRowDump
	for si := 0; si < w.c.store.NumShards(); si++ {
		w.c.store.ViewShard(si, func(t *relation.Table) {
			for i := 0; i < t.Len(); i++ {
				d := installRowDump{Tuple: t.At(i).Clone(), Seq: t.Seq(i)}
				if t.HasPromise(i) {
					d.Promise = append([]boundfn.Bound(nil), t.Promise(i)...)
				}
				out = append(out, d)
			}
		})
	}
	return out
}

// checkSynced syncs the cache and checks the invariant
// TestTableBoundsArePromisesAtNow holds a cache to: every bounded column
// of every promised row is exactly the row's promise evaluated now.
func (w *installWorld) checkSynced(t *testing.T, round int) {
	t.Helper()
	w.c.Sync()
	now := w.clock.Now()
	for _, d := range w.rows() {
		for j, col := range installSchema.BoundedColumns() {
			if d.Promise != nil && d.Tuple.Bounds[col] != d.Promise[j].At(now) {
				t.Fatalf("round %d key %d column %d: after Sync the table holds %v, the row's promise at %d is %v",
					round, d.Tuple.Key, col, d.Tuple.Bounds[col], now, d.Promise[j].At(now))
			}
		}
	}
}

// TestBatchInstallMatchesPerKeyInstall drives two identical caches with
// the same random replies — fresh, overtaken and unordered sequence
// numbers, rows dropped mid-flight, keys nobody cached, piggybacked
// extras, keys of several sources landing in one shard, single pushed
// messages — one through the batch install, one row by row through the
// per-key reference, and requires identical installed sets, row arrays,
// listener events, log bytes and recovered contents, and a Sync that
// restores every promise.
func TestBatchInstallMatchesPerKeyInstall(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			testBatchInstallMatchesPerKeyInstall(t, durable)
		})
	}
}

func testBatchInstallMatchesPerKeyInstall(t *testing.T, durable bool) {
	batch, perKey := newInstallWorld(t, durable), newInstallWorld(t, durable)
	rng := rand.New(rand.NewSource(15))
	lastSeq := make(map[int64]int64) // newest sequence number sent per key
	installedTotal, droppedTotal := 0, 0
	for round := 0; round < 400; round++ {
		switch op := rng.Intn(10); {
		case op == 0:
			dt := int64(1 + rng.Intn(3))
			batch.clock.Advance(dt)
			perKey.clock.Advance(dt)
		case op == 1:
			batch.checkSynced(t, round)
			perKey.checkSynced(t, round)
		case op == 2:
			key := int64(rng.Intn(installKeys))
			if a, b := batch.c.Drop(key), perKey.c.Drop(key); a != b {
				t.Fatalf("round %d: Drop(%d) = %v and %v", round, key, a, b)
			}
		}
		// One random reply, the same rows for both worlds.
		var reply source.Batch
		src := rng.Intn(installSources)
		reply.SourceID = fmt.Sprintf("s%d", src)
		n := 1 + rng.Intn(40)
		reply.Requested = rng.Intn(n + 1)
		now := batch.clock.Now()
		for i := 0; i < n; i++ {
			key := int64(src + installSources*rng.Intn(installKeys/installSources))
			switch p := rng.Intn(20); {
			case p == 0:
				key = int64(installKeys + rng.Intn(5)) // never cached
			case p == 1:
				key = int64(rng.Intn(installKeys)) // any source's key
			}
			seq := lastSeq[key] + 1 + int64(rng.Intn(3))
			switch p := rng.Intn(10); {
			case p == 0:
				seq = 0 // unordered
			case p <= 2:
				seq = lastSeq[key] - int64(rng.Intn(2)) // overtaken
			}
			lastSeq[key] = max(lastSeq[key], seq)
			vals := []float64{rng.NormFloat64() * 50, rng.NormFloat64() * 50}
			bounds := make([]boundfn.Bound, len(vals))
			for j, v := range vals {
				bounds[j] = boundfn.Bound{Value: v, Width: rng.Float64() * 3, RefreshedAt: now - int64(rng.Intn(3))}
			}
			reply.Append(key, seq, vals, bounds)
		}
		var got, want []bool
		if n == 1 {
			// A pushed message: the batch of one.
			got = []bool{batch.c.apply(reply.Refresh(0))}
		} else {
			got = batch.c.install(&reply)
		}
		for i := 0; i < n; i++ {
			want = append(want, perKey.c.applyPerKey(reply.Refresh(i)))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: batch install reached %v, per-key install %v", round, got, want)
		}
		for _, ok := range got {
			if ok {
				installedTotal++
			} else {
				droppedTotal++
			}
		}
		if a, b := batch.rows(), perKey.rows(); !reflect.DeepEqual(a, b) {
			t.Fatalf("round %d: row arrays differ:\n batch   %+v\n per-key %+v", round, a, b)
		}
		if !reflect.DeepEqual(batch.events, perKey.events) {
			t.Fatalf("round %d: listener events differ: %v, %v", round, batch.events, perKey.events)
		}
	}
	if installedTotal < 1000 || droppedTotal < 500 {
		t.Fatalf("the replies exercised too little: %d rows installed, %d dropped", installedTotal, droppedTotal)
	}
	batch.checkSynced(t, -1)
	perKey.checkSynced(t, -1)
	if err := batch.c.WALHealth(); err != nil {
		t.Fatal(err)
	}
	if !durable {
		return
	}
	// The logs hold the same bytes, and replay to the same contents the
	// live caches hold.
	digest := batch.c.Store().ValueDigest()
	if d := perKey.c.Store().ValueDigest(); d != digest {
		t.Fatalf("value digests differ: %x, %x", digest, d)
	}
	for _, w := range []*installWorld{batch, perKey} {
		if err := w.c.CloseWAL(); err != nil {
			t.Fatal(err)
		}
	}
	names, err := filepath.Glob(filepath.Join(batch.dir, "*"))
	if err != nil || len(names) < 1+installShards {
		t.Fatalf("data directory holds %v, %v", names, err)
	}
	logged := 0
	for _, name := range names {
		a, errA := os.ReadFile(name)
		b, errB := os.ReadFile(filepath.Join(perKey.dir, filepath.Base(name)))
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: %d bytes after batch installs, %d after per-key installs, contents differ", filepath.Base(name), len(a), len(b))
		}
		logged += len(a)
	}
	if logged < 20*installedTotal {
		t.Fatalf("%d log bytes for %d installs: the installs were not logged", logged, installedTotal)
	}
	for _, w := range []*installWorld{batch, perKey} {
		re, _, err := OpenDurableSharded("c", w.clock, installSchema, installShards, w.dir, relation.WALOptions{Sync: relation.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if d := re.Store().ValueDigest(); d != digest {
			t.Errorf("recovered value digest %x, live cache had %x", d, digest)
		}
		if err := re.CloseWAL(); err != nil {
			t.Fatal(err)
		}
	}
}

// linksWorld is the benchmark's tight-precision population: links
// objects spread round-robin over sources, all in one cache.
type linksWorld struct {
	clock *netsim.Clock
	c     *Cache
	srcs  []*source.Source
	keys  []int64
}

func newLinksWorld(tb testing.TB, links, sources int) *linksWorld {
	tb.Helper()
	w := &linksWorld{clock: netsim.NewClock()}
	net := netsim.NewNetwork()
	w.c = New("c", w.clock, workload.LinkSchema())
	for s := 0; s < sources; s++ {
		w.srcs = append(w.srcs, source.New(fmt.Sprintf("s%d", s), w.clock, net, nil))
	}
	for key := int64(0); key < int64(links); key++ {
		src := w.srcs[int(key)%sources]
		if err := src.AddObject(key, []float64{float64(key), 50, 10}, float64(1+key%10), boundfn.NewAdaptiveWidth(1)); err != nil {
			tb.Fatal(err)
		}
		if err := w.c.Subscribe(src, key, []float64{float64(key % 40), float64(key % 41)}); err != nil {
			tb.Fatal(err)
		}
		w.keys = append(w.keys, key)
	}
	return w
}

// plan returns n keys spread over the population: one from every step of
// len/n keys, at an offset that walks through the step so the plan
// touches every source, not only the one owning the multiples of step.
func (w *linksWorld) plan(n int) []int64 {
	step := len(w.keys) / n
	plan := make([]int64, n)
	for i := range plan {
		plan[i] = w.keys[i*step+i%step]
	}
	return plan
}

// TestPushesBesideRefreshRounds is the hammer for the rule that a refresh
// message never shares storage with the source's registration: value
// pushes — built under the source lock, delivered and read after it is
// released — run on the same keys as multi-source refresh rounds, which
// rewrite those keys' registrations in place. If a pushed message aliased
// its registration, the race detector would see the round's write against
// the delivery's read. With and without piggybacked extras. Afterwards
// every master value must sit inside its cached bound.
func TestPushesBesideRefreshRounds(t *testing.T) {
	for _, piggyback := range []float64{0, 0.9} {
		t.Run(fmt.Sprintf("piggyback=%g", piggyback), func(t *testing.T) {
			const links, sources, rounds = 60, 3, 300
			w := newLinksWorld(t, links, sources)
			for _, src := range w.srcs {
				src.EnablePiggyback(piggyback)
			}
			w.clock.Advance(1)
			master := make([][]float64, links)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for s, src := range w.srcs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(s)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						// A jump far outside any bound: every SetValue pushes.
						key := int64(s + sources*rng.Intn(links/sources))
						v := float64(rng.Intn(2_000_000) - 1_000_000)
						master[key] = []float64{v, v + 1, v + 2}
						if err := src.SetValue(key, master[key]); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			ctx := context.Background()
			for r := 0; r < rounds; r++ {
				if r%10 == 0 {
					w.clock.Advance(1)
				}
				w.c.Sync()
				if _, err := w.c.Refresh(ctx, w.keys); err != nil {
					t.Error(err)
					break
				}
			}
			close(stop)
			wg.Wait()
			w.c.Sync()
			for key, vals := range master {
				if vals == nil {
					continue
				}
				tu := tupleOf(t, w.c, int64(key))
				for j, col := range w.c.Schema().BoundedColumns() {
					if !tu.Bounds[col].Contains(vals[j]) {
						t.Errorf("key %d column %d: bound %v does not contain master %g", key, col, tu.Bounds[col], vals[j])
					}
				}
			}
		})
	}
}

// TestRefreshRoundAllocations guards the batch shape of the refresh path:
// a round allocates per batch and per source, never per key; the schema's
// bounded-column list is shared, not rebuilt; a value push allocates its
// message and nothing else on the way into the table.
func TestRefreshRoundAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const sources = 5
	w := newLinksWorld(t, 2000, sources)
	ctx := context.Background()
	round := func(keys []int64) float64 {
		return testing.AllocsPerRun(20, func() {
			w.clock.Advance(1)
			w.c.Sync()
			if set, err := w.c.Refresh(ctx, keys); err != nil || slices.Contains(set.Installed, false) {
				t.Fatalf("round installed %v, %v", set.Installed, err)
			}
		})
	}
	// The budget: the set and the split by source (≤ 12), and per source a
	// reply (6), its install (3) and its goroutine (≤ 5).
	small, large := round(w.plan(40)), round(w.plan(400))
	if budget := float64(12 + 14*sources); large > budget {
		t.Errorf("a 400-key round over %d sources allocates %.0f times, budget %.0f", sources, large, budget)
	}
	if large > small+2 {
		t.Errorf("allocations grow with the plan: %.0f for 40 keys, %.0f for 400", small, large)
	}

	schema := w.c.Schema()
	if n := testing.AllocsPerRun(100, func() { _ = schema.BoundedColumns() }); n != 0 {
		t.Errorf("BoundedColumns allocates %.0f times per call", n)
	}

	// A push is its message: the values and the bounds.
	w.clock.Advance(1)
	v := 1e6
	if n := testing.AllocsPerRun(100, func() {
		v = -v
		if err := w.srcs[0].SetValue(0, []float64{v, v, v}); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("a value push allocates %.0f times, want the message's 2", n)
	}
	if got := tupleOf(t, w.c, 0).Bounds[w.c.Schema().BoundedColumns()[0]]; !got.Contains(v) {
		t.Fatalf("pushes did not reach the table: bound %v, master %g", got, v)
	}
}

// BenchmarkRefreshRound measures one refresh round end to end — split by
// source, five per-source requests, five replies installed — for a
// 400-key plan over 2 000 links on 5 sources, the size of a
// tight-precision query's plan. The tick and Sync between rounds are not
// timed.
func BenchmarkRefreshRound(b *testing.B) {
	const planned = 400
	w := newLinksWorld(b, 2000, 5)
	plan := w.plan(planned)
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.clock.Advance(1)
		w.c.Sync()
		b.StartTimer()
		set, err := w.c.Refresh(ctx, plan)
		if err != nil || !set.Installed[planned-1] {
			b.Fatal("round failed: ", err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*planned), "ns/key")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*planned), "allocs/key")
}
