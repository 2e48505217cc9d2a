package cache

import (
	"context"
	"slices"
	"sort"
	"testing"

	"trapp/internal/boundfn"
	"trapp/internal/netsim"
	"trapp/internal/relation"
	"trapp/internal/source"
	"trapp/internal/workload"
)

func newPair(t *testing.T) (*Cache, *source.Source, *netsim.Clock) {
	t.Helper()
	clock := netsim.NewClock()
	net := netsim.NewNetwork()
	src := source.New("s1", clock, net, nil)
	c := New("c1", clock, workload.LinkSchema())
	for _, row := range workload.Figure2() {
		if err := src.AddObject(row.Key,
			[]float64{row.LatencyV, row.BandwidthV, row.TrafficV},
			row.Cost, boundfn.StaticWidth(2)); err != nil {
			t.Fatal(err)
		}
		if err := c.Subscribe(src, row.Key, []float64{float64(row.From), float64(row.To)}); err != nil {
			t.Fatal(err)
		}
	}
	return c, src, clock
}

// pullRefresh asks the source for one object's query-initiated refresh
// without applying the reply.
func pullRefresh(t *testing.T, src *source.Source, key int64, c *Cache) source.Refresh {
	t.Helper()
	b, err := src.QueryRefreshBatchCtx(context.Background(), []int64{key}, c)
	if err != nil {
		t.Fatal(err)
	}
	return b.Refresh(0)
}

// tupleOf fetches a copy of the keyed tuple for assertions.
func tupleOf(t *testing.T, c *Cache, key int64) relation.Tuple {
	t.Helper()
	tu, ok := c.Store().Get(key)
	if !ok {
		t.Fatalf("key %d not cached", key)
	}
	return tu
}

func TestSubscribePopulatesTable(t *testing.T) {
	c, _, _ := newPair(t)
	if c.Len() != 6 {
		t.Fatalf("cache len = %d", c.Len())
	}
	if c.ID() != "c1" {
		t.Errorf("ID = %q", c.ID())
	}
	tu := tupleOf(t, c, 1)
	// Exact columns.
	if tu.Bounds[0].Lo != 1 || tu.Bounds[1].Lo != 2 {
		t.Errorf("exact columns = %v, %v", tu.Bounds[0], tu.Bounds[1])
	}
	// Fresh bounds are points at the master values.
	lat := c.Schema().MustLookup(workload.ColLatency)
	if !tu.Bounds[lat].IsPoint() || tu.Bounds[lat].Lo != 3 {
		t.Errorf("latency bound = %v, want [3]", tu.Bounds[lat])
	}
	if tu.Cost != 3 {
		t.Errorf("cost = %g", tu.Cost)
	}
	if tu.SourceID != "s1" {
		t.Errorf("sourceID = %q", tu.SourceID)
	}
}

func TestSyncGrowsBoundsWithTime(t *testing.T) {
	c, _, clock := newPair(t)
	lat := c.Schema().MustLookup(workload.ColLatency)
	clock.Advance(9) // width 2, sqrt(9) = 3 → ±6
	c.Sync()
	b := tupleOf(t, c, 1).Bounds[lat]
	if b.Width() != 12 {
		t.Errorf("bound width after 9 ticks = %g, want 12", b.Width())
	}
	if !b.Contains(3) {
		t.Errorf("bound %v does not contain master 3", b)
	}
}

func TestMasterPullsQueryRefresh(t *testing.T) {
	c, _, clock := newPair(t)
	clock.Advance(100)
	c.Sync()
	vals, ok := c.Master(1)
	if !ok {
		t.Fatal("Master(1) failed")
	}
	if vals[0] != 3 || vals[1] != 61 || vals[2] != 98 {
		t.Errorf("master values = %v", vals)
	}
	// After the refresh the cached bound collapses to a point.
	lat := c.Schema().MustLookup(workload.ColLatency)
	if b := tupleOf(t, c, 1).Bounds[lat]; !b.IsPoint() {
		t.Errorf("bound after refresh = %v", b)
	}
	if _, ok := c.Master(999); ok {
		t.Error("Master(999) succeeded")
	}
}

func TestValuePushUpdatesCache(t *testing.T) {
	c, src, clock := newPair(t)
	clock.Advance(1)
	// Jump latency of object 1 outside its bound: ±2 around 3 → 100 escapes.
	if err := src.SetValue(1, []float64{100, 61, 98}); err != nil {
		t.Fatal(err)
	}
	c.Sync()
	lat := c.Schema().MustLookup(workload.ColLatency)
	b := tupleOf(t, c, 1).Bounds[lat]
	if !b.Contains(100) {
		t.Errorf("cache bound %v does not contain pushed value 100", b)
	}
}

func TestDrop(t *testing.T) {
	c, _, _ := newPair(t)
	if !c.Drop(1) {
		t.Fatal("Drop(1) failed")
	}
	if c.Len() != 5 {
		t.Errorf("len after drop = %d", c.Len())
	}
	if c.Drop(1) {
		t.Error("double drop succeeded")
	}
	if _, ok := c.Master(1); ok {
		t.Error("Master of dropped key succeeded")
	}
	// A stale refresh for the dropped key is ignored gracefully.
	c.ApplyRefresh(source.Refresh{Key: 1, Bounds: []boundfn.Bound{{}, {}, {}}})
}

// TestKeysSorted checks the documented guarantee: Keys returns the cached
// keys in ascending order regardless of insertion order or shard layout.
func TestKeysSorted(t *testing.T) {
	clock := netsim.NewClock()
	net := netsim.NewNetwork()
	for _, nshards := range []int{1, 4, 16} {
		src := source.New("s1", clock, net, nil)
		c := NewSharded("c1", clock, workload.LinkSchema(), nshards)
		// Subscribe in a scrambled, non-ascending key order.
		rows := workload.Figure2()
		for i := len(rows) - 1; i >= 0; i-- {
			row := rows[i]
			if err := src.AddObject(row.Key,
				[]float64{row.LatencyV, row.BandwidthV, row.TrafficV},
				row.Cost, boundfn.StaticWidth(2)); err != nil {
				t.Fatal(err)
			}
			if err := c.Subscribe(src, row.Key, []float64{float64(row.From), float64(row.To)}); err != nil {
				t.Fatal(err)
			}
		}
		keys := c.Keys()
		if len(keys) != len(rows) {
			t.Fatalf("shards=%d: keys = %v", nshards, keys)
		}
		if !sort.SliceIsSorted(keys, func(a, b int) bool { return keys[a] < keys[b] }) {
			t.Errorf("shards=%d: keys not sorted: %v", nshards, keys)
		}
		net.Reset()
	}
}

// TestInvariantMasterAlwaysInsideBound drives random updates and checks
// the architecture invariant: after every update + sync, each cached
// bound contains the current master value (invariant 6 of DESIGN.md).
func TestInvariantMasterAlwaysInsideBound(t *testing.T) {
	c, src, clock := newPair(t)
	bcols := c.Schema().BoundedColumns()
	vals := map[int64][]float64{}
	for _, row := range workload.Figure2() {
		vals[row.Key] = []float64{row.LatencyV, row.BandwidthV, row.TrafficV}
	}
	step := func(key int64, delta float64) {
		v := vals[key]
		v[0] += delta
		v[1] -= delta / 2
		v[2] += delta * 2
		if err := src.SetValue(key, v); err != nil {
			t.Fatal(err)
		}
	}
	deltas := []float64{0.5, -1, 3, -8, 20, -0.1, 50}
	for i, d := range deltas {
		clock.Advance(int64(1 + i))
		for _, row := range workload.Figure2() {
			step(row.Key, d)
		}
		c.Sync()
		for _, row := range workload.Figure2() {
			tu := tupleOf(t, c, row.Key)
			for j, col := range bcols {
				if !tu.Bounds[col].Contains(vals[row.Key][j]) {
					t.Fatalf("step %d: key %d col %d bound %v missing master %g",
						i, row.Key, col, tu.Bounds[col], vals[row.Key][j])
				}
			}
		}
	}
}

// TestRefreshFansOutPerSource subscribes one cache to objects on three
// sources and checks that one refresh round refreshes every requested
// object, charges each source, and collapses the cached bounds.
func TestRefreshFansOutPerSource(t *testing.T) {
	clock := netsim.NewClock()
	net := netsim.NewNetwork()
	c := New("c1", clock, workload.LinkSchema())
	var keys []int64
	for si := 0; si < 3; si++ {
		src := source.New(string(rune('a'+si)), clock, net, nil)
		for oi := 0; oi < 4; oi++ {
			key := int64(si*10 + oi)
			v := float64(key)
			if err := src.AddObject(key, []float64{v, v + 1, v + 2}, 2, boundfn.StaticWidth(1)); err != nil {
				t.Fatal(err)
			}
			if err := c.Subscribe(src, key, []float64{0, 0}); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, key)
		}
	}
	clock.Advance(50)
	c.Sync()
	net.Reset()
	ctx := context.Background()
	set, err := c.Refresh(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Installed) != len(keys) || slices.Contains(set.Installed, false) {
		t.Fatalf("round installed %v, want all %d entries", set.Installed, len(keys))
	}
	for i, key := range keys {
		if v := set.Row(i); v[0] != float64(key) || v[2] != float64(key)+2 {
			t.Errorf("key %d values = %v", key, v)
		}
	}
	st := net.Stats()
	if st.Messages[netsim.QueryRefresh] != int64(len(keys)) {
		t.Errorf("query-refresh messages = %d, want %d", st.Messages[netsim.QueryRefresh], len(keys))
	}
	if st.QueryRefreshCost != float64(2*len(keys)) {
		t.Errorf("query refresh cost = %g, want %d", st.QueryRefreshCost, 2*len(keys))
	}
	lat := c.Schema().MustLookup(workload.ColLatency)
	for _, key := range keys {
		if b := tupleOf(t, c, key).Bounds[lat]; !b.IsPoint() {
			t.Errorf("key %d bound after batch refresh = %v", key, b)
		}
	}
	// Keys the cache no longer tracks (dropped mid-plan) are skipped,
	// not errors: the round serves the rest and leaves their entries unset.
	set, err = c.Refresh(ctx, []int64{999, keys[0]})
	if err != nil {
		t.Errorf("round with dropped key: %v", err)
	}
	if len(set.Installed) != 2 || set.Installed[0] || !set.Installed[1] || set.Row(1)[0] != float64(keys[0]) {
		t.Errorf("round with dropped key = %+v", set)
	}
	if set, err := c.Refresh(ctx, nil); err != nil || len(set.Installed) != 0 {
		t.Errorf("empty round = %+v, %v", set, err)
	}
}

// TestApplyRefreshDropsStaleSeq delivers an old refresh after a newer
// one and checks the cache keeps the newer bounds (out-of-order batch
// replies must not resurrect stale values).
func TestApplyRefreshDropsStaleSeq(t *testing.T) {
	c, src, clock := newPair(t)
	lat := c.Schema().MustLookup(workload.ColLatency)
	clock.Advance(1)
	// Pull a refresh without applying it, then let a newer push land.
	r1 := pullRefresh(t, src, 1, c)
	if err := src.SetValue(1, []float64{500, 61, 98}); err != nil { // escapes → push applies newer refresh
		t.Fatal(err)
	}
	newer := tupleOf(t, c, 1).Bounds[lat]
	if !newer.Contains(500) {
		t.Fatalf("push not applied: bound %v", newer)
	}
	c.ApplyRefresh(r1) // stale reply arrives late
	if got := tupleOf(t, c, 1).Bounds[lat]; got != newer {
		t.Errorf("stale refresh overwrote newer bounds: %v → %v", newer, got)
	}
}

// TestSyncFastPath checks that a Sync with an unchanged clock and no
// intervening refresh leaves the table untouched, while a refresh or a
// clock advance forces re-materialization — per shard: a refresh dirties
// only its own shard's fast path.
func TestSyncFastPath(t *testing.T) {
	c, _, clock := newPair(t)
	lat := c.Schema().MustLookup(workload.ColLatency)
	clock.Advance(9)
	c.Sync()
	want := tupleOf(t, c, 1).Bounds[lat]
	c.Sync() // fast path: no changes
	if got := tupleOf(t, c, 1).Bounds[lat]; got != want {
		t.Errorf("fast-path Sync changed bound: %v → %v", want, got)
	}
	// A query refresh collapses the bound; the next Sync must restore the
	// time-varying bound even though the clock did not advance.
	if _, ok := c.Master(1); !ok {
		t.Fatal("Master failed")
	}
	// Master's ApplyRefresh materializes a fresh bound evaluated at the
	// current tick; at Δt = 0 the √T shape gives a point.
	if b := tupleOf(t, c, 1).Bounds[lat]; !b.IsPoint() {
		t.Fatalf("bound after refresh = %v, want point", b)
	}
	clock.Advance(4)
	c.Sync()
	if b := tupleOf(t, c, 1).Bounds[lat]; b.IsPoint() {
		t.Error("Sync after clock advance left refreshed bound a point")
	}
}

// TestEventsCarryShardIDs checks that change events report the store
// shard owning the key, matching Store.ShardOf.
func TestEventsCarryShardIDs(t *testing.T) {
	clock := netsim.NewClock()
	net := netsim.NewNetwork()
	src := source.New("s1", clock, net, nil)
	c := New("c1", clock, workload.LinkSchema())
	var events []Event
	c.SetListener(func(ev Event) { events = append(events, ev) })
	for _, row := range workload.Figure2() {
		if err := src.AddObject(row.Key,
			[]float64{row.LatencyV, row.BandwidthV, row.TrafficV},
			row.Cost, boundfn.StaticWidth(2)); err != nil {
			t.Fatal(err)
		}
		if err := c.Subscribe(src, row.Key, []float64{float64(row.From), float64(row.To)}); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(4)
	if _, ok := c.Master(3); !ok {
		t.Fatal("Master failed")
	}
	c.Drop(5)
	if len(events) == 0 {
		t.Fatal("no events delivered")
	}
	for _, ev := range events {
		if want := c.Store().ShardOf(ev.Key); ev.Shard != want {
			t.Errorf("event %+v: shard = %d, want %d", ev, ev.Shard, want)
		}
	}
}

func TestSubscribeErrors(t *testing.T) {
	clock := netsim.NewClock()
	net := netsim.NewNetwork()
	src := source.New("s1", clock, net, nil)
	c := New("c1", clock, workload.LinkSchema())
	// Missing object.
	if err := c.Subscribe(src, 42, []float64{0, 0}); err == nil {
		t.Error("subscribe to missing object accepted")
	}
	// Wrong bounded-column arity from source.
	if err := src.AddObject(1, []float64{1, 2}, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(src, 1, []float64{0, 0}); err == nil {
		t.Error("source with 2 values accepted for 3 bounded columns")
	}
	// Missing exact values.
	if err := src.AddObject(2, []float64{1, 2, 3}, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(src, 2, []float64{0}); err == nil {
		t.Error("short exact values accepted")
	}
	// Duplicate subscription → duplicate key in table.
	if err := src.AddObject(3, []float64{1, 2, 3}, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(src, 3, []float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(src, 3, []float64{0, 0}); err == nil {
		t.Error("duplicate subscription accepted")
	}
	// Rows name their source; a second source under a taken name would
	// capture the first one's rows.
	twin := source.New("s1", clock, net, nil)
	if err := twin.AddObject(4, []float64{1, 2, 3}, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(twin, 4, []float64{0, 0}); err == nil {
		t.Error("second source named s1 accepted")
	}
}
