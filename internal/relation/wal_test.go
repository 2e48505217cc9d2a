package relation

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"trapp/internal/boundfn"
	"trapp/internal/codec"
	"trapp/internal/interval"
)

func walSchema() *Schema {
	return NewSchema(
		Column{Name: "latency", Kind: Bounded},
		Column{Name: "from", Kind: Exact},
		Column{Name: "to", Kind: Exact},
	)
}

func walTuple(key int64, lat interval.Interval, from, to float64) Tuple {
	return Tuple{
		Key:      key,
		Bounds:   []interval.Interval{lat, interval.Point(from), interval.Point(to)},
		Cost:     float64(1 + key%7),
		SourceID: fmt.Sprintf("s%d", key%3),
	}
}

// snapshotTuples deep-copies the store's contents for later comparison.
func snapshotTuples(st *Store) map[int64]Tuple {
	out := make(map[int64]Tuple)
	for _, k := range st.SortedKeys() {
		tu, _ := st.Get(k)
		out[k] = tu
	}
	return out
}

func requireStoreEquals(t *testing.T, st *Store, want map[int64]Tuple, ctx string) {
	t.Helper()
	if st.Len() != len(want) {
		t.Fatalf("%s: recovered %d tuples, want %d", ctx, st.Len(), len(want))
	}
	for k, wtu := range want {
		got, ok := st.Get(k)
		if !ok {
			t.Fatalf("%s: key %d missing after recovery", ctx, k)
		}
		if got.Cost != wtu.Cost || got.SourceID != wtu.SourceID || len(got.Bounds) != len(wtu.Bounds) {
			t.Fatalf("%s: key %d tuple diverged: got %+v want %+v", ctx, k, got, wtu)
		}
		for i := range got.Bounds {
			if got.Bounds[i] != wtu.Bounds[i] {
				t.Fatalf("%s: key %d column %d bound %v, want %v", ctx, k, i, got.Bounds[i], wtu.Bounds[i])
			}
		}
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// logOp applies one mutation to the store and logs it, mirroring the
// store-write-then-append ordering the cache layer uses.
type walFixture struct {
	t  *testing.T
	st *Store
	w  *WAL
}

func (fx *walFixture) insert(tu Tuple) {
	if err := fx.st.Insert(tu); err != nil {
		fx.t.Fatal(err)
	}
	if _, err := fx.w.AppendInsert(&tu); err != nil {
		fx.t.Fatal(err)
	}
}

func (fx *walFixture) del(key int64) {
	fx.st.Delete(key)
	if _, err := fx.w.AppendDelete(key); err != nil {
		fx.t.Fatal(err)
	}
}

func (fx *walFixture) refresh(key int64, exact []float64) {
	if ok, err := fx.st.Refresh(key, exact); !ok || err != nil {
		fx.t.Fatalf("refresh %d: ok=%v err=%v", key, ok, err)
	}
	if _, err := fx.w.AppendRefresh(key, exact); err != nil {
		fx.t.Fatal(err)
	}
}

func (fx *walFixture) push(key int64, ivs []interval.Interval) {
	bcols := fx.st.Schema().BoundedColumns()
	ok := fx.st.Update(key, func(t *Table, i int) {
		for j, c := range bcols {
			if err := t.SetBound(i, c, ivs[j]); err != nil {
				fx.t.Fatal(err)
			}
		}
	})
	if !ok {
		fx.t.Fatalf("push to absent key %d", key)
	}
	if _, err := fx.w.AppendPush(key, ivs); err != nil {
		fx.t.Fatal(err)
	}
}

func (fx *walFixture) boundSet(key int64, col int, iv interval.Interval) {
	ok := fx.st.Update(key, func(t *Table, i int) {
		if err := t.SetBound(i, col, iv); err != nil {
			fx.t.Fatal(err)
		}
	})
	if !ok {
		fx.t.Fatalf("boundset to absent key %d", key)
	}
	if _, err := fx.w.AppendBoundSet(key, col, iv); err != nil {
		fx.t.Fatal(err)
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, w, ri, err := OpenStore(dir, walSchema(), 4, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ri.Recovered() {
		t.Fatalf("fresh directory claims recovery: %+v", ri)
	}
	fx := &walFixture{t: t, st: st, w: w}
	var lastTicket Ticket
	for k := int64(1); k <= 40; k++ {
		fx.insert(walTuple(k, interval.Interval{Lo: float64(k), Hi: float64(k) + 2}, float64(k%5), float64(k%9)))
	}
	fx.refresh(7, []float64{7.5})
	fx.push(11, []interval.Interval{{Lo: 10.5, Hi: 12.5}})
	fx.boundSet(13, 0, interval.Interval{Lo: 12, Hi: 14})
	fx.del(20)
	fx.del(21)
	fx.insert(walTuple(20, interval.Interval{Lo: 99, Hi: 101}, 1, 2)) // delete then re-insert
	tk, err := w.AppendRefresh(3, []float64{3.25})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := st.Refresh(3, []float64{3.25}); !ok || err != nil {
		t.Fatal("refresh 3")
	}
	lastTicket = tk
	if err := w.Commit(lastTicket); err != nil {
		t.Fatal(err)
	}
	want := snapshotTuples(st)
	digest := st.ValueDigest()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	st2, w2, ri2, err := OpenStore(dir, walSchema(), 4, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !ri2.Recovered() || ri2.TornTails != 0 {
		t.Fatalf("recovery info: %+v", ri2)
	}
	requireStoreEquals(t, st2, want, "round trip")
	if st2.ValueDigest() != digest {
		t.Fatalf("value digest diverged: %x != %x", st2.ValueDigest(), digest)
	}
	// A third open over the recovered state is deterministic too.
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, w3, _, err := OpenStore(dir, walSchema(), 4, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if st3.ValueDigest() != digest {
		t.Fatal("second recovery diverged from first")
	}
}

// TestWALPowerCutEveryByte is the torn-tail property test: with a single
// shard (so the log is one file with a total order), truncating the log
// at EVERY byte boundary must recover exactly the state after the
// longest whole-record prefix — never a corrupt mixture, never an error.
func TestWALPowerCutEveryByte(t *testing.T) {
	seedDir := t.TempDir()
	st, w, _, err := OpenStore(seedDir, walSchema(), 1, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fx := &walFixture{t: t, st: st, w: w}

	// Scripted ops; after each, snapshot the expected recovered state.
	states := []map[int64]Tuple{snapshotTuples(st)}
	step := func(op func()) {
		op()
		states = append(states, snapshotTuples(st))
	}
	step(func() { fx.insert(walTuple(1, interval.Interval{Lo: 0, Hi: 2}, 3, 4)) })
	step(func() { fx.insert(walTuple(2, interval.Interval{Lo: 5, Hi: 9}, 1, 1)) })
	step(func() { fx.refresh(1, []float64{1.5}) })
	step(func() { fx.insert(walTuple(3, interval.Interval{Lo: -1, Hi: 1}, 0, 8)) })
	step(func() { fx.push(2, []interval.Interval{{Lo: 6, Hi: 7}}) })
	step(func() { fx.del(1) })
	step(func() { fx.boundSet(3, 0, interval.Interval{Lo: -0.5, Hi: 0.5}) })
	step(func() { fx.insert(walTuple(1, interval.Interval{Lo: 40, Hi: 44}, 2, 2)) })
	step(func() { fx.del(2) })
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	logPath := filepath.Join(seedDir, logName(1, 0))
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries: ends[i] = offset after the i'th record.
	ends := []int{0}
	for off := 0; off < len(full); {
		_, next, ok := nextFrame(full, off)
		if !ok {
			t.Fatal("seed log itself torn")
		}
		ends = append(ends, next)
		off = next
	}
	if len(ends) != len(states) {
		t.Fatalf("%d records on disk, %d ops scripted", len(ends)-1, len(states)-1)
	}

	for cut := 0; cut <= len(full); cut++ {
		caseDir := filepath.Join(t.TempDir(), "cut")
		copyDir(t, seedDir, caseDir)
		if err := os.WriteFile(filepath.Join(caseDir, logName(1, 0)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// Longest whole-record prefix within the cut.
		prefix := 0
		for i, e := range ends {
			if e <= cut {
				prefix = i
			}
		}
		rst, rw, ri, err := OpenStore(caseDir, walSchema(), 1, WALOptions{})
		if err != nil {
			t.Fatalf("cut at %d: open failed: %v", cut, err)
		}
		requireStoreEquals(t, rst, states[prefix], fmt.Sprintf("cut at byte %d (prefix %d records)", cut, prefix))
		midFrame := cut != ends[prefix]
		if midFrame && ri.TornTails != 1 {
			t.Fatalf("cut at %d is mid-frame but TornTails=%d", cut, ri.TornTails)
		}
		if !midFrame && ri.TornTails != 0 {
			t.Fatalf("cut at %d is a frame boundary but TornTails=%d", cut, ri.TornTails)
		}
		rw.Close()
	}
}

// TestWALCorruptMidFileStopsPrefix: a bit flip in the middle of the log
// (not a truncation) must not let later records apply over a broken
// prefix — replay stops at the first bad frame.
func TestWALCorruptMidFileStopsPrefix(t *testing.T) {
	seedDir := t.TempDir()
	st, w, _, err := OpenStore(seedDir, walSchema(), 1, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fx := &walFixture{t: t, st: st, w: w}
	states := []map[int64]Tuple{snapshotTuples(st)}
	for k := int64(1); k <= 6; k++ {
		fx.insert(walTuple(k, interval.Interval{Lo: 0, Hi: 1}, 0, 0))
		states = append(states, snapshotTuples(st))
	}
	w.Close()

	logPath := filepath.Join(seedDir, logName(1, 0))
	full, _ := os.ReadFile(logPath)
	ends := []int{0}
	for off := 0; ; {
		_, next, ok := nextFrame(full, off)
		if !ok {
			break
		}
		ends = append(ends, next)
		off = next
	}
	// Flip a byte inside record 3's payload.
	mut := append([]byte(nil), full...)
	mut[ends[2]+10] ^= 0xff
	if err := os.WriteFile(logPath, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	rst, rw, ri, err := OpenStore(seedDir, walSchema(), 1, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	requireStoreEquals(t, rst, states[2], "mid-file corruption")
	if ri.TornTails != 1 || ri.RecordsReplayed != 2 {
		t.Fatalf("recovery info %+v, want 2 records then torn", ri)
	}
}

func TestWALCheckpointAndDeleteNotResurrected(t *testing.T) {
	dir := t.TempDir()
	st, w, _, err := OpenStore(dir, walSchema(), 4, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fx := &walFixture{t: t, st: st, w: w}
	for k := int64(1); k <= 30; k++ {
		fx.insert(walTuple(k, interval.Interval{Lo: 0, Hi: 4}, 0, 0))
	}
	if err := w.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint ops land in the new generation.
	fx.del(5)
	fx.refresh(6, []float64{6.5})
	tk, err := w.AppendDelete(7)
	if err != nil {
		t.Fatal(err)
	}
	st.Delete(7)
	if err := w.Commit(tk); err != nil {
		t.Fatal(err)
	}
	want := snapshotTuples(st)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Old-generation logs must be gone; one snapshot must exist.
	entries, _ := os.ReadDir(dir)
	snaps, logs := 0, 0
	for _, e := range entries {
		if _, ok := parseSnapName(e.Name()); ok {
			snaps++
		}
		if gen, _, ok := parseLogName(e.Name()); ok {
			logs++
			if gen <= 1 {
				t.Fatalf("stale log %s survived checkpoint", e.Name())
			}
		}
	}
	if snaps != 1 {
		t.Fatalf("%d snapshots after checkpoint", snaps)
	}
	if logs == 0 {
		t.Fatal("no live log generation")
	}

	st2, w2, ri, err := OpenStore(dir, walSchema(), 4, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if ri.SnapshotGen == 0 {
		t.Fatalf("snapshot not used: %+v", ri)
	}
	requireStoreEquals(t, st2, want, "checkpoint recovery")
	if _, ok := st2.Get(5); ok {
		t.Fatal("deleted key 5 resurrected")
	}
	if _, ok := st2.Get(7); ok {
		t.Fatal("deleted key 7 resurrected")
	}
}

// TestWALStaleGenerationIgnored simulates a crash between snapshot
// publish and cleanup: a log generation ≤ the snapshot's must never be
// replayed (it holds inserts whose later deletes the snapshot absorbed).
func TestWALStaleGenerationIgnored(t *testing.T) {
	dir := t.TempDir()
	st, w, _, err := OpenStore(dir, walSchema(), 1, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fx := &walFixture{t: t, st: st, w: w}
	fx.insert(walTuple(1, interval.Interval{Lo: 0, Hi: 1}, 0, 0))
	fx.insert(walTuple(2, interval.Interval{Lo: 0, Hi: 1}, 0, 0))
	fx.del(1)
	if err := w.Checkpoint(st); err != nil { // snapshot: {2} at gen 1; live log gen 2
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Resurrect the retired generation-1 log as if cleanup never ran: a
	// full copy of the records the snapshot absorbed.
	stale := appendFrame(nil, encodeInsert(nil, &Tuple{
		Key:      1,
		Bounds:   []interval.Interval{{Lo: 0, Hi: 1}, interval.Point(0), interval.Point(0)},
		Cost:     2,
		SourceID: "s1",
	}))
	if err := os.WriteFile(filepath.Join(dir, logName(1, 0)), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, w2, _, err := OpenStore(dir, walSchema(), 1, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if _, ok := st2.Get(1); ok {
		t.Fatal("stale generation replayed: deleted key 1 resurrected")
	}
	if _, ok := st2.Get(2); !ok {
		t.Fatal("snapshot tuple lost")
	}
	// Cleanup must have removed the stale file again.
	if _, err := os.Stat(filepath.Join(dir, logName(1, 0))); !os.IsNotExist(err) {
		t.Fatal("stale generation not cleaned on open")
	}
}

func TestWALTruncatedSnapshotFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	st, w, _, err := OpenStore(dir, walSchema(), 1, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fx := &walFixture{t: t, st: st, w: w}
	for k := int64(1); k <= 10; k++ {
		fx.insert(walTuple(k, interval.Interval{Lo: 0, Hi: 1}, 0, 0))
	}
	if err := w.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	w.Close()
	snapPath := filepath.Join(dir, snapName(1))
	b, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenStore(dir, walSchema(), 1, WALOptions{}); err == nil {
		t.Fatal("truncated snapshot recovered silently")
	}
}

func TestWALSnapshotTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	st, w, _, err := OpenStore(dir, walSchema(), 1, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fx := &walFixture{t: t, st: st, w: w}
	fx.insert(walTuple(1, interval.Interval{Lo: 0, Hi: 1}, 0, 0))
	want := snapshotTuples(st)
	w.Close()
	// A half-written snapshot temp from a crashed checkpoint.
	tmp := filepath.Join(dir, snapName(9)+".tmp")
	if err := os.WriteFile(tmp, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, w2, ri, err := OpenStore(dir, walSchema(), 1, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if ri.SnapshotGen != 0 {
		t.Fatalf("tmp snapshot trusted: %+v", ri)
	}
	requireStoreEquals(t, st2, want, "tmp ignored")
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("orphaned tmp not removed")
	}
}

func TestWALMetaMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	_, w, _, err := OpenStore(dir, walSchema(), 4, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, _, _, err := OpenStore(dir, walSchema(), 16, WALOptions{}); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	other := NewSchema(Column{Name: "x", Kind: Bounded})
	if _, _, _, err := OpenStore(dir, other, 4, WALOptions{}); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

// TestWALCorruptMetaRejected: a CRC-valid META whose schema has an
// unknown column kind or a repeated column name is corruption, reported
// as an error, not a schema mismatch or a panic.
func TestWALCorruptMetaRejected(t *testing.T) {
	for name, cols := range map[string][]byte{
		"unknown kind":  {1, 0, 1, 0, 'x', 7},
		"repeated name": {2, 0, 1, 0, 'x', 1, 1, 0, 'x', 0},
	} {
		dir := t.TempDir()
		payload := codec.AppendU16(codec.AppendU16(codec.AppendU32(nil, metaMagic), metaVersion), 1)
		meta := appendFrame(nil, append(payload, cols...))
		if err := os.WriteFile(filepath.Join(dir, "META"), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		schema := NewSchema(Column{Name: "x", Kind: Bounded})
		if _, _, _, err := OpenStore(dir, schema, 1, WALOptions{}); err == nil || !strings.Contains(err.Error(), "corrupt META") {
			t.Errorf("%s: open error %v, want a corrupt META", name, err)
		}
	}
}

// TestWALRefreshOfAbsentKeyLoud: a CRC-valid record whose effect cannot
// apply (a refresh for a key the ordered prefix never inserted) is
// corruption, not a tolerable tail.
func TestWALRefreshOfAbsentKeyLoud(t *testing.T) {
	dir := t.TempDir()
	_, w, _, err := OpenStore(dir, walSchema(), 1, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	frame := appendFrame(nil, encodeRefresh(nil, 42, []float64{1}))
	if err := os.WriteFile(filepath.Join(dir, logName(2, 0)), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenStore(dir, walSchema(), 1, WALOptions{}); err == nil {
		t.Fatal("refresh of absent key recovered silently")
	}
}

// TestWALGroupCommit: concurrent appenders committing through the shared
// fsync path all become durable, and the file carries every record.
func TestWALGroupCommit(t *testing.T) {
	dir := t.TempDir()
	st, w, _, err := OpenStore(dir, walSchema(), 4, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := int64(g*perG + i + 1)
				tu := walTuple(key, interval.Interval{Lo: 0, Hi: 1}, 0, 0)
				if err := st.Insert(tu); err != nil {
					errs <- err
					return
				}
				tk, err := w.AppendInsert(&tu)
				if err != nil {
					errs <- err
					return
				}
				if err := w.Commit(tk); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := snapshotTuples(st)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st2, w2, ri, err := OpenStore(dir, walSchema(), 4, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if ri.RecordsReplayed != goroutines*perG {
		t.Fatalf("replayed %d records, want %d", ri.RecordsReplayed, goroutines*perG)
	}
	requireStoreEquals(t, st2, want, "group commit")
}

// TestWALAutoCheckpoint: MaybeCheckpoint fires once the byte threshold
// is crossed and resets the counter.
func TestWALAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, w, _, err := OpenStore(dir, walSchema(), 2, WALOptions{CheckpointBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fx := &walFixture{t: t, st: st, w: w}
	for k := int64(1); k <= 50; k++ {
		fx.insert(walTuple(k, interval.Interval{Lo: 0, Hi: 1}, 0, 0))
		if err := w.MaybeCheckpoint(st); err != nil {
			t.Fatal(err)
		}
	}
	if w.Gen() < 2 {
		t.Fatalf("no automatic checkpoint fired (gen=%d)", w.Gen())
	}
	if w.LogBytes() >= 512+200 {
		t.Fatalf("byte counter not reset: %d", w.LogBytes())
	}
}

// TestReplayUpsertInPlace replays insert records for present and absent
// keys over a store whose rows carry promises. The in-place upsert must
// leave exactly the state a delete followed by an insert leaves: the same
// rows in the same order, bit-identical bounds, cost and owner, no
// promise on the overwritten rows, and the same ValueDigest.
func TestReplayUpsertInPlace(t *testing.T) {
	build := func() *Store {
		st := NewStore(walSchema(), 4)
		for k := int64(1); k <= 40; k++ {
			st.MustInsert(walTuple(k, interval.Interval{Lo: float64(k), Hi: float64(k) + 2}, float64(k%5), float64(k%3)))
		}
		for si := 0; si < st.NumShards(); si++ {
			st.UpdateShard(si, func(t *Table) bool {
				for i := 0; i < t.Len(); i++ {
					t.SetPromise(i, []boundfn.Bound{{Value: float64(i), Width: 1}}, int64(i+1))
				}
				return false
			})
		}
		return st
	}
	records := []Tuple{
		walTuple(7, interval.Interval{Lo: -3, Hi: 9}, 4, 1),
		walTuple(13, interval.Point(math.Copysign(0, -1)), 0, 2),
		walTuple(99, interval.Interval{Lo: 1, Hi: 5}, 2, 2),
		walTuple(7, interval.Interval{Lo: 0.5, Hi: 0.75}, 3, 0),
	}
	records[0].Cost, records[0].SourceID = 11.5, "moved"

	got, want := build(), build()
	for _, tu := range records {
		if err := applyRecord(got, encodeInsert(nil, &tu)); err != nil {
			t.Fatal(err)
		}
		want.Delete(tu.Key)
		want.MustInsert(tu.Clone())
	}
	if got.Len() != want.Len() || got.ValueDigest() != want.ValueDigest() {
		t.Fatalf("len %d digest %x, want len %d digest %x", got.Len(), got.ValueDigest(), want.Len(), want.ValueDigest())
	}
	bits := func(iv interval.Interval) [2]uint64 {
		return [2]uint64{math.Float64bits(iv.Lo), math.Float64bits(iv.Hi)}
	}
	for si := 0; si < got.NumShards(); si++ {
		got.ViewShard(si, func(g *Table) {
			want.ViewShard(si, func(w *Table) {
				if g.Len() != w.Len() {
					t.Fatalf("shard %d: %d rows, want %d", si, g.Len(), w.Len())
				}
				for i := 0; i < g.Len(); i++ {
					gt, wt := g.At(i), w.At(i)
					if gt.Key != wt.Key || math.Float64bits(gt.Cost) != math.Float64bits(wt.Cost) || gt.SourceID != wt.SourceID {
						t.Fatalf("shard %d row %d: %+v, want %+v", si, i, *gt, *wt)
					}
					for c := range gt.Bounds {
						if bits(gt.Bounds[c]) != bits(wt.Bounds[c]) {
							t.Fatalf("key %d column %d bound %v, want %v", gt.Key, c, gt.Bounds[c], wt.Bounds[c])
						}
					}
					if g.Seq(i) != w.Seq(i) || g.Promise(i)[0] != w.Promise(i)[0] {
						t.Fatalf("key %d promise %+v seq %d, want %+v seq %d", gt.Key, g.Promise(i)[0], g.Seq(i), w.Promise(i)[0], w.Seq(i))
					}
				}
			})
		})
	}
}
