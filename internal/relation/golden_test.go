package relation

// Golden disk bytes: every WAL record kind, a META file and a snapshot
// (with its trailer), pinned as hex. The literals were written by the
// codec the format shipped with; a change to any of them is a format
// change and must bump metaVersion.

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"trapp/internal/interval"
)

var goldenRecords = []struct{ kind, hex string }{
	{"insert", "470000009bca83fe010700000000000000000000000000f03f020073310300000000000000f8bf00000000000002400000000000000840000000000000084000000000000010400000000000001040"},
	{"insert", "470000002cf59bb701090000000000000000000000000008400200733003000000000000002440000000000000284000000000000000000000000000000000000000000000f03f000000000000f03f"},
	{"refresh", "13000000457a73570307000000000000000100000000000000e83f"},
	{"push", "1b0000005a3ca2fd040900000000000000010000000000000025400000000000002740"},
	{"boundset", "1b0000006397c4a90507000000000000000000000000000000e03f000000000000f03f"},
	{"delete", "090000000327b0d7020900000000000000"},
}

const (
	goldenMeta = "200000008c70f8e35041525401000100030007006c6174656e637901040066726f6d000200746f00"
	goldenSnap = "47000000c00b2995010700000000000000000000000000f03f020073310300000000000000e03f000000000000f03f000000000000084000000000000008400000000000001040000000000000104009000000ba6db959060100000000000000"
)

func TestDiskBytesGolden(t *testing.T) {
	dir := t.TempDir()
	st, w, _, err := OpenStore(dir, walSchema(), 1, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fx := &walFixture{t: t, st: st, w: w}
	ops := []func(){
		func() { fx.insert(walTuple(7, interval.Interval{Lo: -1.5, Hi: 2.25}, 3, 4)) },
		func() { fx.insert(walTuple(9, interval.Interval{Lo: 10, Hi: 12}, 0, 1)) },
		func() { fx.refresh(7, []float64{0.75}) },
		func() { fx.push(9, []interval.Interval{{Lo: 10.5, Hi: 11.5}}) },
		func() { fx.boundSet(7, 0, interval.Interval{Lo: 0.5, Hi: 1}) },
		func() { fx.del(9) },
	}
	logPath := filepath.Join(dir, logName(1, 0))
	seen := 0
	var log []byte
	for i, op := range ops {
		op()
		b, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b[seen:]); got != goldenRecords[i].hex {
			t.Errorf("%s record %d:\n got %s\nwant %s", goldenRecords[i].kind, i, got, goldenRecords[i].hex)
		}
		seen, log = len(b), b
	}
	want := snapshotTuples(st)
	if err := w.Checkpoint(st); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct{ name, hex string }{{"META", goldenMeta}, {snapName(1), goldenSnap}} {
		b, err := os.ReadFile(filepath.Join(dir, f.name))
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != f.hex {
			t.Errorf("%s:\n got %s\nwant %s", f.name, got, f.hex)
		}
	}

	// The pinned bytes also read back: the log alone, and the snapshot
	// alone, each recover the store the operations left.
	meta, _ := hex.DecodeString(goldenMeta)
	snap, _ := hex.DecodeString(goldenSnap)
	for name, files := range map[string]map[string][]byte{
		"log":      {"META": meta, logName(1, 0): log},
		"snapshot": {"META": meta, snapName(1): snap},
	} {
		rdir := t.TempDir()
		for f, b := range files {
			if err := os.WriteFile(filepath.Join(rdir, f), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rst, rw, _, err := OpenStore(rdir, walSchema(), 1, WALOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireStoreEquals(t, rst, want, name)
		rw.Close()
	}
}
