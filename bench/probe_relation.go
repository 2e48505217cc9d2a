package main

import (
	"os"
	"path/filepath"
	"time"

	"trapp"
	"trapp/internal/relation"
)

// relationProbeTuples caps the scratch copy the relation probe works
// on, so the probe costs the same on every workload.
const relationProbeTuples = 20000

// dirBytes sums the sizes of the files in dir whose names end in suffix.
func dirBytes(dir, suffix string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == suffix {
			if fi, err := e.Info(); err == nil {
				n += fi.Size()
			}
		}
	}
	return n
}

// probeRelation drives the durable store directly — relation.OpenStore,
// WAL.AppendPush + Commit, Checkpoint, Close, reopen — on a scratch
// durable copy of up to relationProbeTuples of the workload's tuples.
// The append, checkpoint and recovery numbers use the benchmark's flush
// policy (SyncNever); wal_fsync_ns is a short SyncGroup run, reported as
// this sandbox's disk and never gated.
func probeRelation(sys *trapp.System, pop *population, outDir string, div int) (map[string]float64, error) {
	t := pop.tables[0]
	src := sys.MountedCache(t.name).Store()
	var tuples []relation.Tuple
	for _, i := range t.objs {
		if len(tuples) == relationProbeTuples {
			break
		}
		if tu, ok := src.Get(pop.keys[i]); ok {
			tuples = append(tuples, tu)
		}
	}
	// A push record carries one interval per bounded column.
	bcols := t.schema.BoundedColumns()
	pushIvs := func(tu *relation.Tuple) []trapp.Interval {
		ivs := make([]trapp.Interval, len(bcols))
		for j, col := range bcols {
			ivs[j] = tu.Bounds[col]
		}
		return ivs
	}
	pushes := make([][]trapp.Interval, len(tuples))
	for i := range tuples {
		pushes[i] = pushIvs(&tuples[i])
	}
	out := make(map[string]float64)

	dir, err := scratchDir(outDir, "relprobe")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, wal, _, err := relation.OpenStore(dir, t.schema, 0, relation.WALOptions(walOptions))
	if err != nil {
		return nil, err
	}
	for i := range tuples {
		tk, err := wal.AppendInsert(&tuples[i])
		if err == nil {
			err = wal.Commit(tk)
		}
		if err == nil {
			err = st.Insert(tuples[i].Clone())
		}
		if err != nil {
			return nil, err
		}
	}
	// Append + commit, the per-push WAL work.
	appends := 20000 / div
	before := wal.LogBytes()
	start := time.Now()
	for i := 0; i < appends; i++ {
		tk, err := wal.AppendPush(tuples[i%len(tuples)].Key, pushes[i%len(tuples)])
		if err == nil {
			err = wal.Commit(tk)
		}
		if err != nil {
			return nil, err
		}
	}
	out["relation.wal_append_ns"] = float64(time.Since(start)) / float64(appends)
	out["relation.wal_bytes_per_record"] = float64(wal.LogBytes()-before) / float64(appends)

	start = time.Now()
	if err := wal.Checkpoint(st); err != nil {
		return nil, err
	}
	out["relation.checkpoint_s"] = time.Since(start).Seconds()
	out["relation.checkpoints"] = 1
	out["relation.snapshot_bytes_per_object"] = float64(dirBytes(dir, ".snap")) / float64(len(tuples))

	// A log tail for recovery to replay over the snapshot.
	for i := 0; i < appends/4; i++ {
		if _, err := wal.AppendPush(tuples[i%len(tuples)].Key, pushes[i%len(tuples)]); err != nil {
			return nil, err
		}
	}
	if err := wal.Close(); err != nil {
		return nil, err
	}
	start = time.Now()
	st2, wal2, ri, err := relation.OpenStore(dir, t.schema, 0, relation.WALOptions(walOptions))
	if err != nil {
		return nil, err
	}
	rec := time.Since(start)
	_ = wal2.Close()
	if st2.ValueDigest() != st.ValueDigest() {
		return nil, errDigest
	}
	out["relation.recovery_s"] = rec.Seconds()
	out["relation.recovery_ns_per_record"] = float64(rec) / float64(max(1, ri.Tuples+ri.RecordsReplayed))

	// fsync cost: the same append under SyncGroup, in its own directory.
	fdir, err := scratchDir(outDir, "fsyncprobe")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(fdir)
	_, fwal, _, err := relation.OpenStore(fdir, t.schema, 0, relation.WALOptions{Sync: relation.SyncGroup})
	if err != nil {
		return nil, err
	}
	syncs := max(4, 40/div)
	start = time.Now()
	for i := 0; i < syncs; i++ {
		tk, err := fwal.AppendPush(tuples[i%len(tuples)].Key, pushes[i%len(tuples)])
		if err == nil {
			err = fwal.Commit(tk)
		}
		if err != nil {
			return nil, err
		}
	}
	out["relation.wal_fsync_ns"] = float64(time.Since(start)) / float64(syncs)
	return out, fwal.Close()
}
