package relation

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"trapp/internal/codec"
	"trapp/internal/interval"
)

// Write-ahead log and snapshot store for a sharded relation (DESIGN.md
// §15). The layout under a data directory is:
//
//	META                      schema + shard count, written once
//	wal-<gen>-<shard>.log     per-shard append-only record log
//	snap-<gen>.snap           compacted snapshot of the whole store
//
// Generations order the files: a snapshot at generation G captures every
// effect recorded in log generations ≤ G, so recovery loads the newest
// snapshot and replays only log generations strictly greater — never a
// generation the snapshot already covers (replaying one would resurrect
// tuples deleted after the snapshot's records were first applied).
// Every open starts a fresh generation, so a process never appends to a
// file that may carry a torn tail.
//
// Durability is per-shard group commit: appenders write whole frames
// under the shard's log mutex (one write syscall per record, so a crash
// of this process can never interleave half-frames; torn tails come only
// from the storage layer losing its own write-back, which recovery
// handles by trusting exactly the valid frame prefix), and Commit
// batches concurrent callers behind a single fsync.
//
// The lock order is: a caller may hold its own higher-level shard lock
// when appending (cache shard mutex → store shard lock → walShard.mu);
// nothing below walShard.mu is ever acquired while holding it, and
// Commit/Checkpoint are called with no caller locks held.

// SyncMode selects the durability level of Commit.
type SyncMode int

const (
	// SyncGroup (the default) makes Commit block until the record's frame
	// is fsynced, batching concurrent committers behind one fsync.
	SyncGroup SyncMode = iota
	// SyncNever writes frames but never fsyncs on Commit; a crash loses
	// the OS write-back window. Close still flushes.
	SyncNever
)

// DefaultCheckpointBytes is the default volume of appended log bytes
// between automatic checkpoints.
const DefaultCheckpointBytes = 4 << 20

// WALOptions configures OpenStore.
type WALOptions struct {
	// Sync selects Commit's durability (default SyncGroup).
	Sync SyncMode
	// CheckpointBytes is the appended-bytes threshold MaybeCheckpoint
	// fires at; ≤ 0 selects DefaultCheckpointBytes.
	CheckpointBytes int64
}

func (o WALOptions) checkpointBytes() int64 {
	if o.CheckpointBytes <= 0 {
		return DefaultCheckpointBytes
	}
	return o.CheckpointBytes
}

// Ticket identifies an appended record for Commit. The zero Ticket
// commits nothing.
type Ticket struct {
	shard int
	seq   uint64
}

// RecoverInfo summarizes what OpenStore reconstructed.
type RecoverInfo struct {
	// SnapshotGen is the generation of the snapshot loaded (0 = none).
	SnapshotGen uint64
	// LogsReplayed counts log files replayed after the snapshot.
	LogsReplayed int
	// RecordsReplayed counts records applied from those logs.
	RecordsReplayed int
	// TornTails counts log files that ended in a torn or corrupt frame;
	// each contributed exactly its valid prefix.
	TornTails int
	// TornBytes is the total length of the discarded tails.
	TornBytes int64
	// Tuples is the recovered store cardinality.
	Tuples int
}

// Recovered reports whether the open found any prior durable state.
func (ri RecoverInfo) Recovered() bool {
	return ri.SnapshotGen > 0 || ri.RecordsReplayed > 0
}

// WAL is the write-ahead log half of a durable store.
type WAL struct {
	dir     string
	opts    WALOptions
	schema  *Schema
	nshards int
	shift   uint

	mu  sync.Mutex // serializes Checkpoint/Close rotation
	gen uint64

	shards []walShard

	bytesSinceCkpt atomic.Int64
	checkpointing  atomic.Bool
	closed         atomic.Bool
}

// walShard is one shard's log file plus its group-commit state.
type walShard struct {
	mu      sync.Mutex
	cond    *sync.Cond
	f       *os.File
	scratch []byte // payload encode buffer
	frame   []byte // framed write buffer
	// writeSeq numbers appended records; syncedSeq is the highest seq
	// known durable. syncing marks an in-flight fsync so rotation and
	// other committers wait instead of racing it.
	writeSeq  uint64
	syncedSeq uint64
	syncing   bool
	// err is sticky: once a write or sync fails the shard's log is in an
	// unknown state and every later append/commit reports the failure.
	err error
}

func logName(gen uint64, shard int) string {
	return fmt.Sprintf("wal-%08d-%03d.log", gen, shard)
}

func snapName(gen uint64) string {
	return fmt.Sprintf("snap-%08d.snap", gen)
}

func parseLogName(name string) (gen uint64, shard int, ok bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, 0, false
	}
	if _, err := fmt.Sscanf(name, "wal-%08d-%03d.log", &gen, &shard); err != nil {
		return 0, 0, false
	}
	return gen, shard, true
}

func parseSnapName(name string) (gen uint64, ok bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	if _, err := fmt.Sscanf(name, "snap-%08d.snap", &gen); err != nil {
		return 0, false
	}
	return gen, true
}

// --- META file --------------------------------------------------------

const (
	metaMagic   = 0x54524150 // "TRAP"
	metaVersion = 1
)

func writeMeta(dir string, schema *Schema, nshards int) error {
	payload := codec.AppendU32(nil, metaMagic)
	payload = codec.AppendU16(payload, metaVersion)
	payload = codec.AppendU16(payload, uint16(nshards))
	payload = appendSchema(payload, schema)
	tmp := filepath.Join(dir, "META.tmp")
	if err := os.WriteFile(tmp, appendFrame(nil, payload), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, "META")); err != nil {
		return err
	}
	return syncDir(dir)
}

func readMeta(path string) (*Schema, int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	payload, next, ok := nextFrame(b, 0)
	if !ok || next != len(b) {
		return nil, 0, fmt.Errorf("relation: corrupt META file %s", path)
	}
	r := codec.NewReader(payload)
	magic := r.U32()
	version := r.U16()
	nshards := r.U16()
	if r.Err() == nil && magic != metaMagic {
		return nil, 0, fmt.Errorf("relation: %s is not a trapp data directory (bad magic)", path)
	}
	if r.Err() == nil && version != metaVersion {
		return nil, 0, fmt.Errorf("relation: META version %d, this build reads %d", version, metaVersion)
	}
	schema := decodeSchema(r)
	if err := r.Done(); err != nil {
		return nil, 0, fmt.Errorf("relation: corrupt META file %s: %w", path, err)
	}
	return schema, int(nshards), nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// --- open + recovery --------------------------------------------------

// OpenStore opens (or creates) a durable store in dir. It validates the
// META file against the requested schema and shard count, loads the
// newest snapshot, replays every newer log generation — trusting exactly
// the valid frame prefix of each file — and starts a fresh log
// generation for new appends.
//
// The recovered store's values are exact replicas of what was durable;
// its bounded columns carry whatever intervals were last logged, which a
// recovering cache must NOT serve from: stale promises cannot be
// trusted across a crash, so the owner re-widens or re-handshakes every
// bound before answering bounded queries (cache.RewidenRecovered).
func OpenStore(dir string, schema *Schema, nshards int, opts WALOptions) (*Store, *WAL, RecoverInfo, error) {
	var ri RecoverInfo
	nshards = shardCount(nshards)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, ri, err
	}

	metaPath := filepath.Join(dir, "META")
	if _, err := os.Stat(metaPath); err == nil {
		gotSchema, gotShards, err := readMeta(metaPath)
		if err != nil {
			return nil, nil, ri, err
		}
		if gotShards != nshards {
			return nil, nil, ri, fmt.Errorf("relation: data directory %s has %d shards, caller wants %d",
				dir, gotShards, nshards)
		}
		if !schemaEqual(gotSchema, schema) {
			return nil, nil, ri, fmt.Errorf("relation: data directory %s holds schema %v, caller wants %v",
				dir, gotSchema.ColumnNames(), schema.ColumnNames())
		}
	} else if os.IsNotExist(err) {
		if werr := writeMeta(dir, schema, nshards); werr != nil {
			return nil, nil, ri, werr
		}
	} else {
		return nil, nil, ri, err
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, ri, err
	}
	type logFile struct {
		gen   uint64
		shard int
		name  string
	}
	var logs []logFile
	var snapGen uint64
	var maxGen uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// Orphaned temporary from an interrupted snapshot or META
			// write; never trusted, always discarded.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if gen, shard, ok := parseLogName(name); ok {
			logs = append(logs, logFile{gen, shard, name})
			if gen > maxGen {
				maxGen = gen
			}
			continue
		}
		if gen, ok := parseSnapName(name); ok {
			if gen > snapGen {
				snapGen = gen
			}
			if gen > maxGen {
				maxGen = gen
			}
		}
	}

	st := NewStore(schema, nshards)
	if snapGen > 0 {
		// A visible .snap was published atomically (write-tmp, fsync,
		// rename), so damage here is real corruption: fail loudly rather
		// than silently serving an older state.
		n, err := loadSnapshot(st, filepath.Join(dir, snapName(snapGen)))
		if err != nil {
			return nil, nil, ri, err
		}
		ri.SnapshotGen = snapGen
		_ = n
	}

	// Replay newer generations in (gen, shard) order. Records for one key
	// always live in one shard's files, so cross-shard order within a
	// generation is immaterial; generations are strictly time-ordered.
	sort.Slice(logs, func(i, j int) bool {
		if logs[i].gen != logs[j].gen {
			return logs[i].gen < logs[j].gen
		}
		return logs[i].shard < logs[j].shard
	})
	for _, lf := range logs {
		if lf.gen <= snapGen {
			continue // covered by the snapshot; replaying would resurrect deletes
		}
		if lf.shard >= nshards {
			return nil, nil, ri, fmt.Errorf("relation: log %s names shard %d but store has %d",
				lf.name, lf.shard, nshards)
		}
		nrec, torn, tornBytes, err := replayLog(st, filepath.Join(dir, lf.name))
		if err != nil {
			return nil, nil, ri, err
		}
		ri.LogsReplayed++
		ri.RecordsReplayed += nrec
		if torn {
			ri.TornTails++
			ri.TornBytes += tornBytes
		}
	}
	ri.Tuples = st.Len()

	// Delete files the snapshot supersedes (left over when a crash landed
	// between snapshot publish and cleanup).
	for _, lf := range logs {
		if lf.gen <= snapGen {
			os.Remove(filepath.Join(dir, lf.name))
		}
	}
	for _, e := range entries {
		if gen, ok := parseSnapName(e.Name()); ok && gen < snapGen {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}

	// New appends always go to a generation no prior process touched, so
	// a torn tail can never gain valid-looking frames after it.
	w := &WAL{
		dir:     dir,
		opts:    opts,
		schema:  schema,
		nshards: nshards,
		gen:     maxGen + 1,
		shards:  make([]walShard, nshards),
	}
	shift := uint(64)
	for s := 1; s < nshards; s <<= 1 {
		shift--
	}
	w.shift = shift
	for i := range w.shards {
		sh := &w.shards[i]
		sh.cond = sync.NewCond(&sh.mu)
		f, err := os.OpenFile(filepath.Join(dir, logName(w.gen, i)),
			os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			for j := 0; j < i; j++ {
				w.shards[j].f.Close()
			}
			return nil, nil, ri, err
		}
		sh.f = f
	}
	if err := syncDir(dir); err != nil {
		for i := range w.shards {
			w.shards[i].f.Close()
		}
		return nil, nil, ri, err
	}
	return st, w, ri, nil
}

// loadSnapshot replays a snapshot file into an empty store. Snapshots
// are published atomically, so any defect — torn frame, missing trailer,
// count mismatch — is corruption and fails loudly.
func loadSnapshot(st *Store, path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	n := 0
	for off := 0; ; {
		payload, next, ok := nextFrame(b, off)
		switch {
		case !ok && off == len(b):
			return n, fmt.Errorf("relation: corrupt snapshot %s: missing trailer", path)
		case !ok:
			return n, fmt.Errorf("relation: corrupt snapshot %s: torn frame at offset %d", path, off)
		}
		off = next
		if len(payload) > 0 && payload[0] == recSnapEnd {
			r := codec.NewReader(payload[1:])
			count := r.U64()
			if err := r.Done(); err != nil {
				return n, fmt.Errorf("relation: corrupt snapshot %s: trailer: %w", path, err)
			}
			if int(count) != n {
				return n, fmt.Errorf("relation: corrupt snapshot %s: trailer says %d tuples, holds %d",
					path, count, n)
			}
			if off != len(b) {
				return n, fmt.Errorf("relation: corrupt snapshot %s: %d bytes after trailer", path, len(b)-off)
			}
			return n, nil
		}
		if err := applyRecord(st, payload); err != nil {
			return n, fmt.Errorf("relation: snapshot %s: %w", path, err)
		}
		n++
	}
}

// replayLog applies a log file's valid frame prefix to the store. A torn
// or corrupt frame ends the file — everything before it is exactly the
// durable prefix — but a record that decodes yet cannot apply is real
// corruption and errors out.
func replayLog(st *Store, path string) (nrec int, torn bool, tornBytes int64, err error) {
	b, rerr := os.ReadFile(path)
	if rerr != nil {
		return 0, false, 0, rerr
	}
	for off := 0; ; {
		payload, next, ok := nextFrame(b, off)
		if !ok {
			return nrec, off != len(b), int64(len(b) - off), nil
		}
		if err := applyRecord(st, payload); err != nil {
			return nrec, false, 0, fmt.Errorf("relation: log %s record %d: %w", path, nrec, err)
		}
		nrec++
		off = next
	}
}

// --- appends ----------------------------------------------------------

func (w *WAL) shardOf(key int64) int {
	return int((uint64(key) * fibMult) >> w.shift)
}

// append frames the payload already encoded in sh.scratch and writes it
// with a single syscall. Caller must hold sh.mu.
func (w *WAL) appendLocked(si int, sh *walShard) (Ticket, error) {
	if sh.err != nil {
		return Ticket{}, sh.err
	}
	sh.frame = appendFrame(sh.frame[:0], sh.scratch)
	if _, err := sh.f.Write(sh.frame); err != nil {
		sh.err = fmt.Errorf("relation: wal shard %d append: %w", si, err)
		return Ticket{}, sh.err
	}
	sh.writeSeq++
	w.bytesSinceCkpt.Add(int64(len(sh.frame)))
	return Ticket{shard: si, seq: sh.writeSeq}, nil
}

func (w *WAL) appendRecord(key int64, enc func(dst []byte) []byte) (Ticket, error) {
	if w.closed.Load() {
		return Ticket{}, fmt.Errorf("relation: wal is closed")
	}
	si := w.shardOf(key)
	sh := &w.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.scratch = enc(sh.scratch[:0])
	return w.appendLocked(si, sh)
}

// AppendInsert logs a full-tuple upsert.
func (w *WAL) AppendInsert(tu *Tuple) (Ticket, error) {
	return w.appendRecord(tu.Key, func(dst []byte) []byte { return encodeInsert(dst, tu) })
}

// AppendDelete logs a key removal.
func (w *WAL) AppendDelete(key int64) (Ticket, error) {
	return w.appendRecord(key, func(dst []byte) []byte { return encodeDelete(dst, key) })
}

// AppendRefresh logs a query-initiated refresh install: the bounded
// columns' exact master values, in schema order.
func (w *WAL) AppendRefresh(key int64, exact []float64) (Ticket, error) {
	return w.appendRecord(key, func(dst []byte) []byte { return encodeRefresh(dst, key, exact) })
}

// AppendPush logs a value-initiated refresh: the materialized interval
// for every bounded column, in schema order.
func (w *WAL) AppendPush(key int64, ivs []interval.Interval) (Ticket, error) {
	return w.appendRecord(key, func(dst []byte) []byte { return encodePush(dst, key, ivs) })
}

// AppendBoundSet logs a single column's bound replacement.
func (w *WAL) AppendBoundSet(key int64, col int, iv interval.Interval) (Ticket, error) {
	return w.appendRecord(key, func(dst []byte) []byte { return encodeBoundSet(dst, key, col, iv) })
}

// Commit blocks until the ticketed record is durable (SyncGroup).
// Concurrent committers on one shard batch behind a single fsync: the
// first becomes the syncer, captures the current write frontier, syncs
// outside the lock, then advances syncedSeq past everyone who appended
// before the sync started. Call with no higher-level locks held.
func (w *WAL) Commit(t Ticket) error {
	if t.seq == 0 {
		return nil
	}
	sh := &w.shards[t.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if w.opts.Sync == SyncNever {
		return sh.err
	}
	for sh.err == nil && sh.syncedSeq < t.seq {
		if sh.syncing {
			sh.cond.Wait()
			continue
		}
		sh.syncing = true
		flushTo := sh.writeSeq
		f := sh.f
		sh.mu.Unlock()
		err := f.Sync()
		sh.mu.Lock()
		sh.syncing = false
		if err != nil && sh.err == nil {
			sh.err = fmt.Errorf("relation: wal shard %d sync: %w", t.shard, err)
		}
		if sh.err == nil && flushTo > sh.syncedSeq {
			sh.syncedSeq = flushTo
		}
		sh.cond.Broadcast()
	}
	return sh.err
}

// --- checkpointing ----------------------------------------------------

// MaybeCheckpoint runs Checkpoint when enough log bytes have accumulated
// since the last one. Cheap when below threshold; safe to call from any
// commit path holding no locks.
func (w *WAL) MaybeCheckpoint(st *Store) error {
	if w.bytesSinceCkpt.Load() < w.opts.checkpointBytes() {
		return nil
	}
	return w.Checkpoint(st)
}

// Checkpoint compacts the log: it rotates every shard to a new log
// generation, writes a snapshot of the store published under the retired
// generation's number, then deletes the files the snapshot supersedes.
// Appends continue throughout — a record that lands in the new
// generation before its store effect is read by the snapshot is simply
// replayed over the snapshot on recovery, converging because records
// carry their full effect. Returns nil without working if another
// checkpoint is in flight.
func (w *WAL) Checkpoint(st *Store) error {
	if !w.checkpointing.CompareAndSwap(false, true) {
		return nil
	}
	defer w.checkpointing.Store(false)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed.Load() {
		return fmt.Errorf("relation: wal is closed")
	}

	oldGen := w.gen
	newGen := w.gen + 1
	for i := range w.shards {
		sh := &w.shards[i]
		sh.mu.Lock()
		for sh.syncing {
			sh.cond.Wait()
		}
		err := sh.err
		if err == nil {
			err = sh.f.Sync()
		}
		if err == nil {
			err = sh.f.Close()
		}
		var nf *os.File
		if err == nil {
			nf, err = os.OpenFile(filepath.Join(w.dir, logName(newGen, i)),
				os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		}
		if err != nil {
			if sh.err == nil {
				sh.err = fmt.Errorf("relation: wal shard %d rotate: %w", i, err)
			}
			err = sh.err
			sh.mu.Unlock()
			return err
		}
		sh.f = nf
		sh.syncedSeq = sh.writeSeq
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
	w.gen = newGen

	if err := w.writeSnapshot(st, oldGen); err != nil {
		return err
	}
	w.bytesSinceCkpt.Store(0)

	// The snapshot supersedes every log generation ≤ oldGen and every
	// older snapshot. Deletion failures are harmless (cleaned next open).
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return nil
	}
	for _, e := range entries {
		if gen, _, ok := parseLogName(e.Name()); ok && gen <= oldGen {
			os.Remove(filepath.Join(w.dir, e.Name()))
		} else if gen, ok := parseSnapName(e.Name()); ok && gen < oldGen {
			os.Remove(filepath.Join(w.dir, e.Name()))
		}
	}
	return nil
}

// writeSnapshot publishes a snapshot of the store atomically: stream to
// a temporary, fsync, rename into place, fsync the directory.
func (w *WAL) writeSnapshot(st *Store, gen uint64) error {
	final := filepath.Join(w.dir, snapName(gen))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	var scratch []byte
	count := 0
	werr := func() error {
		for i := 0; i < st.NumShards(); i++ {
			var err error
			st.ViewShard(i, func(t *Table) {
				for j := 0; j < t.Len(); j++ {
					scratch = encodeInsert(scratch[:0], t.At(j))
					if _, err = bw.Write(appendFrame(nil, scratch)); err != nil {
						return
					}
					count++
				}
			})
			if err != nil {
				return err
			}
		}
		scratch = append(scratch[:0], recSnapEnd)
		scratch = codec.AppendU64(scratch, uint64(count))
		if _, err := bw.Write(appendFrame(nil, scratch)); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("relation: snapshot %s: %w", final, werr)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(w.dir)
}

// Close flushes and closes every shard log. Appends after Close fail.
func (w *WAL) Close() error {
	if !w.closed.CompareAndSwap(false, true) {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var first error
	for i := range w.shards {
		sh := &w.shards[i]
		sh.mu.Lock()
		for sh.syncing {
			sh.cond.Wait()
		}
		if sh.f != nil {
			if err := sh.f.Sync(); err != nil && first == nil {
				first = err
			}
			if err := sh.f.Close(); err != nil && first == nil {
				first = err
			}
			sh.f = nil
		}
		if sh.err == nil {
			sh.err = fmt.Errorf("relation: wal is closed")
		}
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
	return first
}

// Dir returns the data directory path.
func (w *WAL) Dir() string { return w.dir }

// Gen returns the current log generation (for tests and health surfaces).
func (w *WAL) Gen() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gen
}

// LogBytes returns the bytes appended since the last checkpoint.
func (w *WAL) LogBytes() int64 { return w.bytesSinceCkpt.Load() }

var _ io.Closer = (*WAL)(nil)
