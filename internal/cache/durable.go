package cache

import (
	"fmt"
	"slices"

	"trapp/internal/interval"
	"trapp/internal/netsim"
	"trapp/internal/relation"
	"trapp/internal/source"
)

// Durable caches: a cache whose mastered state — membership, exact
// values, refresh installs — survives process death through the
// relation layer's write-ahead log and snapshots (DESIGN.md §15).
//
// The recovery invariant is asymmetric on purpose. Values are replayed
// bit-identically: they are replicas of master data and the log records
// carry them exactly. Bounds are NOT trusted across a crash: a bound is
// a live promise from a source ("the master value stays within this
// interval, refreshed at this cadence"), and a process that was dead for
// an unknown interval holds promises of unknown staleness. Serving a
// bounded answer from them could fabricate precision the system no
// longer has — the one sin a TRAPP cache must never commit. So every
// recovered tuple's bounded columns are reset to interval.Unbounded (the
// conservative floor) before the cache serves anything, and precision is
// re-earned per object: Rehandshake re-subscribes an object with its
// source and installs a fresh promise; objects left unattached stay at
// the floor, where every answer that touches them is still correct,
// merely maximally imprecise.

// Recovery describes what a durable open reconstructed, for health
// surfaces and the recovery e2e.
type Recovery struct {
	relation.RecoverInfo
	// Rewidened counts tuples whose bounded columns were reset to the
	// conservative floor (every recovered tuple with at least one bounded
	// column).
	Rewidened int
}

// OpenDurable opens (or creates) a durable cache backed by the data
// directory, with the default shard count.
func OpenDurable(id string, clock *netsim.Clock, schema *relation.Schema, dir string, opts relation.WALOptions) (*Cache, Recovery, error) {
	return OpenDurableSharded(id, clock, schema, 0, dir, opts)
}

// OpenDurableSharded is OpenDurable with an explicit shard count. The
// shard count and schema are validated against the directory's META
// file; recovery replays the newest snapshot plus every newer log
// generation, then re-widens all recovered bounds.
func OpenDurableSharded(id string, clock *netsim.Clock, schema *relation.Schema, nshards int, dir string, opts relation.WALOptions) (*Cache, Recovery, error) {
	st, w, ri, err := relation.OpenStore(dir, schema, nshards, opts)
	if err != nil {
		return nil, Recovery{}, err
	}
	c := newCache(id, clock, st, w)
	rec := Recovery{RecoverInfo: ri, Rewidened: c.rewidenRecovered()}
	c.rewidened = rec.Rewidened
	return c, rec, nil
}

// rewidenRecovered resets every bounded column of every tuple to the
// unbounded interval — the conservative floor recovered promises are
// collapsed to — and returns the number of tuples touched.
func (c *Cache) rewidenRecovered() int {
	bcols := c.store.Schema().BoundedColumns()
	if len(bcols) == 0 {
		return 0
	}
	n := 0
	for si := 0; si < c.store.NumShards(); si++ {
		c.store.UpdateShard(si, func(t *relation.Table) bool {
			for i := 0; i < t.Len(); i++ {
				tu := t.At(i)
				for _, col := range bcols {
					tu.Bounds[col] = interval.Unbounded
				}
				n++
			}
			return true
		})
	}
	return n
}

// Rehandshake re-attaches a recovered object to its source: it
// re-subscribes (the source replaces any stale registration for this
// cache), installs the fresh promise's bounds over the floor, refreshes
// the tuple's cost and owner, and logs the whole tuple so the next
// recovery needs no handshake history. The exact columns keep their
// recovered values — they are the durable replica being re-covered, not
// re-fetched. Returns an error if the key is not cached.
func (c *Cache) Rehandshake(src *source.Source, key int64) error {
	if err := c.attach(src); err != nil {
		return err
	}
	r, err := src.Subscribe(key, c)
	if err != nil {
		return err
	}
	cost, _ := src.Cost(key)
	bcols := c.store.Schema().BoundedColumns()
	if len(r.Values) != len(bcols) {
		return fmt.Errorf("cache %s: rehandshake source sent %d values, schema has %d bounded columns",
			c.id, len(r.Values), len(bcols))
	}
	sh, si := c.shardFor(key)
	sh.mu.Lock()
	now := c.clock.Now()
	var logged relation.Tuple
	ok := c.store.Update(key, func(t *relation.Table, i int) {
		tu := t.At(i)
		tu.Cost = cost
		tu.SourceID = src.ID()
		for j, col := range bcols {
			tu.Bounds[col] = r.Bounds[j].At(now)
		}
		t.SetPromise(i, r.Bounds, r.Seq)
		logged = tu.Clone()
	})
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("cache %s: rehandshake for uncached key %d", c.id, key)
	}
	tk := c.logInsert(&logged)
	sh.dirty = append(sh.dirty, key)
	sh.mu.Unlock()
	if err := c.commitWAL(tk); err != nil {
		return err
	}
	c.notify(Event{Kind: RefreshApplied, Key: key, Shard: si, Refresh: source.ValueInitiated})
	return nil
}

// Unattached returns, in ascending order, the cached keys with no live
// source attachment — after recovery, exactly the objects still at the
// conservative floor awaiting Rehandshake.
func (c *Cache) Unattached() []int64 {
	var out []int64
	for si := 0; si < c.store.NumShards(); si++ {
		c.store.ViewShard(si, func(t *relation.Table) {
			for i := 0; i < t.Len(); i++ {
				if !t.HasPromise(i) {
					out = append(out, t.At(i).Key)
				}
			}
		})
	}
	slices.Sort(out)
	return out
}

// Rewidened returns the number of tuples re-widened at recovery.
func (c *Cache) Rewidened() int { return c.rewidened }

// Durable reports whether the cache writes a WAL.
func (c *Cache) Durable() bool { return c.wal != nil }

// WAL exposes the cache's log for health surfaces; nil for in-memory
// caches.
func (c *Cache) WAL() *relation.WAL { return c.wal }

// Checkpoint forces a log compaction (rotate + snapshot). No-op for
// in-memory caches.
func (c *Cache) Checkpoint() error {
	if c.wal == nil {
		return nil
	}
	return c.wal.Checkpoint(c.store)
}

// CloseWAL flushes and closes the log. The cache remains readable;
// further mutations will latch a WAL error.
func (c *Cache) CloseWAL() error {
	if c.wal == nil {
		return nil
	}
	return c.wal.Close()
}

// WALHealth returns the first latched WAL failure, if any.
func (c *Cache) WALHealth() error {
	if p := c.walErr.Load(); p != nil {
		return *p
	}
	return nil
}

func (c *Cache) latchWALError(err error) {
	if err == nil {
		return
	}
	c.walErr.CompareAndSwap(nil, &err)
}

// --- append/commit helpers used by cache.go's mutation paths ---------
// All log* helpers are called with the key's shard state mutex held,
// immediately after the matching store write, so the per-shard log
// order equals the table's mutation order. commitWAL is called after
// the mutex is released; it blocks for group commit and opportunistically
// triggers a checkpoint when the log has grown past the threshold.

func (c *Cache) logInsert(tu *relation.Tuple) relation.Ticket {
	if c.wal == nil {
		return relation.Ticket{}
	}
	tk, err := c.wal.AppendInsert(tu)
	c.latchWALError(err)
	return tk
}

func (c *Cache) logDelete(key int64) relation.Ticket {
	if c.wal == nil {
		return relation.Ticket{}
	}
	tk, err := c.wal.AppendDelete(key)
	c.latchWALError(err)
	return tk
}

func (c *Cache) logRefresh(key int64, exact []float64) relation.Ticket {
	if c.wal == nil {
		return relation.Ticket{}
	}
	tk, err := c.wal.AppendRefresh(key, exact)
	c.latchWALError(err)
	return tk
}

func (c *Cache) logPush(key int64, ivs []interval.Interval) relation.Ticket {
	if c.wal == nil {
		return relation.Ticket{}
	}
	tk, err := c.wal.AppendPush(key, ivs)
	c.latchWALError(err)
	return tk
}

func (c *Cache) commitWAL(tk relation.Ticket) error {
	if c.wal == nil {
		return nil
	}
	if err := c.wal.Commit(tk); err != nil {
		return err
	}
	if err := c.wal.MaybeCheckpoint(c.store); err != nil {
		c.latchWALError(err)
	}
	return nil
}
