package experiment

// The links workload the servers, the examples and the cluster tests
// build: a generated Figure-2 style monitoring network, links spread
// round-robin across the sources, one cache mounted as "links".
// BuildLinkSystem is the single-node system; BuildLinkPartitions splits
// the exact same network across N embedded systems by consistent hash of
// the tuple key — each partition holds only the links whose canonical
// buckets the ring assigns to it, while every partition runs the full
// source set so the link→source mapping is position-stable. A
// coordinator over the partitions answers bit-identically to the single
// system built from the same parameters, which is what the cluster
// differential tests assert. The Durable variants build the same systems
// over a WAL + snapshot data directory.

import (
	"fmt"
	"math/rand"

	"trapp/internal/aggregate"
	"trapp/internal/boundfn"
	"trapp/internal/cache"
	"trapp/internal/partition"
	"trapp/internal/predicate"
	"trapp/internal/query"
	"trapp/internal/refresh"
	"trapp/internal/relation"
	"trapp/internal/trapp"
	"trapp/internal/workload"
)

// BuildLinkSystem builds a System over a generated monitoring network:
// links spread round-robin across srcCount sources, one cache mounted as
// "links". It returns the system and the generated network (whose Links
// drive updates). cmd/trappserver serves it, and the cluster
// differential tests use it as the single-node reference.
func BuildLinkSystem(links, srcCount int, seed int64) (*trapp.System, *workload.Network, error) {
	net, err := workload.NewNetwork(max(2, links/8), links, seed)
	if err != nil {
		return nil, nil, err
	}
	// The density greedy keeps CHOOSE_REFRESH O(n log n): a served system
	// answering unmet SUM/AVG instances must not run the exact knapsack's
	// pseudo-polynomial DP per request.
	sys := trapp.NewSystem(refresh.Options{Solver: refresh.SolverGreedyDensity})
	c, err := sys.AddCache("monitor", workload.LinkSchema())
	if err != nil {
		return nil, nil, err
	}
	for si := 0; si < srcCount; si++ {
		if _, err := sys.AddSource(fmt.Sprintf("s%d", si), nil); err != nil {
			return nil, nil, err
		}
	}
	for i, l := range net.Links {
		src := sys.Source(fmt.Sprintf("s%d", i%srcCount))
		// Links promise converged near-zero-width bounds — the demand-
		// converged push regime (§8.1, DESIGN.md §8) in which a source
		// pushes once per real change.
		if err := src.AddObject(l.Key, l.Values(), l.Cost, boundfn.StaticWidth(0.5)); err != nil {
			return nil, nil, err
		}
		if err := c.Subscribe(src, l.Key, []float64{float64(l.From), float64(l.To)}); err != nil {
			return nil, nil, err
		}
	}
	if err := sys.Mount("links", c); err != nil {
		return nil, nil, err
	}
	return sys, net, nil
}

// BuildLinkSystemDurable is BuildLinkSystem over a durable cache: the
// "links" table is backed by a WAL + snapshot data directory, so a
// process restarted against the same directory recovers the cached
// values bit-identically. The builder mirrors the in-memory construction
// exactly — same network generator, same sources, same width policy —
// but cached keys found in the directory are re-handshaked with their
// source (fresh bound promises over the recovered values) instead of
// re-subscribed, which would have rebuilt the state trivially and hidden
// recovery bugs. Keys the regenerated workload no longer contains are
// dropped, so the mounted table always matches the workload either way.
func BuildLinkSystemDurable(links, srcCount int, seed int64, dir string, opts relation.WALOptions) (*trapp.System, *workload.Network, cache.Recovery, error) {
	net, err := workload.NewNetwork(max(2, links/8), links, seed)
	if err != nil {
		return nil, nil, cache.Recovery{}, err
	}
	sys := trapp.NewSystem(refresh.Options{Solver: refresh.SolverGreedyDensity})
	c, rec, err := sys.AddDurableCache("monitor", workload.LinkSchema(), dir, opts)
	if err != nil {
		return nil, nil, cache.Recovery{}, err
	}
	for si := 0; si < srcCount; si++ {
		if _, err := sys.AddSource(fmt.Sprintf("s%d", si), nil); err != nil {
			return nil, nil, rec, err
		}
	}
	live := make(map[int64]bool, len(net.Links))
	for i, l := range net.Links {
		live[l.Key] = true
		src := sys.Source(fmt.Sprintf("s%d", i%srcCount))
		if err := src.AddObject(l.Key, l.Values(), l.Cost, boundfn.StaticWidth(0.5)); err != nil {
			return nil, nil, rec, err
		}
		if _, ok := c.Store().Get(l.Key); ok {
			continue // recovered from disk; re-attached below
		}
		if err := c.Subscribe(src, l.Key, []float64{float64(l.From), float64(l.To)}); err != nil {
			return nil, nil, rec, err
		}
	}
	// Recovered keys the regenerated workload no longer has are dropped;
	// the rest re-earn their precision through a fresh handshake.
	for _, key := range c.Unattached() {
		if !live[key] {
			c.Drop(key)
		}
	}
	if _, err := sys.Rehandshake(c); err != nil {
		return nil, nil, rec, err
	}
	if err := sys.Mount("links", c); err != nil {
		return nil, nil, rec, err
	}
	return sys, net, rec, nil
}

// BuildLinkPartitions builds one embedded System per id, together
// holding exactly the tuples of BuildLinkSystem(links, srcCount, seed):
// tuple placement follows the rendezvous ring over ids. The returned
// network is the generator whose Links drive updates — push a link's
// value to the partition the ring assigns its key.
func BuildLinkPartitions(links, srcCount int, seed int64, ids []string) ([]*trapp.System, *workload.Network, *partition.Ring, error) {
	ring, err := partition.NewRing(ids)
	if err != nil {
		return nil, nil, nil, err
	}
	netw, err := workload.NewNetwork(max(2, links/8), links, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	systems := make([]*trapp.System, len(ids))
	fail := func(err error) ([]*trapp.System, *workload.Network, *partition.Ring, error) {
		for _, s := range systems {
			if s != nil {
				s.Close()
			}
		}
		return nil, nil, nil, err
	}
	for pi := range ids {
		sys := trapp.NewSystem(refresh.Options{Solver: refresh.SolverGreedyDensity})
		systems[pi] = sys
		c, err := sys.AddCache("monitor", workload.LinkSchema())
		if err != nil {
			return fail(err)
		}
		// Every partition runs all srcCount sources so link i maps to
		// source s{i%srcCount} exactly as in the single system; each
		// source just holds fewer objects here.
		for si := 0; si < srcCount; si++ {
			if _, err := sys.AddSource(fmt.Sprintf("s%d", si), nil); err != nil {
				return fail(err)
			}
		}
		for i, l := range netw.Links {
			if ring.OwnerOfKey(l.Key) != pi {
				continue
			}
			src := sys.Source(fmt.Sprintf("s%d", i%srcCount))
			if err := src.AddObject(l.Key, l.Values(), l.Cost, boundfn.StaticWidth(0.5)); err != nil {
				return fail(err)
			}
			if err := c.Subscribe(src, l.Key, []float64{float64(l.From), float64(l.To)}); err != nil {
				return fail(err)
			}
		}
		if err := sys.Mount("links", c); err != nil {
			return fail(err)
		}
	}
	return systems, netw, ring, nil
}

// BuildLinkPartitionDurable builds partition pi of the N-way link
// cluster (the same placement as BuildLinkPartitions) over a durable
// cache. Each partition server owns its own data directory, so a
// restarted node recovers exactly its shard of the tuples — values
// bit-identical, bounds re-earned through the handshake — and the
// coordinator's scatter-gather answers stay correct across the restart.
func BuildLinkPartitionDurable(links, srcCount int, seed int64, ids []string, pi int, dir string, opts relation.WALOptions) (*trapp.System, *workload.Network, *partition.Ring, cache.Recovery, error) {
	ring, err := partition.NewRing(ids)
	if err != nil {
		return nil, nil, nil, cache.Recovery{}, err
	}
	netw, err := workload.NewNetwork(max(2, links/8), links, seed)
	if err != nil {
		return nil, nil, nil, cache.Recovery{}, err
	}
	sys := trapp.NewSystem(refresh.Options{Solver: refresh.SolverGreedyDensity})
	c, rec, err := sys.AddDurableCache("monitor", workload.LinkSchema(), dir, opts)
	if err != nil {
		return nil, nil, nil, cache.Recovery{}, err
	}
	for si := 0; si < srcCount; si++ {
		if _, err := sys.AddSource(fmt.Sprintf("s%d", si), nil); err != nil {
			return nil, nil, nil, rec, err
		}
	}
	live := make(map[int64]bool, len(netw.Links))
	for i, l := range netw.Links {
		if ring.OwnerOfKey(l.Key) != pi {
			continue
		}
		live[l.Key] = true
		src := sys.Source(fmt.Sprintf("s%d", i%srcCount))
		if err := src.AddObject(l.Key, l.Values(), l.Cost, boundfn.StaticWidth(0.5)); err != nil {
			return nil, nil, nil, rec, err
		}
		if _, ok := c.Store().Get(l.Key); ok {
			continue // recovered from disk; re-attached below
		}
		if err := c.Subscribe(src, l.Key, []float64{float64(l.From), float64(l.To)}); err != nil {
			return nil, nil, nil, rec, err
		}
	}
	// Keys recovered from a previous life that this partition no longer
	// owns (or the regenerated workload no longer has) are dropped.
	for _, key := range c.Unattached() {
		if !live[key] {
			c.Drop(key)
		}
	}
	if _, err := sys.Rehandshake(c); err != nil {
		return nil, nil, nil, rec, err
	}
	if err := sys.Mount("links", c); err != nil {
		return nil, nil, nil, rec, err
	}
	return sys, netw, ring, rec, nil
}

// PartitionIDs names n partitions p0..p{n-1}.
func PartitionIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("p%d", i)
	}
	return ids
}

// MixQuery draws from the links query mix for the cluster differential
// tests, giving one query in four a relative constraint (WITHIN p%,
// §8.1) in place of its absolute one.
func MixQuery(rng *rand.Rand, schema *relation.Schema, links int) query.Query {
	q := concurrentQuery(rng, schema, links)
	if rng.Intn(4) == 0 {
		q.RelativeWithin = 0.002 + rng.Float64()*0.05
	}
	return q
}

// concurrentQuery builds one query of the links mix: SUM, AVG, MIN, and
// MAX with moderate precision constraints (most answered from cache,
// some paying refreshes), an occasional predicate, and an occasional
// unconstrained (imprecise) probe.
func concurrentQuery(rng *rand.Rand, schema *relation.Schema, links int) query.Query {
	// SUM answer widths grow linearly with the table size, so its
	// absolute constraint carries a per-key budget scaled by the link
	// count (the other aggregates' widths are size-independent). The
	// budget sits above the adaptive-width equilibrium so the mix is
	// answered mostly from cache with occasional paid refreshes.
	var q query.Query
	switch rng.Intn(5) {
	case 0:
		q = query.NewQuery("links", aggregate.Sum, workload.ColLatency)
		q.Within = (10 + rng.Float64()*20) * float64(links)
	case 1:
		q = query.NewQuery("links", aggregate.Avg, workload.ColTraffic)
		q.Within = 10 + rng.Float64()*30
	case 2:
		q = query.NewQuery("links", aggregate.Min, workload.ColBandwidth)
		q.Within = 15 + rng.Float64()*30
	case 3:
		q = query.NewQuery("links", aggregate.Max, workload.ColLatency)
		q.Within = 10 + rng.Float64()*20
		q.Where = predicate.NewCmp(
			predicate.Column(schema.MustLookup(workload.ColTraffic), workload.ColTraffic),
			predicate.Gt, predicate.Const(120))
	default:
		q = query.NewQuery("links", aggregate.Sum, workload.ColTraffic) // imprecise
	}
	return q
}
