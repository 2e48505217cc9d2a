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
// over a WAL + snapshot data directory. All four run one builder.

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
	sys, net, _, err := BuildLinkSystemDurable(links, srcCount, seed, "", relation.WALOptions{})
	return sys, net, err
}

// BuildLinkSystemDurable is BuildLinkSystem over a durable cache when dir
// is set: the "links" table is backed by a WAL + snapshot data
// directory, so a process restarted against the same directory recovers
// the cached values bit-identically (see buildLinks).
func BuildLinkSystemDurable(links, srcCount int, seed int64, dir string, opts relation.WALOptions) (*trapp.System, *workload.Network, cache.Recovery, error) {
	net, err := linkNetwork(links, seed)
	if err != nil {
		return nil, nil, cache.Recovery{}, err
	}
	sys, rec, err := buildLinks(net, srcCount, nil, dir, opts)
	return sys, net, rec, err
}

// BuildLinkPartitions builds one embedded System per id, together
// holding exactly the tuples of BuildLinkSystem(links, srcCount, seed):
// tuple placement follows the rendezvous ring over ids. The returned
// network is the generator whose Links drive updates — push a link's
// value to the partition the ring assigns its key.
func BuildLinkPartitions(links, srcCount int, seed int64, ids []string) ([]*trapp.System, *workload.Network, *partition.Ring, error) {
	ring, netw, err := linkRing(links, seed, ids)
	if err != nil {
		return nil, nil, nil, err
	}
	systems := make([]*trapp.System, 0, len(ids))
	for pi := range ids {
		sys, _, err := buildLinks(netw, srcCount, ownedBy(ring, pi), "", relation.WALOptions{})
		if err != nil {
			for _, s := range systems {
				s.Close()
			}
			return nil, nil, nil, err
		}
		systems = append(systems, sys)
	}
	return systems, netw, ring, nil
}

// BuildLinkPartitionDurable builds partition pi of the N-way link
// cluster alone (the same placement as BuildLinkPartitions), over a
// durable cache when dir is set. Each partition server owns its own data
// directory, so a restarted node recovers exactly its shard of the
// tuples — values bit-identical, bounds re-earned through the handshake
// — and the coordinator's scatter-gather answers stay correct across the
// restart.
func BuildLinkPartitionDurable(links, srcCount int, seed int64, ids []string, pi int, dir string, opts relation.WALOptions) (*trapp.System, *workload.Network, *partition.Ring, cache.Recovery, error) {
	ring, netw, err := linkRing(links, seed, ids)
	if err != nil {
		return nil, nil, nil, cache.Recovery{}, err
	}
	sys, rec, err := buildLinks(netw, srcCount, ownedBy(ring, pi), dir, opts)
	return sys, netw, ring, rec, err
}

// linkNetwork generates the links workload's monitoring network.
func linkNetwork(links int, seed int64) (*workload.Network, error) {
	return workload.NewNetwork(max(2, links/8), links, seed)
}

// linkRing is the placement ring over ids and the network it places.
func linkRing(links int, seed int64, ids []string) (*partition.Ring, *workload.Network, error) {
	ring, err := partition.NewRing(ids)
	if err != nil {
		return nil, nil, err
	}
	netw, err := linkNetwork(links, seed)
	return ring, netw, err
}

// ownedBy selects the keys the ring places on partition pi.
func ownedBy(ring *partition.Ring, pi int) func(key int64) bool {
	return func(key int64) bool { return ring.OwnerOfKey(key) == pi }
}

// buildLinks is the one links builder: a System holding the links of
// netw that owns accepts (all of them when owns is nil), each on source
// s{i%srcCount} by its position i in the whole network — so every
// partition runs the full source set and the link→source mapping matches
// the single system's — in one cache mounted as "links". With dir set
// the cache is durable: keys recovered from the directory are
// re-handshaked with their source (fresh bound promises over the
// recovered values) instead of re-subscribed, which would have rebuilt
// the state trivially and hidden recovery bugs, and recovered keys the
// regenerated workload — or this partition — no longer has are dropped,
// so the mounted table always matches the workload either way.
func buildLinks(netw *workload.Network, srcCount int, owns func(key int64) bool, dir string, opts relation.WALOptions) (*trapp.System, cache.Recovery, error) {
	// The density greedy keeps CHOOSE_REFRESH O(n log n): a served system
	// answering unmet SUM/AVG instances must not run the exact knapsack's
	// pseudo-polynomial DP per request.
	sys := trapp.NewSystem(refresh.Options{Solver: refresh.SolverGreedyDensity})
	var (
		c   *cache.Cache
		rec cache.Recovery
		err error
	)
	if dir == "" {
		c, err = sys.AddCache("monitor", workload.LinkSchema())
	} else {
		c, rec, err = sys.AddDurableCache("monitor", workload.LinkSchema(), dir, opts)
	}
	if err != nil {
		return nil, rec, err
	}
	for si := 0; si < srcCount; si++ {
		if _, err := sys.AddSource(fmt.Sprintf("s%d", si), nil); err != nil {
			return nil, rec, err
		}
	}
	live := make(map[int64]bool, len(netw.Links))
	for i, l := range netw.Links {
		if owns != nil && !owns(l.Key) {
			continue
		}
		live[l.Key] = true
		src := sys.Source(fmt.Sprintf("s%d", i%srcCount))
		// Links promise converged near-zero-width bounds — the demand-
		// converged push regime (§8.1, DESIGN.md §8) in which a source
		// pushes once per real change.
		if err := src.AddObject(l.Key, l.Values(), l.Cost, boundfn.StaticWidth(0.5)); err != nil {
			return nil, rec, err
		}
		if _, ok := c.Store().Get(l.Key); ok {
			continue // recovered from disk; re-attached below
		}
		if err := c.Subscribe(src, l.Key, []float64{float64(l.From), float64(l.To)}); err != nil {
			return nil, rec, err
		}
	}
	if dir != "" {
		for _, key := range c.Unattached() {
			if !live[key] {
				c.Drop(key)
			}
		}
		if _, err := sys.Rehandshake(c); err != nil {
			return nil, rec, err
		}
	}
	if err := sys.Mount("links", c); err != nil {
		return nil, rec, err
	}
	return sys, rec, nil
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
