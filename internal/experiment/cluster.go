package experiment

// Partitioned builds of the links workload (E19, the partitioned
// serving tier). BuildLinkPartitions splits the exact network
// BuildLinkSystem generates across N embedded systems by consistent
// hash of the tuple key — each partition holds only the links whose
// canonical buckets the ring assigns to it, while every partition runs
// the full source set so the link→source mapping is position-stable.
// A coordinator over the partitions answers bit-identically to the
// single system BuildLinkSystem builds from the same parameters, which
// is what the cluster differential test asserts and what makes the
// cluster benchmark comparable to the single-node one.

import (
	"fmt"
	"math/rand"

	"trapp/internal/boundfn"
	"trapp/internal/partition"
	"trapp/internal/query"
	"trapp/internal/refresh"
	"trapp/internal/relation"
	"trapp/internal/trapp"
	"trapp/internal/workload"
)

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

// MixQuery draws from the benchmark query mix for the cluster
// differential tests, giving one query in four a relative constraint
// (WITHIN p%, §8.1) in place of its absolute one.
func MixQuery(rng *rand.Rand, schema *relation.Schema, links int) query.Query {
	q := concurrentQuery(rng, schema, links)
	if rng.Intn(4) == 0 {
		q.RelativeWithin = 0.002 + rng.Float64()*0.05
	}
	return q
}

// PartitionIDs names n partitions p0..p{n-1}.
func PartitionIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("p%d", i)
	}
	return ids
}
