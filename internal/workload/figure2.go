// Package workload provides the data sets and generators used by the
// TRAPP/AG examples, tests, and experiments: the paper's 6-link network
// monitoring fixture (Figure 2), random network topologies with evolving
// link measurements, and the synthetic "volatile stock day" series that
// substitutes for the 90 real stock prices of section 5.2.1.
package workload

import (
	"trapp/internal/interval"
	"trapp/internal/relation"
)

// Link column names in the network monitoring schema.
const (
	ColFrom      = "from"
	ColTo        = "to"
	ColLatency   = "latency"
	ColBandwidth = "bandwidth"
	ColTraffic   = "traffic"
)

// LinkSchema returns the network-monitoring schema of the running example:
// exact endpoints plus bounded latency, bandwidth, and traffic measures.
func LinkSchema() *relation.Schema {
	return relation.NewSchema(
		relation.Column{Name: ColFrom, Kind: relation.Exact},
		relation.Column{Name: ColTo, Kind: relation.Exact},
		relation.Column{Name: ColLatency, Kind: relation.Bounded},
		relation.Column{Name: ColBandwidth, Kind: relation.Bounded},
		relation.Column{Name: ColTraffic, Kind: relation.Bounded},
	)
}

// Figure2Row is one row of the paper's Figure 2 sample data: cached bounds
// plus the precise master values held at the nodes, and the refresh cost.
type Figure2Row struct {
	Key                            int64
	From, To                       int64
	Latency, Bandwidth, Traffic    interval.Interval
	LatencyV, BandwidthV, TrafficV float64
	Cost                           float64
}

// Figure2 returns the six links of the paper's Figure 2, in row order.
// Tuple keys 1–6 match the paper's row numbers, so worked examples such as
// "CHOOSE_REFRESH chooses TR = {5, 6}" translate directly into tests.
func Figure2() []Figure2Row {
	return []Figure2Row{
		{1, 1, 2, interval.New(2, 4), interval.New(60, 70), interval.New(95, 105), 3, 61, 98, 3},
		{2, 2, 4, interval.New(5, 7), interval.New(45, 60), interval.New(110, 120), 7, 53, 116, 6},
		{3, 3, 4, interval.New(12, 16), interval.New(55, 70), interval.New(95, 110), 13, 62, 105, 6},
		{4, 2, 3, interval.New(9, 11), interval.New(65, 70), interval.New(120, 145), 9, 68, 127, 8},
		{5, 4, 5, interval.New(8, 11), interval.New(40, 55), interval.New(90, 110), 11, 50, 95, 4},
		{6, 5, 6, interval.New(4, 6), interval.New(45, 60), interval.New(90, 105), 5, 45, 103, 2},
	}
}

// Figure2Store builds the cached relation of Figure 2 as a one-shard
// store. Master values are not stored in it; use Figure2Master for the
// refresh oracle.
func Figure2Store() *relation.Store {
	st := relation.NewStore(LinkSchema(), 1)
	for _, r := range Figure2() {
		st.MustInsert(relation.Tuple{
			Key: r.Key,
			Bounds: []interval.Interval{
				interval.Point(float64(r.From)),
				interval.Point(float64(r.To)),
				r.Latency, r.Bandwidth, r.Traffic,
			},
			Cost: r.Cost,
		})
	}
	return st
}

// Figure2Master returns the precise master values for each key, in bounded
// column order (latency, bandwidth, traffic) — the oracle a refresh
// consults.
func Figure2Master() map[int64][]float64 {
	m := make(map[int64][]float64, 6)
	for _, r := range Figure2() {
		m[r.Key] = []float64{r.LatencyV, r.BandwidthV, r.TrafficV}
	}
	return m
}

// MapOracle adapts a key→values map to the refresh Oracle interface used
// by the query processor.
type MapOracle map[int64][]float64

// Master returns the exact bounded-column values for a key; ok is false
// for unknown keys.
func (m MapOracle) Master(key int64) (vals []float64, ok bool) {
	v, ok := m[key]
	return v, ok
}
