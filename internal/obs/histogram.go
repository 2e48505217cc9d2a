// Package obs is the observability layer of the TRAPP engine: always-on
// lock-free histograms for phase latency and paper-specific telemetry
// (achieved width vs requested bound, cost per unit precision), opt-in
// per-request span traces with exact refresh-cost attribution, and a
// minimal Prometheus text-format writer/validator for the service layer.
//
// Everything on the hot path is allocation-free: a histogram observation
// is one bucket computation plus three atomic adds, and the trace hooks
// compile to a nil check when tracing is off. DESIGN.md §12 documents
// the bucket scheme, the span model, and the overhead budget.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram buckets are log-linear (HDR-style): values below 2^subBits
// get exact unit buckets; above, each power-of-two octave is split into
// 2^subBits equal sub-buckets, so the relative bucket width — and thus
// the worst-case quantile error — is at most 1/2^subBits = 12.5%. The
// scheme covers the full uint64 range in numBuckets fixed slots, so a
// Histogram is a flat array of atomic counters: no allocation, no locks,
// no resizing, ever.
const (
	subBits    = 3
	sub        = 1 << subBits
	numBuckets = sub + (64-subBits)*sub
)

// bucketIndex maps a value to its bucket. Values below sub index
// directly; otherwise the top subBits+1 significant bits select the
// octave and sub-bucket.
func bucketIndex(v uint64) int {
	if v < sub {
		return int(v)
	}
	exp := bits.Len64(v) - 1 - subBits
	return int(uint64(sub) + uint64(exp)<<subBits + (v>>uint(exp))&(sub-1))
}

// bucketBounds returns bucket i's value range [lo, hi).
func bucketBounds(i int) (lo, hi uint64) {
	if i < sub {
		return uint64(i), uint64(i) + 1
	}
	exp := uint(i-sub) >> subBits
	mant := uint64(i-sub) & (sub - 1)
	lo = (sub + mant) << exp
	return lo, lo + 1<<exp
}

// Histogram is a lock-free log-linear histogram of nonnegative integer
// observations (latencies in nanoseconds, batch sizes, scaled ratios).
// The zero value is ready to use; all methods are safe for concurrent
// use. Recording is wait-free: three atomic adds, no allocation.
//
// Snapshots taken while writers are recording are per-cell monotone but
// not a single consistent cut: the total count, sum, and bucket counts
// may each include a different prefix of concurrent observations. After
// writers quiesce, Count equals the sum of the bucket counts exactly.
type Histogram struct {
	count  atomic.Uint64
	sum    atomic.Uint64
	counts [numBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveDuration records a duration in nanoseconds; negative durations
// (a clock step) clamp to zero.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Bucket is one non-empty histogram bucket: Count observations fell in
// [Lo, Hi).
type Bucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram, carrying
// only its non-empty buckets.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{}
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		s.Buckets = append(s.Buckets, Bucket{Lo: lo, Hi: hi, Count: n})
	}
	// Count and sum are read after the buckets so that a quiescent
	// snapshot satisfies Count == Σ bucket counts exactly; under
	// concurrent writers each cell is individually monotone.
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	return s
}
