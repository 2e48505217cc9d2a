package obs

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestBucketIndexBounds(t *testing.T) {
	// Every representable value lands in a bucket whose bounds contain it,
	// and indexes are monotone in the value.
	vals := []uint64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1000, 1 << 20, 1<<40 + 12345, math.MaxUint64}
	for _, v := range vals {
		i := bucketIndex(v)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		lo, hi := bucketBounds(i)
		if v < lo || (v >= hi && hi > lo) { // hi==lo only possible on overflow of the top bucket
			t.Fatalf("value %d not in bucket %d bounds [%d,%d)", v, i, lo, hi)
		}
	}
	prev := -1
	for v := uint64(0); v < 4096; v++ {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, i, prev)
		}
		prev = i
	}
}

func TestBucketRelativeError(t *testing.T) {
	// Bucket width / lower bound must stay ≤ 1/sub = 12.5% above the
	// linear region.
	for i := sub; i < numBuckets-1; i++ {
		lo, hi := bucketBounds(i)
		if hi <= lo {
			continue // top-of-range overflow bucket
		}
		if rel := float64(hi-lo) / float64(lo); rel > 1.0/sub+1e-9 {
			t.Fatalf("bucket %d [%d,%d) relative width %.3f > 12.5%%", i, lo, hi, rel)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent snapshots must stay monotone in count.
	go func() {
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			if s.Count < last {
				panic("count went backwards")
			}
			last = s.Count
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(uint64(rng.Intn(1 << 30)))
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count %d != %d", s.Count, workers*per)
	}
	var n uint64
	for _, b := range s.Buckets {
		n += b.Count
	}
	if n != s.Count {
		t.Fatalf("bucket sum %d != count %d after quiesce", n, s.Count)
	}
}

func TestTraceCostReplay(t *testing.T) {
	// TotalCost must replay the plan-order float fold bit-exactly.
	keys := []int64{3, 1, 7, 2}
	costs := []float64{0.1, 0.2, 0.30000000000000004, 1e-17}
	tr := NewTrace("q")
	tr.SetPlanCosts(keys, costs)
	sp := tr.Root.StartSpan("refresh")
	s1 := sp.StartSpan("source:s0")
	s1.RecordKeys([]int64{3, 7})
	s2 := sp.StartSpan("source:s1")
	s2.RecordKeys([]int64{1}) // key 2 never installed
	sp.End()
	tr.Finish()

	var want float64
	installed := map[int64]bool{3: true, 7: true, 1: true}
	for i, k := range keys {
		if installed[k] {
			want += costs[i]
		}
	}
	if got := tr.TotalCost(); got != want {
		t.Fatalf("TotalCost %v != engine fold %v", got, want)
	}
	snap := tr.Snapshot()
	if snap.TotalCost != want {
		t.Fatalf("snapshot TotalCost %v != %v", snap.TotalCost, want)
	}
	// Snapshot must round-trip through JSON.
	buf, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back TraceSnapshot
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.TotalCost != snap.TotalCost || len(back.Root.Children) != len(snap.Root.Children) {
		t.Fatalf("round-trip mismatch: %+v vs %+v", back, snap)
	}
	if !strings.Contains(snap.String(), "total refresh cost") {
		t.Fatalf("render missing total: %s", snap)
	}
}

func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	var sp *Span
	tr.Finish()
	tr.SetPlanCosts([]int64{1}, []float64{1})
	if tr.TotalCost() != 0 {
		t.Fatal("nil trace cost")
	}
	if c := sp.StartSpan("x"); c != nil {
		t.Fatal("nil span child")
	}
	sp.End()
	sp.SetDetail("d")
	sp.RecordKeys([]int64{1})
	ctx := ContextWithSpan(context.Background(), nil)
	if SpanFromContext(ctx) != nil {
		t.Fatal("nil span in context")
	}
}

func TestPromWriterValidates(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(uint64(i * 3000))
	}
	w := NewPromWriter()
	w.Counter("trapp_requests_total", "total requests", nil, 42)
	w.Gauge("trapp_in_flight", "in flight", nil, 3)
	w.Counter("trapp_errors_total", "errors", map[string]string{"code": `bad"quote`}, 1)
	w.Histo("trapp_request_seconds", "latency", nil, h.Snapshot(), 1e9)
	w.Histo("trapp_phase_seconds", "phase latency", map[string]string{"phase": "scan"}, h.Snapshot(), 1e9)
	w.Histo("trapp_phase_seconds", "phase latency", map[string]string{"phase": "fold"}, h.Snapshot(), 1e9)
	out := w.String()
	if err := ValidateProm(strings.NewReader(out)); err != nil {
		t.Fatalf("ValidateProm: %v\npayload:\n%s", err, out)
	}
}

func TestValidatePromRejects(t *testing.T) {
	cases := map[string]string{
		"no type":        "foo_total 1\n",
		"malformed":      "# TYPE x counter\nx{ 1\n",
		"not cumulative": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"inf mismatch":   "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n",
		"no le":          "# TYPE h histogram\nh_bucket 4\nh_sum 1\nh_count 4\n",
	}
	for name, payload := range cases {
		if err := ValidateProm(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: expected error for:\n%s", name, payload)
		}
	}
}
