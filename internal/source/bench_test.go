package source

import (
	"context"
	"testing"

	"trapp/internal/boundfn"
	"trapp/internal/netsim"
)

// BenchmarkQueryRefreshBatch measures the source's side of a refresh
// round: one 400-key batched request against a source of 2 000
// three-attribute objects on adaptive policies (the links population),
// reported per refreshed key.
func BenchmarkQueryRefreshBatch(b *testing.B) {
	const objects, batch = 2000, 400
	clock, net := netsim.NewClock(), netsim.NewNetwork()
	s := New("s", clock, net, nil)
	sub := &recorder{}
	for key := int64(0); key < objects; key++ {
		if err := s.AddObject(key, []float64{float64(key), 1, 2}, 1, boundfn.NewAdaptiveWidth(1)); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Subscribe(key, sub); err != nil {
			b.Fatal(err)
		}
	}
	keys := make([]int64, batch)
	for i := range keys {
		keys[i] = int64(i * (objects / batch))
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(1)
		reply, err := s.QueryRefreshBatchCtx(ctx, keys, sub)
		if err != nil || len(reply.Keys) != batch {
			b.Fatalf("reply of %d rows, %v", len(reply.Keys), err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
}
