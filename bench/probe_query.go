package main

import (
	"context"
	"errors"
	"time"

	"trapp"
)

// probeBatch times System.ExecuteBatch over 16 of the workload's
// queries per call, after a tick each time so the batch does its scans:
// the shared-scan, merged-refresh path the single-query drivers never
// take.
func probeBatch(dep *deployment, qs []*queryOp, div int) (map[string]float64, error) {
	const size = 16
	rounds := max(2, 12/div)
	batch := make([]trapp.Query, size)
	for i := range batch {
		batch[i] = qs[i%len(qs)].q
	}
	sys := dep.systems[0]
	var total time.Duration
	for r := 0; r < rounds; r++ {
		dep.tick()
		t0 := time.Now()
		_, err := sys.ExecuteBatch(context.Background(), batch)
		total += time.Since(t0)
		if err != nil && !errors.As(err, &trapp.ErrBudgetExhausted{}) {
			return nil, err
		}
	}
	return map[string]float64{
		"query.batch_ns_per_query": float64(total) / float64(rounds*size),
	}, nil
}
