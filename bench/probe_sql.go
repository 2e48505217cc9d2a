package main

import (
	"time"

	"trapp"
)

// probeSQL times trapp.ParseQuery over the workload's own statements,
// directly — the parser with nothing else in the path.
func probeSQL(sys *trapp.System, qs []*queryOp, div int) (map[string]float64, error) {
	rounds := max(1, 200/div)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, q := range qs {
			if _, err := trapp.ParseQuery(q.sql, sys); err != nil {
				return nil, err
			}
		}
	}
	return map[string]float64{
		"sql.parse_ns": float64(time.Since(start)) / float64(rounds*len(qs)),
	}, nil
}
