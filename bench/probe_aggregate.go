package main

import (
	"time"

	"trapp"
	"trapp/internal/aggregate"
)

// probeScan times aggregate.EvalStoreStream directly over the
// workload's largest table: the streaming scan-and-fold with no plan
// cache, sync or refresh around it — the cross-check for the scan and
// fold spans of the traced segment.
func probeScan(sys *trapp.System, pop *population, div int) map[string]float64 {
	big := 0
	for i, t := range pop.tables {
		if len(t.objs) > len(pop.tables[big].objs) {
			big = i
		}
	}
	t := pop.tables[big]
	store := sys.MountedCache(t.name).Store()
	col := t.schema.BoundedColumns()[0]
	rounds := max(3, 2_000_000/div/max(1, len(t.objs)))
	rows := 0
	start := time.Now()
	for r := 0; r < rounds; r++ {
		_, n := aggregate.EvalStoreStream(store, col, trapp.Sum, nil)
		rows += n
	}
	return map[string]float64{
		"aggregate.scan_ns_per_row": float64(time.Since(start)) / float64(max(rows, 1)),
	}
}
