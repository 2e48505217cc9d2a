package experiment

import (
	"fmt"
	"strings"
	"testing"
)

// TestExperimentRowsGolden pins every non-timing value the paper figures
// and ablations report at DefaultSeed with the parameters cmd/trappbench
// uses (n = 90). Floats print in Go's shortest round-trip form, so any
// change to a bound, a plan or a cost — not only a rounded one — fails.
func TestExperimentRowsGolden(t *testing.T) {
	const n, seed = 90, DefaultSeed
	var b strings.Builder
	line := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	var rs []float64
	for r := 0.0; r <= 140; r += 10 {
		rs = append(rs, r)
	}
	for _, r := range Figure6(rs, 0.1, n, seed) {
		line("fig6 %v %v %v", r.R, r.RefreshCost, r.Refreshed)
	}
	for _, r := range Solvers(100, n, seed) {
		line("solver %s %v %v", r.Name, r.RefreshCost, r.Optimal)
	}
	for _, r := range Adaptive(20, 120, seed) {
		line("adaptive %s %v %v %v", r.Policy, r.ValueRefreshes, r.QueryRefreshes, r.TotalMessages)
	}
	for _, r := range AvgBounds(n, seed) {
		line("avgbound %v %v %v", r.Selectivity, r.TightWidth, r.LooseWidth)
	}
	for _, r := range Modes(n, seed) {
		line("modes %v %v %v %v %v", r.Agg, r.ImpreciseW, r.TrappR, r.TrappCost, r.PreciseCost)
	}
	for _, r := range Joins(8, 5, seed) {
		line("join %s %v %v %v", r.Planner, r.RefreshCost, r.Refreshed, r.FinalWidth)
	}
	for _, r := range IterativeVsBatch(n, seed) {
		line("iter %v %v %v %v %v", r.Agg, r.R, r.BatchCost, r.IterCost, r.IterRounds)
	}
	for _, r := range Medians([]float64{50, 20, 10, 5, 2, 1, 0}, n, seed) {
		line("median %v %v %v %v", r.R, r.InitialW, r.Refreshed, r.RefreshCost)
	}

	if got := b.String(); got != experimentRowsGolden {
		t.Errorf("experiment rows changed:\n--- got ---\n%s--- want ---\n%s", got, experimentRowsGolden)
	}
}

const experimentRowsGolden = `fig6 0 493 90
fig6 10 476 88
fig6 20 464 86
fig6 30 456 85
fig6 40 446 84
fig6 50 438 82
fig6 60 430 82
fig6 70 422 80
fig6 80 415 80
fig6 90 409 79
fig6 100 403 78
fig6 110 397 77
fig6 120 393 76
fig6 130 387 76
fig6 140 382 74
solver exact-dp 403 true
solver approx(ε=0.3) 403 false
solver approx(ε=0.1) 403 false
solver approx(ε=0.02) 403 false
solver greedy-density 403 false
solver greedy-uniform 420 false
adaptive static-narrow(0.5) 2400 0 2400
adaptive static-wide(8) 0 480 480
adaptive adaptive(1) 210 403 613
avgbound 0.8111111111111111 38.395371277816224 50.8985058382965
avgbound 0.5444444444444444 43.066966303272395 74.8442524334334
avgbound 0.3111111111111111 46.594962949360195 170.3481997488908
avgbound 0.13333333333333333 43.93571521103101 318.8313337953512
modes MIN 8.31436082324013 2.0785902058100323 11 26
modes MAX 48.99872328297309 12.249680820743272 51 66
modes SUM 2380.8994146495024 595.2248536623756 216 493
modes AVG 26.454437940550022 6.613609485137506 216 493
join batch-greedy 41 11 0
join iterative 52 14 0
iter MIN 2.0785902058100323 11 1 1
iter MAX 12.249680820743272 51 10 5
iter SUM 595.2248536623756 216 216 51
iter AVG 6.613609485137506 216 216 51
median 50 24.733244408706653 0 0
median 20 24.733244408706653 6 13
median 10 24.733244408706653 13 46
median 5 24.733244408706653 16 64
median 2 24.733244408706653 19 86
median 1 24.733244408706653 20 94
median 0 24.733244408706653 20 94
`
