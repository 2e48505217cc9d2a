package experiment

import (
	"strings"
	"testing"
)

func TestFigure5Shape(t *testing.T) {
	eps := []float64{0.1, 0.05, 0.02}
	rows := Figure5(eps, 100, 90, DefaultSeed, 1)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Refresh cost is non-increasing as ε shrinks (better approximation
	// keeps more profit in the knapsack).
	for i := 1; i < len(rows); i++ {
		if rows[i].RefreshCost > rows[i-1].RefreshCost+1e-9 {
			t.Errorf("ε=%g cost %g > ε=%g cost %g",
				rows[i].Epsilon, rows[i].RefreshCost,
				rows[i-1].Epsilon, rows[i-1].RefreshCost)
		}
	}
	for _, r := range rows {
		if r.ChooseTime <= 0 {
			t.Errorf("ε=%g has non-positive time", r.Epsilon)
		}
		if r.RefreshCost < 0 {
			t.Errorf("ε=%g negative cost", r.Epsilon)
		}
	}
}

func TestFigure6MonotoneTradeoff(t *testing.T) {
	rs := []float64{0, 20, 40, 60, 80, 100, 120, 140}
	rows := Figure6(rs, 0.1, 90, DefaultSeed)
	if len(rows) != len(rs) {
		t.Fatalf("rows = %d", len(rows))
	}
	// The tradeoff is monotonically decreasing within approximation noise:
	// allow tiny upticks (< 5% of the full-cost scale) but require overall
	// decrease from R=0 to R=max.
	if rows[0].RefreshCost <= rows[len(rows)-1].RefreshCost {
		t.Errorf("cost did not decrease: R=0 → %g, R=140 → %g",
			rows[0].RefreshCost, rows[len(rows)-1].RefreshCost)
	}
	scale := rows[0].RefreshCost
	for i := 1; i < len(rows); i++ {
		if rows[i].RefreshCost > rows[i-1].RefreshCost+0.05*scale {
			t.Errorf("non-monotone jump at R=%g: %g → %g",
				rows[i].R, rows[i-1].RefreshCost, rows[i].RefreshCost)
		}
	}
	// At R=0 everything with nonzero width must be refreshed.
	if rows[0].Refreshed == 0 {
		t.Error("R=0 refreshed nothing")
	}
}

func TestSolversOrdering(t *testing.T) {
	rows := Solvers(100, 90, DefaultSeed)
	if len(rows) < 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var exact float64 = -1
	for _, r := range rows {
		if r.Optimal {
			exact = r.RefreshCost
		}
	}
	if exact < 0 {
		t.Fatal("no exact solver row")
	}
	for _, r := range rows {
		if r.RefreshCost < exact-1e-9 {
			t.Errorf("solver %s beat the exact optimum: %g < %g", r.Name, r.RefreshCost, exact)
		}
	}
}

func TestModes(t *testing.T) {
	rows := Modes(90, DefaultSeed)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// TRAPP's middle ground costs at most precise mode.
		if r.TrappCost > r.PreciseCost+1e-9 {
			t.Errorf("%v: TRAPP cost %g > precise cost %g", r.Agg, r.TrappCost, r.PreciseCost)
		}
		if r.ImpreciseW <= 0 {
			t.Errorf("%v: imprecise width %g", r.Agg, r.ImpreciseW)
		}
	}
}

func TestAvgBounds(t *testing.T) {
	rows := AvgBounds(90, DefaultSeed)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.TightWidth > r.LooseWidth+1e-9 {
			t.Errorf("tight %g wider than loose %g at selectivity %.2f",
				r.TightWidth, r.LooseWidth, r.Selectivity)
		}
	}
}

func TestAdaptiveBeatsAtLeastOneStatic(t *testing.T) {
	rows := Adaptive(20, 60, DefaultSeed)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]AdaptiveRow{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	adaptive := byName["adaptive(1)"]
	narrow := byName["static-narrow(0.5)"]
	wide := byName["static-wide(8)"]
	// The adaptive policy should not be worse than BOTH static extremes.
	if adaptive.TotalMessages > narrow.TotalMessages && adaptive.TotalMessages > wide.TotalMessages {
		t.Errorf("adaptive (%d) worse than both static policies (%d, %d)",
			adaptive.TotalMessages, narrow.TotalMessages, wide.TotalMessages)
	}
	// Narrow bounds must suffer more value-initiated refreshes than wide.
	if narrow.ValueRefreshes < wide.ValueRefreshes {
		t.Errorf("narrow (%d) fewer value refreshes than wide (%d)",
			narrow.ValueRefreshes, wide.ValueRefreshes)
	}
}

func TestJoins(t *testing.T) {
	rows := Joins(8, 5, DefaultSeed)
	if len(rows) != 2 {
		t.Fatalf("rows = %d: %+v", len(rows), rows)
	}
	for _, r := range rows {
		if r.FinalWidth > 5+1e-6 {
			t.Errorf("%s final width %g > 5", r.Planner, r.FinalWidth)
		}
	}
}

func TestWriteTable(t *testing.T) {
	var sb strings.Builder
	WriteTable(&sb, []string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	out := sb.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "333") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines", len(lines))
	}
}
