// Package refresh implements the CHOOSE_REFRESH algorithms of TRAPP/AG:
// given an aggregation query with a precision constraint R, select a
// minimum-cost set of cached tuples to refresh from their sources so that
// the recomputed bounded answer is guaranteed to have width at most R for
// any master values inside the current bounds (paper sections 5 and 6,
// Appendices B, C, and F).
//
// Algorithm summary:
//
//   - MIN: refresh every tuple in T+ ∪ T? with L_i < min over T+ of H_k − R.
//     The set is independent of refresh costs and provably optimal
//     (Appendix B). MAX is symmetric (Appendix C).
//   - SUM: equivalent to a 0/1 knapsack over the tuples NOT refreshed with
//     profit C_i, weight = residual bound width, capacity R; solved exactly
//     by dynamic programming for integer costs, by an ε-approximation
//     otherwise, or greedily for uniform costs (section 5.2). With a
//     predicate, T? weights extend the bound to include 0 (section 6.2).
//   - COUNT: refresh the ceil(|T?| − R) cheapest T? tuples (section 6.3),
//     equal costs broken by input order.
//   - AVG without predicate: SUM with capacity R·COUNT (section 5.4).
//   - AVG with predicate: SUM knapsack with capacity L'COUNT·R and T?
//     weights inflated by max(H'SUM, −L'SUM, H'SUM−L'SUM)/L'COUNT − R,
//     faking a knapsack capacity that shrinks as T? tuples are kept
//     (Appendix F).
package refresh

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"trapp/internal/aggregate"
	"trapp/internal/knapsack"
	"trapp/internal/predicate"
	"trapp/internal/relation"
)

// Solver selects the knapsack algorithm for SUM/AVG refresh selection.
type Solver int8

const (
	// Auto picks GreedyUniform for uniform costs, ExactDP for small
	// integer costs, and Approx otherwise.
	Auto Solver = iota
	// SolverExactDP forces the pseudo-polynomial exact DP.
	SolverExactDP
	// SolverApprox forces the ε-approximation (FPTAS).
	SolverApprox
	// SolverGreedyUniform forces the uniform-cost greedy (optimal only
	// when all refresh costs are equal).
	SolverGreedyUniform
	// SolverGreedyDensity forces the density-greedy 1/2-approximation.
	SolverGreedyDensity
)

// String names the solver.
func (s Solver) String() string {
	switch s {
	case SolverExactDP:
		return "exact-dp"
	case SolverApprox:
		return "approx"
	case SolverGreedyUniform:
		return "greedy-uniform"
	case SolverGreedyDensity:
		return "greedy-density"
	default:
		return "auto"
	}
}

// Options tunes refresh selection and query execution.
type Options struct {
	// Epsilon is the knapsack approximation parameter ε ∈ (0, 1); zero
	// means the paper's recommended 0.1 (section 5.2.1).
	Epsilon float64
	// Solver selects the knapsack algorithm; zero value is Auto.
	Solver Solver
	// Parallelism is the worker count for shard-parallel aggregation and
	// CHOOSE_REFRESH scans over sharded stores; 0 means GOMAXPROCS and 1
	// forces serial scans. A store never uses more workers than it has
	// shards.
	Parallelism int
}

// DefaultEpsilon is the ε the paper recommends: smaller values increase
// CHOOSE_REFRESH time quadratically for marginal cost reduction.
const DefaultEpsilon = 0.1

func (o Options) epsilon() float64 {
	if o.Epsilon <= 0 || o.Epsilon >= 1 {
		return DefaultEpsilon
	}
	return o.Epsilon
}

// Plan is a chosen refresh set.
type Plan struct {
	// Indexes are the chosen inputs' positions (aggregate.Input.Index),
	// ascending.
	Indexes []int
	// Keys are the corresponding object keys.
	Keys []int64
	// Costs are the per-tuple refresh costs, aligned with Keys.
	Costs []float64
	// Cost is the total refresh cost Σ C_i over the plan.
	Cost float64
}

// Len returns the number of tuples to refresh.
func (p Plan) Len() int { return len(p.Indexes) }

// Describe renders a one-line plan summary for trace and EXPLAIN ANALYZE
// output.
func (p Plan) Describe() string {
	if p.Len() == 0 {
		return "empty plan"
	}
	lo, hi := p.Costs[0], p.Costs[0]
	for _, c := range p.Costs[1:] {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	return fmt.Sprintf("%d keys, planned cost %g (per-key %g..%g)", p.Len(), p.Cost, lo, hi)
}

// ErrInfeasible is returned when no refresh set can guarantee the
// constraint (cannot occur for the supported aggregates, but guards future
// extensions such as joins).
var ErrInfeasible = errors.New("refresh: precision constraint infeasible")

// ChooseStore selects a refresh set for the aggregate over column col of
// the store under predicate p (nil or TruePred for none) and precision
// constraint R ≥ 0. R = +Inf always yields an empty plan (pure imprecise
// mode); R = 0 requests an exact answer. The classification scan is
// shard-parallel (one worker per shard up to Options.Parallelism, each
// holding only its shard's read lock) and the collected inputs are in the
// canonical order, so the selected plan is identical across shard counts.
func ChooseStore(st *relation.Store, col int, fn aggregate.Func, p predicate.Expr, r float64, opts Options) (Plan, error) {
	if r < 0 || math.IsNaN(r) {
		return Plan{}, fmt.Errorf("refresh: invalid precision constraint %g", r)
	}
	if math.IsInf(r, 1) {
		return Plan{}, nil
	}
	inputs, tableLen := aggregate.CollectStore(st, col, p, true, opts.Parallelism)
	return ChooseFromInputs(inputs, fn, predicate.IsTrivial(p), r, tableLen, opts)
}

// ChooseFromInputs runs refresh selection over pre-collected inputs (see
// aggregate.CollectStore). Callers that have already classified the table —
// e.g. the query processor, which snapshots inputs under the table read
// lock and then solves without holding any lock — use this to avoid a
// second scan. tableLen is the full table cardinality at collection time.
func ChooseFromInputs(inputs []aggregate.Input, fn aggregate.Func, noPred bool, r float64, tableLen int, opts Options) (Plan, error) {
	if r < 0 || math.IsNaN(r) {
		return Plan{}, fmt.Errorf("refresh: invalid precision constraint %g", r)
	}
	if math.IsInf(r, 1) {
		return Plan{}, nil
	}
	switch fn {
	case aggregate.Min:
		return planFromInputs(chooseMin(inputs, r)), nil
	case aggregate.Max:
		return planFromInputs(chooseMax(inputs, r)), nil
	case aggregate.Sum:
		return planFromInputs(chooseSum(inputs, noPred, r, opts)), nil
	case aggregate.Count:
		return planFromInputs(chooseCount(inputs, noPred, r)), nil
	case aggregate.Avg:
		return planFromInputs(chooseAvg(inputs, noPred, r, tableLen, opts)), nil
	default:
		return Plan{}, fmt.Errorf("refresh: unknown aggregate %v", fn)
	}
}

// planFromInputs materializes a Plan from chosen inputs.
func planFromInputs(chosen []aggregate.Input) Plan {
	sort.Slice(chosen, func(a, b int) bool { return chosen[a].Index < chosen[b].Index })
	p := Plan{
		Indexes: make([]int, len(chosen)),
		Keys:    make([]int64, len(chosen)),
		Costs:   make([]float64, len(chosen)),
	}
	for i, in := range chosen {
		p.Indexes[i] = in.Index
		p.Keys[i] = in.Key
		p.Costs[i] = in.Cost
		p.Cost += in.Cost
	}
	return p
}

// chooseMin implements CHOOSE_REFRESH for MIN (sections 5.1 and 6.1):
// refresh every tuple in T+ ∪ T? whose lower bound is below
// min over T+ of H_k minus R. With an empty T+ the threshold is +∞ and
// every tuple that might contribute must be refreshed.
func chooseMin(inputs []aggregate.Input, r float64) []aggregate.Input {
	minPlusH := math.Inf(1)
	for _, in := range inputs {
		if in.Class == predicate.Plus && in.Bound.Hi < minPlusH {
			minPlusH = in.Bound.Hi
		}
	}
	threshold := minPlusH - r
	var chosen []aggregate.Input
	for _, in := range inputs {
		if in.Bound.Lo < threshold {
			chosen = append(chosen, in)
		}
	}
	return chosen
}

// chooseMax is the Appendix C symmetric algorithm: refresh every tuple in
// T+ ∪ T? whose upper bound exceeds max over T+ of L_k plus R.
func chooseMax(inputs []aggregate.Input, r float64) []aggregate.Input {
	maxPlusL := math.Inf(-1)
	for _, in := range inputs {
		if in.Class == predicate.Plus && in.Bound.Lo > maxPlusL {
			maxPlusL = in.Bound.Lo
		}
	}
	threshold := maxPlusL + r
	var chosen []aggregate.Input
	for _, in := range inputs {
		if in.Bound.Hi > threshold {
			chosen = append(chosen, in)
		}
	}
	return chosen
}

// sumWeight returns the knapsack weight of a tuple for SUM refresh
// selection: the residual answer-bound width if the tuple is NOT
// refreshed. T+ (or no-predicate) tuples contribute their bound width; T?
// tuples contribute the width of their bound extended to include 0,
// because they may turn out not to satisfy the predicate (section 6.2).
func sumWeight(in aggregate.Input, noPred bool) float64 {
	if noPred || in.Class == predicate.Plus {
		return in.Bound.Width()
	}
	return in.Bound.IncludeZero().Width()
}

// chooseSum implements CHOOSE_REFRESH for SUM via the knapsack mapping:
// maximize the cost of tuples NOT refreshed subject to their total
// residual width ≤ R.
func chooseSum(inputs []aggregate.Input, noPred bool, r float64, opts Options) []aggregate.Input {
	items := make([]knapsack.Item, len(inputs))
	for i, in := range inputs {
		items[i] = knapsack.Item{Profit: in.Cost, Weight: sumWeight(in, noPred)}
	}
	return solveComplement(inputs, items, r, opts)
}

// solveComplement solves the knapsack and returns the complement (the
// refresh set) as inputs.
func solveComplement(inputs []aggregate.Input, items []knapsack.Item, capacity float64, opts Options) []aggregate.Input {
	// Fast path: everything fits, nothing to refresh.
	var total float64
	for _, it := range items {
		total += it.Weight
	}
	if total <= capacity {
		return nil
	}
	sol := solve(items, capacity, opts)
	refreshIdx := sol.Complement(len(items))
	chosen := make([]aggregate.Input, len(refreshIdx))
	for i, j := range refreshIdx {
		chosen[i] = inputs[j]
	}
	return chosen
}

// solve runs the selected knapsack solver.
func solve(items []knapsack.Item, capacity float64, opts Options) knapsack.Solution {
	switch opts.Solver {
	case SolverExactDP:
		sol, err := knapsack.ExactDP(items, capacity)
		if err != nil {
			// Integer-profit or size requirement not met: fall back to the
			// approximation rather than failing the query.
			return knapsack.Approx(items, capacity, opts.epsilon())
		}
		return sol
	case SolverApprox:
		return knapsack.Approx(items, capacity, opts.epsilon())
	case SolverGreedyUniform:
		return knapsack.GreedyUniform(items, capacity)
	case SolverGreedyDensity:
		return knapsack.GreedyDensity(items, capacity)
	default:
		return autoSolve(items, capacity, opts)
	}
}

// autoSolve picks a solver from the instance's cost structure.
func autoSolve(items []knapsack.Item, capacity float64, opts Options) knapsack.Solution {
	uniform := true
	integer := true
	sum := 0.0
	for _, it := range items {
		if it.Profit != items[0].Profit {
			uniform = false
		}
		if it.Profit != math.Trunc(it.Profit) {
			integer = false
		}
		sum += it.Profit
	}
	if uniform {
		return knapsack.GreedyUniform(items, capacity)
	}
	if integer {
		if sol, err := knapsack.ExactDP(items, capacity); err == nil {
			return sol
		}
	}
	return knapsack.Approx(items, capacity, opts.epsilon())
}

// chooseCount implements CHOOSE_REFRESH for COUNT (section 6.3): the
// answer width is |T?|, and refreshing any T? tuple removes it from T?, so
// refresh the ceil(|T?| − R) cheapest T? tuples. Without a predicate the
// count is exact and no refresh is needed.
func chooseCount(inputs []aggregate.Input, noPred bool, r float64) []aggregate.Input {
	if noPred {
		return nil
	}
	var maybes []aggregate.Input
	for _, in := range inputs {
		if in.Class == predicate.Maybe {
			maybes = append(maybes, in)
		}
	}
	need := int(math.Ceil(float64(len(maybes)) - r))
	if need <= 0 {
		return nil
	}
	slices.SortFunc(maybes, cheaperFirst)
	return maybes[:need]
}

// cheaperFirst orders inputs by ascending cost, equal costs in input
// order: the one total order of both COUNT choosers, so a plan never
// depends on a sort's internals.
func cheaperFirst(a, b aggregate.Input) int {
	return cmp.Or(cmp.Compare(a.Cost, b.Cost), cmp.Compare(a.Index, b.Index))
}

// chooseAvg implements CHOOSE_REFRESH for AVG. Without a predicate
// (section 5.4) it reduces to SUM with capacity R·COUNT. With a predicate
// it applies the Appendix F reduction: knapsack capacity M = L'COUNT·R,
// and each T? tuple's weight is inflated by the (nonnegative) slope
// max(H'SUM, −L'SUM, H'SUM−L'SUM)/L'COUNT − R, simulating a knapsack whose
// capacity shrinks every time a T? tuple is kept unrefreshed.
func chooseAvg(inputs []aggregate.Input, noPred bool, r float64, tableLen int, opts Options) []aggregate.Input {
	if noPred {
		if tableLen == 0 {
			return nil
		}
		return chooseSum(inputs, true, r*float64(tableLen), opts)
	}
	// Conservative estimates from the current cached bounds.
	sum := aggregate.EvalInputs(inputs, aggregate.Sum, false, tableLen)
	lCount := 0
	for _, in := range inputs {
		if in.Class == predicate.Plus {
			lCount++
		}
	}
	if lCount == 0 {
		// Appendix F assumes at least one certain tuple; with none, the
		// loose AVG bound has no usable denominator, so fall back to full
		// refresh of every tuple that might contribute — the answer is
		// then exact (or exactly undefined).
		return inputs
	}
	slope := math.Max(sum.Hi, math.Max(-sum.Lo, sum.Hi-sum.Lo))/float64(lCount) - r
	if slope < 0 {
		// A negative slope would mean keeping T? tuples relaxes the SUM
		// budget; clamping to zero is conservative and keeps weights
		// nonnegative for the knapsack solvers.
		slope = 0
	}
	items := make([]knapsack.Item, len(inputs))
	for i, in := range inputs {
		w := sumWeight(in, false)
		if in.Class == predicate.Maybe {
			w += slope
		}
		items[i] = knapsack.Item{Profit: in.Cost, Weight: w}
	}
	return solveComplement(inputs, items, float64(lCount)*r, opts)
}
