// Package knapsack implements 0/1 knapsack solvers used by the TRAPP/AG
// CHOOSE_REFRESH algorithms for SUM and AVG queries (paper section 5.2).
//
// The refresh-selection problem is mapped onto the knapsack as follows: the
// tuples *not* refreshed are "placed in the knapsack"; each tuple has profit
// equal to its refresh cost C_i (profit we avoid paying) and weight equal to
// its bound width H_i − L_i (imprecision it leaves in the answer); the
// knapsack capacity is the precision constraint R. Maximizing the profit in
// the knapsack minimizes the total cost of the tuples that must be
// refreshed.
//
// Because 0/1 knapsack is NP-complete, the package offers several solvers:
//
//   - BruteForce: exhaustive search, exponential, for testing optimality.
//   - ExactDP: dynamic programming over integer profits, pseudo-polynomial
//     O(n · ΣP); exact whenever profits are (small) integers, as with the
//     paper's uniform-random costs in [1, 10].
//   - Approx: an Ibarra–Kim-style fully polynomial approximation scheme
//     (FPTAS) that scales profits down by K = ε·Pmax/n and runs the DP on
//     the scaled instance, guaranteeing profit ≥ (1−ε)·OPT.
//   - GreedyUniform: fills lightest first; optimal when all profits are
//     equal (the uniform-cost special case in section 5.2).
//   - GreedyDensity: profit/weight greedy with a best-single-item fallback,
//     a classical 1/2-approximation, and the solver every benchmark query
//     runs.
//
// Both greedy solvers fill in a total order — their key, then item index —
// built in O(n) by a stable radix sort, so ties never depend on a sort's
// internals and a plan is a function of the input order alone.
package knapsack

import (
	"errors"
	"math"
	"math/bits"
	"sort"
)

// Item is a knapsack item. In the TRAPP mapping, Profit is the tuple's
// refresh cost and Weight is its bound width (possibly adjusted for
// predicate uncertainty or AVG coupling).
type Item struct {
	Profit float64
	Weight float64
}

// Solution is a subset of items: the tuples chosen NOT to be refreshed.
type Solution struct {
	// Selected holds indices into the input item slice, ascending.
	Selected []int
	// Profit is the total profit of the selected items.
	Profit float64
	// Weight is the total weight of the selected items.
	Weight float64
	// Eps is the guarantee Approx's DP ran with: the ε it was asked for,
	// or a coarser one when the table at that ε would pass the memory
	// ceiling (see Approx). Zero when no DP ran: the other solvers, and
	// the instances Approx settles without one.
	Eps float64
}

// Complement returns the indices NOT in the solution, ascending — in the
// TRAPP mapping, the set of tuples to refresh.
func (s Solution) Complement(n int) []int {
	in := make([]bool, n)
	for _, i := range s.Selected {
		in[i] = true
	}
	out := make([]int, 0, n-len(s.Selected))
	for i := 0; i < n; i++ {
		if !in[i] {
			out = append(out, i)
		}
	}
	return out
}

// setBit sets bit i of a take mask (bit i%64 of word i/64).
func setBit(mask []uint64, i int) { mask[i/64] |= 1 << (i % 64) }

// solutionFromMask builds a Solution from a take mask, visiting the taken
// items in ascending index order.
func solutionFromMask(items []Item, mask []uint64) Solution {
	var s Solution
	n := 0
	for _, w := range mask {
		n += bits.OnesCount64(w)
	}
	if n > 0 {
		s.Selected = make([]int, 0, n)
	}
	for wi, w := range mask {
		for ; w != 0; w &= w - 1 {
			i := wi*64 + bits.TrailingZeros64(w)
			s.Selected = append(s.Selected, i)
			s.Profit += items[i].Profit
			s.Weight += items[i].Weight
		}
	}
	return s
}

// validate reports items with negative or NaN profit or weight, which
// have no meaning in the TRAPP mapping, and items whose profit and weight
// are both +Inf, whose density is undefined. Either one alone may be
// +Inf: an unbounded width is a weight in the primal mapping and a
// profit in the cost-budgeted dual, and refresh costs are finite.
func validate(items []Item, capacity float64) error {
	if capacity < 0 || math.IsNaN(capacity) {
		return errors.New("knapsack: negative or NaN capacity")
	}
	for _, it := range items {
		if !(it.Profit >= 0) || !(it.Weight >= 0) {
			return errors.New("knapsack: negative or NaN item")
		}
		if math.IsInf(it.Profit, 1) && math.IsInf(it.Weight, 1) {
			return errors.New("knapsack: item with infinite profit and weight")
		}
	}
	return nil
}

// BruteForce solves the instance exactly by enumerating all 2^n subsets.
// It panics for n > 30. Intended for tests and tiny instances such as the
// paper's 6-tuple worked examples.
func BruteForce(items []Item, capacity float64) Solution {
	if err := validate(items, capacity); err != nil {
		panic(err)
	}
	n := len(items)
	if n > 30 {
		panic("knapsack: BruteForce limited to 30 items")
	}
	best := Solution{Selected: []int{}}
	for mask := 0; mask < 1<<n; mask++ {
		var w, p float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				w += items[i].Weight
				p += items[i].Profit
			}
		}
		if w <= capacity && p > best.Profit {
			best = solutionFromMask(items, []uint64{uint64(mask)})
		}
	}
	return best
}

// maxDPStates bounds the profit-dimension of the exact DP table so a
// degenerate instance cannot exhaust memory.
const maxDPStates = 50_000_000

// ErrNonIntegerProfit is returned by ExactDP when some profit is not a
// nonnegative integer (within 1e-9); use Approx instead.
var ErrNonIntegerProfit = errors.New("knapsack: ExactDP requires integer profits")

// ErrTooManyStates is returned by ExactDP when n·ΣP exceeds the internal
// memory budget; use Approx instead.
var ErrTooManyStates = errors.New("knapsack: instance too large for exact DP")

// ExactDP solves the instance exactly with dynamic programming over total
// profit: dp[p] = minimum weight achieving profit exactly p. Running time
// and memory are O(n · ΣP). Profits must be nonnegative integers.
func ExactDP(items []Item, capacity float64) (Solution, error) {
	if err := validate(items, capacity); err != nil {
		return Solution{}, err
	}
	n := len(items)
	profits := make([]int, n)
	total := 0
	for i, it := range items {
		p := math.Round(it.Profit)
		if !(math.Abs(it.Profit-p) <= 1e-9) { // +Inf is no integer
			return Solution{}, ErrNonIntegerProfit
		}
		profits[i] = int(p)
		total += int(p)
	}
	if n > 0 && (total+1) > maxDPStates/n {
		return Solution{}, ErrTooManyStates
	}
	sol := dpByProfit(items, profits, total, capacity)
	return sol, nil
}

// dpByProfit runs the min-weight-per-profit DP and reconstructs the chosen
// set. items[i] has integer profit profits[i]; total is ΣP.
func dpByProfit(items []Item, profits []int, total int, capacity float64) Solution {
	n := len(items)
	const inf = math.MaxFloat64
	dp := make([]float64, total+1)
	for p := 1; p <= total; p++ {
		dp[p] = inf
	}
	// take[i*(total+1)+p] records whether item i is taken on the best path
	// to profit p after considering items 0..i.
	take := make([]bool, n*(total+1))
	for i := 0; i < n; i++ {
		pi, wi := profits[i], items[i].Weight
		row := take[i*(total+1):]
		for p := total; p >= pi; p-- {
			if dp[p-pi] < inf && dp[p-pi]+wi < dp[p] {
				dp[p] = dp[p-pi] + wi
				row[p] = true
			}
		}
	}
	bestP := 0
	for p := total; p >= 0; p-- {
		if dp[p] <= capacity {
			bestP = p
			break
		}
	}
	// Reconstruct: walk items backwards. take rows were written in item
	// order with the classic 1-D DP, so a row flag means "item i is used on
	// the optimal path to this profit considering items 0..i"; walking from
	// the last item down recovers one optimal subset.
	chosen := make([]uint64, (n+63)/64)
	p := bestP
	for i := n - 1; i >= 0 && p > 0; i-- {
		if take[i*(total+1)+p] {
			setBit(chosen, i)
			p -= profits[i]
		}
	}
	return solutionFromMask(items, chosen)
}

// Approx solves the instance with a profit-scaling FPTAS in the style of
// Ibarra and Kim: profits are divided by K = ε·Pmax/n and floored to
// integers, then the exact DP runs on the scaled instance. The returned
// solution is feasible and achieves profit at least (1−ε)·OPT. eps must be
// in (0, 1); smaller eps costs more time (the scaled profit sum grows as
// n²/ε) but approaches the optimum — exactly the tradeoff plotted in the
// paper's Figure 5. The DP table holds n × (Σ⌊p/K⌋ + 1) cells, about
// n³/ε, so it is held to the ceiling ExactDP enforces: when the table at
// eps would pass it, K is coarsened until the table fits, and the
// solution reports the ε that K implies (possibly ≥ 1, a guarantee of
// feasibility only) in its Eps field.
func Approx(items []Item, capacity float64, eps float64) Solution {
	if err := validate(items, capacity); err != nil {
		panic(err)
	}
	if eps <= 0 || eps >= 1 {
		panic("knapsack: Approx eps must be in (0, 1)")
	}
	n := len(items)
	if n == 0 {
		return Solution{Selected: []int{}}
	}
	// Drop items that can never fit; remember original indices.
	idx := make([]int, 0, n)
	feas := make([]Item, 0, n)
	var pmax float64
	for i, it := range items {
		if it.Weight <= capacity {
			idx = append(idx, i)
			feas = append(feas, it)
			if it.Profit > pmax {
				pmax = it.Profit
			}
		}
	}
	if len(feas) == 0 || pmax == 0 {
		// No profitable feasible item: selecting every zero-profit feasible
		// item is harmless but pointless; return the empty solution.
		return Solution{Selected: []int{}}
	}
	if math.IsInf(pmax, 1) {
		// Every fill that holds an infinite-profit item is optimal, and
		// the density greedy takes one first.
		return GreedyDensity(items, capacity)
	}
	m := len(feas)
	k := eps * pmax / float64(m)
	scaled := make([]int, m)
	scale := func() (total int) {
		for i, it := range feas {
			scaled[i] = int(math.Floor(it.Profit / k))
			total += scaled[i]
		}
		return total
	}
	total := scale()
	if limit := max(maxDPStates/m-1, 0); total > limit {
		// Σ⌊p/K⌋ ≤ Σp/K, so K = Σp/limit fits; the growth factor only
		// absorbs the divisions' rounding.
		var psum float64
		for _, it := range feas {
			psum += it.Profit
		}
		for total > limit {
			k = max(k*1.001, psum/float64(limit))
			total = scale()
		}
		eps = k * float64(m) / pmax
	}
	sub := dpByProfit(feas, scaled, total, capacity)
	// Map back to original indices.
	sel := make([]int, len(sub.Selected))
	for i, j := range sub.Selected {
		sel[i] = idx[j]
	}
	sort.Ints(sel)
	out := Solution{Selected: sel, Eps: eps}
	for _, i := range sel {
		out.Profit += items[i].Profit
		out.Weight += items[i].Weight
	}
	return out
}

// GreedyUniform solves the uniform-profit special case: when every item has
// the same profit, filling the knapsack with the lightest items first is
// optimal (section 5.2). It fills in ascending (weight, index) order, built
// in O(n) by a radix sort, and stops at the first item that does not fit.
// The items' profits are not inspected; the caller asserts uniformity.
func GreedyUniform(items []Item, capacity float64) Solution {
	if err := validate(items, capacity); err != nil {
		panic(err)
	}
	s := newGreedyScratch(len(items))
	for i, it := range items {
		s.keys[i] = floatKey(it.Weight)
		s.idx[i] = uint64(i)
	}
	order := radixSort(s.keys, s.idx, s.bufKeys, s.bufIdx)
	var w float64
	for _, i := range order {
		if w+items[i].Weight > capacity {
			break
		}
		setBit(s.take, int(i))
		w += items[i].Weight
	}
	return solutionFromMask(items, s.take)
}

// GreedyDensity is the solver every benchmarked query runs: it fills the
// knapsack by decreasing profit/weight ratio, skipping an item that does
// not fit and going on, and returns the better of that fill and the
// single most profitable feasible item, a classical 1/2-approximation.
// Zero-weight items are always taken. The rest are filled in a total
// order, density descending and then index ascending, which a radix sort
// over one precomputed density key per item builds in O(n); the whole
// solve is O(n) with one scratch allocation.
func GreedyDensity(items []Item, capacity float64) Solution {
	if err := validate(items, capacity); err != nil {
		panic(err)
	}
	s := newGreedyScratch(len(items))
	m := 0
	for i, it := range items {
		if it.Weight == 0 {
			// w + 0 == w ≤ capacity: it fits wherever it goes.
			setBit(s.take, i)
			continue
		}
		s.keys[m] = ^floatKey(it.Profit / it.Weight)
		s.idx[m] = uint64(i)
		m++
	}
	order := radixSort(s.keys[:m], s.idx[:m], s.bufKeys[:m], s.bufIdx[:m])
	var w float64
	for _, i := range order {
		if w+items[i].Weight <= capacity {
			setBit(s.take, int(i))
			w += items[i].Weight
		}
	}
	greedy := solutionFromMask(items, s.take)

	bestSingle := -1
	for i, it := range items {
		if it.Weight <= capacity && (bestSingle < 0 || it.Profit > items[bestSingle].Profit) {
			bestSingle = i
		}
	}
	if bestSingle >= 0 && items[bestSingle].Profit > greedy.Profit {
		return Solution{
			Selected: []int{bestSingle},
			Profit:   items[bestSingle].Profit,
			Weight:   items[bestSingle].Weight,
		}
	}
	return greedy
}

// greedyScratch is a greedy solve's working memory, carved from one
// allocation: a sort key and an item index per item, the radix sort's
// buffers for both, and a take mask with one bit per item.
type greedyScratch struct {
	keys, idx, bufKeys, bufIdx, take []uint64
}

func newGreedyScratch(n int) greedyScratch {
	buf := make([]uint64, 4*n+(n+63)/64)
	return greedyScratch{
		keys:    buf[:n:n],
		idx:     buf[n : 2*n : 2*n],
		bufKeys: buf[2*n : 3*n : 3*n],
		bufIdx:  buf[3*n : 4*n : 4*n],
		take:    buf[4*n:],
	}
}

// floatKey maps a nonnegative float (±0, +Inf included) to a uint64
// that orders like it: the IEEE-754 bits of a nonnegative float are
// monotone, and clearing the sign bit folds −0 into +0.
func floatKey(x float64) uint64 { return math.Float64bits(x) &^ (1 << 63) }

// radixSort orders idx by ascending keys with a stable
// least-significant-digit radix sort of eight one-byte passes, carrying
// each key with its index; a pass is skipped when every key has the same
// byte there. Equal keys keep their input order. bufKeys and bufIdx must
// be as long as keys. The ordered indices are returned and alias either
// idx or bufIdx.
func radixSort(keys, idx, bufKeys, bufIdx []uint64) []uint64 {
	if len(keys) == 0 {
		return idx
	}
	var counts [8][256]int
	for _, k := range keys {
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	for d := range counts {
		c := &counts[d]
		if c[byte(keys[0]>>(8*d))] == len(keys) {
			continue
		}
		sum := 0
		for b, n := range c {
			c[b] = sum
			sum += n
		}
		for i, k := range keys {
			b := byte(k >> (8 * d))
			bufKeys[c[b]], bufIdx[c[b]] = k, idx[i]
			c[b]++
		}
		keys, idx, bufKeys, bufIdx = bufKeys, bufIdx, keys, idx
	}
	return idx
}
